// Command tgminerd serves a live TGMiner engine over HTTP/JSON: many
// producers POST event batches to /v1/events under reader-lag/retention
// admission control while consumers evaluate the three query families of
// the paper via /v1/query/{temporal,ntemp,nodeset}, streamed as NDJSON.
// GET /v1/statsz exposes the engine and server counters.
//
// Usage:
//
//	tgminerd -addr 127.0.0.1:7171 -shards 4 \
//	         -soft-lag 50000 -hard-bytes 268435456 -hard-policy evict
//
// SIGINT/SIGTERM drain cooperatively: the listener stops, in-flight
// queries get -grace to finish (then are cancelled, returning partial
// results with a terminal error line), and the process exits 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"tgminer"
	"tgminer/internal/cmdutil"
	"tgminer/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7171", "listen address (use :0 for an ephemeral port; the bound address is logged)")
	shards := flag.Int("shards", 0, "engine shards (0 = GOMAXPROCS); producers are hashed by source entity")
	compactEvery := flag.Int("compact-every", 0, "tail-merge compaction threshold in edges (0 = engine default)")
	maxQueries := flag.Int("max-queries", 0, "concurrent query cap (0 = 2x GOMAXPROCS)")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "default per-query deadline when the request sends none")
	cacheEntries := flag.Int("cache", 256, "result-cache entries (negative disables the cache)")
	softLag := flag.Int("soft-lag", 0, "shed ingest (429) when any shard's oldest reader lags this many edges (0 = off)")
	hardLag := flag.Int("hard-lag", 0, "hard reader-lag watermark in edges (0 = off)")
	softBytes := flag.Int("soft-bytes", 0, "shed ingest (429) when any shard retains this many bytes (0 = off)")
	hardBytes := flag.Int("hard-bytes", 0, "hard retained-bytes watermark (0 = off)")
	hardPolicy := flag.String("hard-policy", "reject", "hard retained-bytes response: reject (429) or evict (drop the oldest slice of the window)")
	evictFraction := flag.Float64("evict-fraction", 0.25, "fraction of the live time window dropped per evict-on-pressure firing")
	retryAfter := flag.Duration("retry-after", 0, "cap on the Retry-After hint sent with 429s; shed responses project a shorter hint from observed pressure decay (0 = server default)")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace: how long in-flight queries may finish before being cancelled")
	flag.Parse()

	if err := run(*addr, *shards, *compactEvery, *maxQueries, *queryTimeout, *cacheEntries,
		serve.Watermarks{
			SoftLagEdges: *softLag, HardLagEdges: *hardLag,
			SoftRetainedBytes: *softBytes, HardRetainedBytes: *hardBytes,
			HardPolicy: *hardPolicy, EvictFraction: *evictFraction, RetryAfter: *retryAfter,
		}, *grace); err != nil {
		fmt.Fprintln(os.Stderr, "tgminerd:", err)
		os.Exit(1)
	}
}

// readHeaderTimeout bounds how long a client may take to send its request
// line and headers. Without it, a connection that never finishes them is
// held open forever.
const readHeaderTimeout = 5 * time.Second

// newHTTPServer builds the daemon's HTTP server around h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func run(addr string, shards, compactEvery, maxQueries int, queryTimeout time.Duration,
	cacheEntries int, wm serve.Watermarks, grace time.Duration) error {
	if p := wm.HardPolicy; p != "reject" && p != "evict" {
		return fmt.Errorf("unknown -hard-policy %q (want reject or evict)", p)
	}
	eng := tgminer.NewLiveEngine(nil, tgminer.LiveOptions{Shards: shards, CompactEvery: compactEvery})
	srv := serve.New(serve.Config{
		Engine:               eng,
		MaxConcurrentQueries: maxQueries,
		DefaultQueryTimeout:  queryTimeout,
		CacheEntries:         cacheEntries,
		Watermarks:           wm,
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv.Handler())
	log.Printf("tgminerd: %d shard(s), serving on http://%s", eng.Shards(), ln.Addr())

	// SIGINT and SIGTERM take the same cooperative path (cmdutil): stop
	// accepting, drain in-flight queries for the grace period, then cancel
	// the stragglers so they flush partial results, and exit 130.
	ctx, _, stop := cmdutil.SignalContext(0)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("tgminerd: shutdown signal; draining in-flight queries (grace %s)", grace)
	graceCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(graceCtx); err != nil {
		// Grace expired with queries still streaming: cancel them so each
		// terminates with its partial matches and an error line, then give
		// the flushes a moment before closing the sockets outright.
		log.Printf("tgminerd: grace expired; cancelling in-flight queries")
		srv.CancelQueries()
		finalCtx, cancelFinal := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancelFinal()
		if err := hs.Shutdown(finalCtx); err != nil {
			hs.Close()
		}
	}
	log.Printf("tgminerd: drained; bye")
	os.Exit(130)
	return nil
}
