// Package serve implements tgminerd's HTTP/JSON serving tier: a Server
// multiplexes many concurrent ingest producers and query consumers over one
// live engine (tgminer.LiveEngine, sharded multi-writer underneath).
//
//   - POST /v1/events ingests batched events under admission control:
//     every batch is checked against a fresh per-shard pressure reading
//     (engine stats are O(1), so there is no sampling window); crossing a
//     reader-lag or retained-bytes watermark sheds writers with 429 + a
//     decay-derived Retry-After, or fires the evict-on-pressure policy
//     (Watermarks).
//   - POST /v1/query/{temporal,ntemp,nodeset} evaluates the three query
//     families of the paper, streaming matches as NDJSON (a pooled
//     append-based encoder, byte-identical to encoding/json) with
//     per-request deadlines, a server-wide concurrency cap, and a result
//     cache keyed on (canonical query, per-shard generation cut) — a hit is
//     exactly a replay of a prior run at the same cut.
//   - GET /v1/statsz serves the engine's LiveStats (aggregate and per
//     shard) plus the server's own counters.
//
// Queries run lock-free against pinned generation snapshots, so a slow or
// disconnected consumer never stalls ingestion; a disconnect cancels the
// request context, which stops the backtracking search cooperatively and
// releases its reader-accounting slot.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tgminer"
	"tgminer/internal/gspan"
	"tgminer/internal/tgraph"
)

// Config configures a Server. Engine is required; zero values elsewhere
// pick the documented defaults.
type Config struct {
	// Engine is the live engine to front. The server assumes sole ownership
	// of its ingest (label interning is serialized through the engine's
	// lock), but in-process readers may keep querying it directly.
	Engine *tgminer.LiveEngine

	// MaxConcurrentQueries caps queries evaluating at once (default
	// 2×GOMAXPROCS). Arrivals beyond the cap wait — bounded by their own
	// deadline — and time out with 503.
	MaxConcurrentQueries int
	// DefaultQueryTimeout bounds a query that sends no timeoutMs (default
	// 30s); MaxQueryTimeout clamps requested deadlines (default 5m).
	DefaultQueryTimeout time.Duration
	MaxQueryTimeout     time.Duration

	// CacheEntries caps the result cache (default 256 entries; negative
	// disables caching). CacheMaxMatches bounds how large an answer is
	// still worth storing (default 65536 matches); larger answers stream
	// normally but are not cached.
	CacheEntries    int
	CacheMaxMatches int

	// MaxBatch caps events per ingest request (default 10000);
	// MaxBodyBytes caps request body size (default 8 MiB).
	MaxBatch     int
	MaxBodyBytes int64

	// Watermarks drive ingest admission control; the zero value disables it.
	Watermarks Watermarks

	// Logger receives server-side operational errors (e.g. a response that
	// failed to encode mid-write). Defaults to log.Default().
	Logger *log.Logger
}

func (c Config) normalize() Config {
	if c.MaxConcurrentQueries <= 0 {
		c.MaxConcurrentQueries = 2 * runtime.GOMAXPROCS(0)
	}
	if c.DefaultQueryTimeout <= 0 {
		c.DefaultQueryTimeout = 30 * time.Second
	}
	if c.MaxQueryTimeout <= 0 {
		c.MaxQueryTimeout = 5 * time.Minute
	}
	switch {
	case c.CacheEntries == 0:
		c.CacheEntries = 256
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	}
	if c.CacheMaxMatches <= 0 {
		c.CacheMaxMatches = 65536
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 10000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	c.Watermarks = c.Watermarks.normalize()
	return c
}

// defaultLimit mirrors the engine's SearchOptions.Limit default, so a
// request without an explicit limit canonicalizes to the same cache key as
// one that spells the default out.
const defaultLimit = 100000

// Server is the tgminerd serving tier over one live engine. Create with
// New, mount Handler on an http.Server, and call CancelQueries during
// shutdown to cut in-flight queries loose after the drain grace period.
type Server struct {
	cfg   Config
	eng   *tgminer.LiveEngine
	cache *resultCache
	sem   chan struct{}
	mux   *http.ServeMux
	log   *log.Logger

	baseCtx context.Context // cancelled by CancelQueries: the drain signal
	cancel  context.CancelFunc

	start    time.Time
	inFlight atomic.Int64
	queries  atomic.Int64
	queryErr atomic.Int64

	ingestBatches     atomic.Int64
	ingestEvents      atomic.Int64
	ingestRejected    atomic.Int64
	pressureEvictions atomic.Int64

	// Per-signal shed counters (which watermark tripped), surfaced in
	// /v1/statsz; ingestRejected is their sum.
	shedSoftLag   atomic.Int64
	shedHardLag   atomic.Int64
	shedSoftBytes atomic.Int64
	shedHardBytes atomic.Int64

	// Previous admission pressure reading, the decay baseline for the
	// Retry-After hint (admission.go).
	pressMu     sync.Mutex
	prevPress   pressureSample
	prevPressAt time.Time

	rateMu    sync.Mutex
	rateAt    time.Time
	rateCount int64
	rate      float64
}

// New returns a Server over cfg.Engine. It panics if Engine is nil.
//
// tglint:ignore ctxfirst the server owns its base context; Shutdown cancels it — callers bound request lifetimes per-request, not here
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("serve: Config.Engine is required")
	}
	cfg = cfg.normalize()
	s := &Server{
		cfg:   cfg,
		eng:   cfg.Engine,
		cache: newResultCache(cfg.CacheEntries),
		sem:   make(chan struct{}, cfg.MaxConcurrentQueries),
		mux:   http.NewServeMux(),
		log:   cfg.Logger,
		start: time.Now(),
	}
	if s.log == nil {
		s.log = log.Default()
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.rateAt = s.start
	s.mux.HandleFunc("POST /v1/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/query/temporal", s.handleQuery("temporal"))
	s.mux.HandleFunc("POST /v1/query/ntemp", s.handleQuery("ntemp"))
	s.mux.HandleFunc("POST /v1/query/nodeset", s.handleQuery("nodeset"))
	s.mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	return s
}

// Engine returns the served live engine.
func (s *Server) Engine() *tgminer.LiveEngine { return s.eng }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// CancelQueries cancels every in-flight query cooperatively: each returns
// its partial matches plus a terminal error line, the library contract for
// cancellation. tgminerd calls this when the drain grace deadline expires
// so http.Server.Shutdown can finish.
func (s *Server) CancelQueries() { s.cancel() }

// --- ingest ---------------------------------------------------------------

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	// Strict decoding: an unknown field is a 400 naming the offender, not a
	// silently dropped option.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, IngestResponse{Error: "bad request: " + err.Error()})
		return
	}
	if len(req.Events) == 0 {
		s.writeJSON(w, http.StatusBadRequest, IngestResponse{Error: "bad request: empty events batch"})
		return
	}
	if len(req.Events) > s.cfg.MaxBatch {
		s.writeJSON(w, http.StatusBadRequest, IngestResponse{
			Error: fmt.Sprintf("bad request: batch of %d exceeds the %d-event cap", len(req.Events), s.cfg.MaxBatch)})
		return
	}
	s.ingestBatches.Add(1)
	evicted, retry, err := s.admit()
	if err != nil {
		s.ingestRejected.Add(1)
		w.Header().Set("Retry-After", strconv.FormatInt(int64((retry+time.Second-1)/time.Second), 10))
		s.writeJSON(w, http.StatusTooManyRequests, IngestResponse{Error: err.Error(), RetryAfterMs: retry.Milliseconds()})
		return
	}
	resp := IngestResponse{EvictedBefore: evicted}
	for _, ev := range req.Events {
		// Label the endpoints before the edge lands: Node/NodeWithLabel is
		// idempotent per entity name, and Append would otherwise intern the
		// entity name as its own label.
		if ev.SrcLabel != "" {
			s.eng.NodeWithLabel(ev.Src, ev.SrcLabel)
		}
		if ev.DstLabel != "" {
			s.eng.NodeWithLabel(ev.Dst, ev.DstLabel)
		}
		if err := s.eng.Append(ev.Src, ev.Dst, ev.Time); err != nil {
			// The accepted prefix is already durable; report it so the
			// producer resumes after the last accepted event, and count it.
			s.ingestEvents.Add(int64(resp.Appended))
			resp.Error = err.Error()
			resp.LastTime = s.eng.LastTime()
			s.writeJSON(w, http.StatusBadRequest, resp)
			return
		}
		resp.Appended++
	}
	s.ingestEvents.Add(int64(resp.Appended))
	resp.LastTime = s.eng.LastTime()
	s.writeJSON(w, http.StatusOK, resp)
}

// --- queries --------------------------------------------------------------

// runner evaluates one prepared query, pushing matches through emit in
// discovery order until done or emit returns false (consumer gone). It
// reports the exact Truncated flag and any cancellation error.
type runner func(ctx context.Context, emit func(tgminer.Match) bool) (truncated bool, err error)

// canonQuery is the canonical request serialization the cache keys on:
// normalized bounds, nodeset labels sorted (multiset semantics), field
// order fixed by the struct.
type canonQuery struct {
	Family string      `json:"f"`
	Nodes  []string    `json:"n,omitempty"`
	Edges  []QueryEdge `json:"e,omitempty"`
	Labels []string    `json:"l,omitempty"`
	Hops   []HopSpec   `json:"h,omitempty"`
	Window int64       `json:"w"`
	Limit  int         `json:"k"`
}

// buildRunner validates a request and compiles it into a runner plus its
// canonical cache key. A query naming a label the engine has never seen
// compiles to the empty runner: such a label cannot appear on any edge, so
// the answer is exactly zero matches (and is cacheable like any other).
func (s *Server) buildRunner(family string, req *QueryRequest, opts tgminer.SearchOptions) (runner, string, error) {
	canon := canonQuery{Family: family, Window: opts.Window, Limit: opts.Limit}
	empty := func(context.Context, func(tgminer.Match) bool) (bool, error) { return false, nil }
	var run runner
	switch family {
	case "temporal", "ntemp":
		if len(req.Nodes) == 0 || len(req.Edges) == 0 {
			return nil, "", fmt.Errorf("%s query needs nodes and edges", family)
		}
		if len(req.Hops) > 0 {
			if family != "temporal" {
				return nil, "", errors.New("hops constraints apply only to temporal queries")
			}
			hops := make([]tgminer.HopConstraint, len(req.Hops))
			for i, h := range req.Hops {
				hops[i] = tgminer.HopConstraint{
					MinGap: h.MinGap, MaxGap: h.MaxGap,
					After: h.After, Within: h.Within,
					Optional: h.Optional, MinRepeat: h.MinRepeat, MaxRepeat: h.MaxRepeat,
				}
			}
			opts.Constraints = &tgminer.TemporalConstraints{Hops: hops}
			if err := opts.Constraints.Validate(len(req.Edges)); err != nil {
				return nil, "", err
			}
			// Constrained requests key separately from unconstrained ones:
			// the hops fold into the canonical query, so the two variants can
			// never alias each other's cache entries.
			canon.Hops = req.Hops
		}
		for i, e := range req.Edges {
			if e.Src < 0 || e.Src >= len(req.Nodes) || e.Dst < 0 || e.Dst >= len(req.Nodes) {
				return nil, "", fmt.Errorf("edge %d (%d->%d) references unknown node (have %d)", i, e.Src, e.Dst, len(req.Nodes))
			}
		}
		canon.Nodes, canon.Edges = req.Nodes, req.Edges
		labels := make([]tgraph.Label, len(req.Nodes))
		known := true
		for i, name := range req.Nodes {
			var ok bool
			if labels[i], ok = s.eng.LookupLabel(name); !ok {
				known = false
				break
			}
		}
		switch {
		case !known:
			run = empty
		case family == "temporal":
			edges := make([]tgraph.PEdge, len(req.Edges))
			for i, e := range req.Edges {
				edges[i] = tgraph.PEdge{Src: tgraph.NodeID(e.Src), Dst: tgraph.NodeID(e.Dst)}
			}
			p, err := tgraph.NewPattern(labels, edges)
			if err != nil {
				return nil, "", err
			}
			run = func(ctx context.Context, emit func(tgminer.Match) bool) (bool, error) {
				for m, err := range s.eng.Stream(ctx, p, opts) {
					switch {
					case errors.Is(err, tgminer.ErrTruncated):
						return true, nil
					case err != nil:
						return false, err
					case !emit(m):
						return false, nil
					}
				}
				return false, nil
			}
		default: // ntemp: collapse parallel edges, order-free
			seen := make(map[QueryEdge]bool, len(req.Edges))
			p := &gspan.Pattern{Labels: labels}
			for _, e := range req.Edges {
				if !seen[e] {
					seen[e] = true
					p.E = append(p.E, gspan.Edge{Src: tgraph.NodeID(e.Src), Dst: tgraph.NodeID(e.Dst)})
				}
			}
			run = func(ctx context.Context, emit func(tgminer.Match) bool) (bool, error) {
				res, err := s.eng.FindNonTemporalContext(ctx, p, opts)
				if err != nil {
					return false, err
				}
				for _, m := range res.Matches {
					if !emit(m) {
						return false, nil
					}
				}
				return res.Truncated, nil
			}
		}
	case "nodeset":
		if len(req.Labels) == 0 {
			return nil, "", errors.New("nodeset query needs labels")
		}
		if len(req.Hops) > 0 {
			return nil, "", errors.New("hops constraints apply only to temporal queries")
		}
		canon.Labels = append([]string(nil), req.Labels...)
		sort.Strings(canon.Labels)
		labels := make([]tgraph.Label, len(req.Labels))
		known := true
		for i, name := range req.Labels {
			var ok bool
			if labels[i], ok = s.eng.LookupLabel(name); !ok {
				known = false
				break
			}
		}
		if !known {
			run = empty
		} else {
			lq := &tgminer.LabelSetQuery{Labels: labels}
			run = func(ctx context.Context, emit func(tgminer.Match) bool) (bool, error) {
				res, err := s.eng.FindLabelSetContext(ctx, lq, opts)
				if err != nil {
					return false, err
				}
				for _, m := range res.Matches {
					if !emit(m) {
						return false, nil
					}
				}
				return res.Truncated, nil
			}
		}
	default:
		return nil, "", fmt.Errorf("unknown query family %q", family)
	}
	key, err := json.Marshal(canon)
	if err != nil {
		return nil, "", err
	}
	return run, string(key), nil
}

func (s *Server) handleQuery(family string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		// Strict decoding: a typo'd constraint field ("maxGapp") must be a
		// 400 naming the offender, never a silently unconstrained query.
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeJSON(w, http.StatusBadRequest, QueryDone{Error: "bad request: " + err.Error()})
			return
		}
		opts := tgminer.SearchOptions{Window: req.Window, Limit: req.Limit}
		if opts.Limit <= 0 {
			opts.Limit = defaultLimit
		}
		run, canon, err := s.buildRunner(family, &req, opts)
		if err != nil {
			s.writeJSON(w, http.StatusBadRequest, QueryDone{Error: "bad request: " + err.Error()})
			return
		}
		timeout := s.cfg.DefaultQueryTimeout
		if req.TimeoutMs > 0 {
			timeout = time.Duration(req.TimeoutMs) * time.Millisecond
		}
		if timeout > s.cfg.MaxQueryTimeout {
			timeout = s.cfg.MaxQueryTimeout
		}
		s.queries.Add(1)
		// The request deadline also bounds time spent waiting for a query
		// slot, and the server drain signal cuts both short.
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		defer context.AfterFunc(s.baseCtx, cancel)()
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			s.queryErr.Add(1)
			s.writeJSON(w, http.StatusServiceUnavailable, QueryDone{Error: "query admission timed out: " + ctx.Err().Error()})
			return
		}
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)

		key := cacheKey{family: family, query: canon, cut: s.eng.GenerationCut()}
		useCache := !req.NoCache && s.cfg.CacheEntries > 0
		w.Header().Set("Content-Type", "application/x-ndjson")
		// Matches stream through the pooled append-based encoder (ndjson.go):
		// one buffer serves every line of the request, so the per-match cost
		// is zero allocations (BenchmarkServeStream).
		lw := newLineWriter(w)
		defer lw.release()
		if useCache {
			if matches, truncated, ok := s.cache.get(key); ok {
				for _, m := range matches {
					if lw.writeMatch(MatchRecord{Start: m.Start, End: m.End}) != nil {
						return
					}
				}
				lw.writeDone(QueryDone{Done: true, Matches: len(matches), Truncated: truncated, Cached: true, Cut: key.cut})
				return
			}
		}

		n := 0
		clientGone := false
		collect := useCache
		var collected []tgminer.Match
		truncated, err := run(ctx, func(m tgminer.Match) bool {
			if lw.writeMatch(MatchRecord{Start: m.Start, End: m.End}) != nil {
				// Client gone: cancel the search promptly so its reader slot
				// and pinned generation release instead of running to
				// completion for nobody.
				clientGone = true
				cancel()
				return false
			}
			n++
			if collect {
				if len(collected) >= s.cfg.CacheMaxMatches {
					collect, collected = false, nil
				} else {
					collected = append(collected, m)
				}
			}
			return true
		})
		switch {
		case clientGone:
			return
		case err != nil:
			s.queryErr.Add(1)
			lw.writeDone(QueryDone{Matches: n, Error: err.Error()})
			return
		}
		done := QueryDone{Done: true, Matches: n, Truncated: truncated}
		// Store (and report the cut) only when the cut did not move during
		// evaluation: per-shard key monotonicity then proves the query's
		// pinned snapshot WAS this cut, making any later hit an exact replay.
		if cut2 := s.eng.GenerationCut(); cut2 == key.cut {
			done.Cut = key.cut
			if collect {
				s.cache.put(key, collected, truncated)
			}
		}
		lw.writeDone(done)
	}
}

// --- statsz ---------------------------------------------------------------

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	resp := StatszResponse{
		Stats:  s.eng.Stats(),
		Shards: s.eng.ShardStats(),
		Cut:    s.eng.GenerationCut(),
		Server: ServerStats{
			InFlightQueries:   s.inFlight.Load(),
			Queries:           s.queries.Load(),
			QueryErrors:       s.queryErr.Load(),
			CacheHits:         s.cache.hits.Load(),
			CacheMisses:       s.cache.misses.Load(),
			CacheEntries:      s.cache.len(),
			IngestBatches:     s.ingestBatches.Load(),
			IngestEvents:      s.ingestEvents.Load(),
			IngestRejected:    s.ingestRejected.Load(),
			ShedSoftLag:       s.shedSoftLag.Load(),
			ShedHardLag:       s.shedHardLag.Load(),
			ShedSoftBytes:     s.shedSoftBytes.Load(),
			ShedHardBytes:     s.shedHardBytes.Load(),
			PressureEvictions: s.pressureEvictions.Load(),
			IngestRatePerSec:  s.ingestRate(),
			UptimeSec:         time.Since(s.start).Seconds(),
		},
	}
	if lookups := resp.Server.CacheHits + resp.Server.CacheMisses; lookups > 0 {
		resp.Server.CacheHitRate = float64(resp.Server.CacheHits) / float64(lookups)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ingestRate reports events/sec over the window since the previous sample,
// refreshed at most every 200ms so frequent scrapes do not degenerate to
// rate-over-nothing.
func (s *Server) ingestRate() float64 {
	s.rateMu.Lock()
	defer s.rateMu.Unlock()
	now := time.Now()
	if el := now.Sub(s.rateAt); el >= 200*time.Millisecond {
		count := s.ingestEvents.Load()
		s.rate = float64(count-s.rateCount) / el.Seconds()
		s.rateAt, s.rateCount = now, count
	}
	return s.rate
}

// --- helpers --------------------------------------------------------------

// writeJSON writes one complete JSON response body. An encode error here is
// almost always the client disconnecting mid-write; the status line is
// already gone, so the best the server can do is record it.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Printf("serve: writing %T response: %v", v, err)
	}
}
