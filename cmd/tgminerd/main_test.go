package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tgminer"
	"tgminer/internal/gspan"
	"tgminer/internal/serve"
	"tgminer/internal/tgraph"
)

// TestTGMinerdSmoke is the end-to-end smoke check the CI serve job runs:
// build the real binary, start it on an ephemeral port, ingest a small
// corpus over HTTP, run one query per family and diff the answers against
// the offline library on the same events, then SIGTERM it and require a
// clean cooperative drain with exit status 130.
func TestTGMinerdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the tgminerd binary")
	}
	bin := filepath.Join(t.TempDir(), "tgminerd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tgminerd: %v\n%s", err, out)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-shards", "2", "-grace", "5s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon logs its bound address; with :0 that is the only way to
	// find the port. Keep draining stderr afterwards so the child never
	// blocks on a full pipe, and keep the tail for the drain assertions.
	var logMu sync.Mutex
	var logs strings.Builder
	logText := func() string {
		logMu.Lock()
		defer logMu.Unlock()
		return logs.String()
	}
	addrc := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		re := regexp.MustCompile(`serving on http://(\S+)`)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			logs.WriteString(line + "\n")
			logMu.Unlock()
			if m := re.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a
	case <-time.After(20 * time.Second):
		t.Fatalf("tgminerd never logged its address; logs:\n%s", logText())
	}

	// A tiny three-label corpus: proc#k -> file#k -> sock#k per session.
	var events []serve.Event
	for k := 0; k < 25; k++ {
		t0 := int64(10 * k)
		events = append(events,
			serve.Event{Time: t0 + 1, Src: fmt.Sprintf("proc#%d", k), Dst: fmt.Sprintf("file#%d", k), SrcLabel: "proc", DstLabel: "file"},
			serve.Event{Time: t0 + 2, Src: fmt.Sprintf("file#%d", k), Dst: fmt.Sprintf("sock#%d", k), SrcLabel: "file", DstLabel: "sock"},
		)
	}
	post := func(path string, v any) (int, []byte) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		return resp.StatusCode, out.Bytes()
	}
	if code, body := post("/v1/events", serve.IngestRequest{Events: events}); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, body)
	}

	// Offline reference: the same events through the library directly.
	eng := tgminer.NewLiveEngine(nil, tgminer.LiveOptions{Shards: 2})
	for _, ev := range events {
		eng.NodeWithLabel(ev.Src, ev.SrcLabel)
		eng.NodeWithLabel(ev.Dst, ev.DstLabel)
		if err := eng.Append(ev.Src, ev.Dst, ev.Time); err != nil {
			t.Fatal(err)
		}
	}
	labels := make([]tgraph.Label, 3)
	for i, n := range []string{"proc", "file", "sock"} {
		var ok bool
		if labels[i], ok = eng.LookupLabel(n); !ok {
			t.Fatalf("label %q missing offline", n)
		}
	}
	tp, err := tgraph.NewPattern(labels, []tgraph.PEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	sopts := tgminer.SearchOptions{Window: 5}
	offline := map[string]tgminer.SearchResult{}
	if offline["temporal"], err = eng.FindTemporalContext(ctx, tp, sopts); err != nil {
		t.Fatal(err)
	}
	np := &tgminer.NonTemporalPattern{Labels: labels, E: []gspan.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}}
	if offline["ntemp"], err = eng.FindNonTemporalContext(ctx, np, sopts); err != nil {
		t.Fatal(err)
	}
	if offline["nodeset"], err = eng.FindLabelSetContext(ctx, &tgminer.LabelSetQuery{Labels: labels}, sopts); err != nil {
		t.Fatal(err)
	}

	for family, want := range offline {
		req := serve.QueryRequest{Window: 5}
		if family == "nodeset" {
			req.Labels = []string{"proc", "file", "sock"}
		} else {
			req.Nodes = []string{"proc", "file", "sock"}
			req.Edges = []serve.QueryEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}
		}
		code, body := post("/v1/query/"+family, req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", family, code, body)
		}
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		var done serve.QueryDone
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil {
			t.Fatalf("%s: bad terminal line %q: %v", family, lines[len(lines)-1], err)
		}
		if !done.Done || done.Error != "" {
			t.Fatalf("%s: incomplete answer: %+v", family, done)
		}
		if done.Matches != len(want.Matches) || done.Truncated != want.Truncated {
			t.Fatalf("%s: served %d matches (truncated=%v), offline %d (truncated=%v)",
				family, done.Matches, done.Truncated, len(want.Matches), want.Truncated)
		}
		if len(want.Matches) == 0 {
			t.Fatalf("%s: offline reference found nothing — vacuous diff", family)
		}
		for i, m := range want.Matches {
			var got serve.MatchRecord
			if err := json.Unmarshal([]byte(lines[i]), &got); err != nil {
				t.Fatalf("%s: line %d %q: %v", family, i, lines[i], err)
			}
			if got.Start != m.Start || got.End != m.End {
				t.Fatalf("%s: match %d = [%d,%d], offline [%d,%d]", family, i, got.Start, got.End, m.Start, m.End)
			}
		}
	}

	var stz serve.StatszResponse
	if code, body := func() (int, []byte) {
		resp, err := http.Get(base + "/v1/statsz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		return resp.StatusCode, out.Bytes()
	}(); code != http.StatusOK || json.Unmarshal(body, &stz) != nil {
		t.Fatalf("statsz: status %d: %s", code, body)
	} else if stz.Server.IngestEvents != int64(len(events)) || stz.Stats.LiveEdges != len(events) {
		t.Fatalf("statsz counters off: %s", body)
	}

	// SIGTERM must take the cooperative drain path and exit 130. Read
	// stderr to EOF before reaping: Wait closes the pipe on process exit
	// and can discard the buffered tail — including the drain line — while
	// the scanner goroutine is still behind it.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-scanDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("tgminerd stderr never hit EOF after SIGTERM; logs:\n%s", logText())
	}
	err = cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("exit after SIGTERM: %v (logs:\n%s)", err, logText())
	}
	if !strings.Contains(logText(), "drained") {
		t.Fatalf("no drain log line after SIGTERM; logs:\n%s", logText())
	}
}

// TestSlowHeadersClosed opens a connection, sends half a request line and
// then nothing: the daemon's server must drop it once readHeaderTimeout
// passes rather than hold it forever.
func TestSlowHeadersClosed(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(http.NotFoundHandler())
	served := make(chan struct{})
	go func() { defer close(served); hs.Serve(ln) }()
	defer func() { hs.Close(); <-served }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /v1/sta")); err != nil {
		t.Fatal(err)
	}
	const slack = 5 * time.Second
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + slack)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open %s after an incomplete request line: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if d := time.Since(start); d < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %s, before the header timeout %s", d, readHeaderTimeout)
	}
}
