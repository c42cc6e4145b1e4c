package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tgminer"
	"tgminer/internal/gspan"
	"tgminer/internal/tgraph"
)

// sessions builds n three-event sessions of the paper's flavor: a process
// touches a file which reaches a socket, plus one unrelated noise edge.
// Session k occupies times [10k+1, 10k+3], so every temporal/ntemp query
// over (proc -> file -> sock) has exactly one match per session, and the
// per-shard clock contract (strictly increasing, globally unique) holds for
// any shard count.
func sessions(from, n int) []Event {
	evs := make([]Event, 0, 3*n)
	for k := from; k < from+n; k++ {
		t0 := int64(10 * k)
		evs = append(evs,
			Event{Time: t0 + 1, Src: fmt.Sprintf("proc#%d", k), Dst: fmt.Sprintf("file#%d", k), SrcLabel: "proc", DstLabel: "file"},
			Event{Time: t0 + 2, Src: fmt.Sprintf("file#%d", k), Dst: fmt.Sprintf("sock#%d", k), SrcLabel: "file", DstLabel: "sock"},
			Event{Time: t0 + 3, Src: fmt.Sprintf("noiseA#%d", k), Dst: fmt.Sprintf("noiseB#%d", k), SrcLabel: "noiseA", DstLabel: "noiseB"},
		)
	}
	return evs
}

func newTestServer(t *testing.T, shards int, wm Watermarks) (*Server, *httptest.Server, *tgminer.LiveEngine) {
	t.Helper()
	eng := tgminer.NewLiveEngine(nil, tgminer.LiveOptions{Shards: shards})
	srv := New(Config{Engine: eng, Watermarks: wm})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, eng
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func ingest(t *testing.T, base string, evs []Event) IngestResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/events", IngestRequest{Events: evs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Appended != len(evs) {
		t.Fatalf("ingest: appended %d of %d: %s", ir.Appended, len(evs), body)
	}
	return ir
}

// ndjson renders values exactly as the server's NDJSON writer does, for
// byte-identical comparison.
func ndjson(t *testing.T, vals ...any) string {
	t.Helper()
	var b strings.Builder
	for _, v := range vals {
		j, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(j)
		b.WriteByte('\n')
	}
	return b.String()
}

// expectedBody renders an in-process SearchResult as the NDJSON body the
// server must produce for a complete uncached run at cut.
func expectedBody(t *testing.T, res tgminer.SearchResult, cut string) string {
	t.Helper()
	vals := make([]any, 0, len(res.Matches)+1)
	for _, m := range res.Matches {
		vals = append(vals, MatchRecord{Start: m.Start, End: m.End})
	}
	vals = append(vals, QueryDone{Done: true, Matches: len(res.Matches), Truncated: res.Truncated, Cut: cut})
	return ndjson(t, vals...)
}

func mustLabels(t *testing.T, eng *tgminer.LiveEngine, names ...string) []tgraph.Label {
	t.Helper()
	out := make([]tgraph.Label, len(names))
	for i, n := range names {
		var ok bool
		if out[i], ok = eng.LookupLabel(n); !ok {
			t.Fatalf("label %q not interned", n)
		}
	}
	return out
}

// TestServeDifferential is the acceptance check: for all three query
// families, the HTTP response — streamed order, Truncated accounting, and
// the terminal record — is byte-identical to the in-process engine answer
// at the same generation cut.
func TestServeDifferential(t *testing.T) {
	_, ts, eng := newTestServer(t, 3, Watermarks{})
	const n = 40
	evs := sessions(0, n)
	for i := 0; i < len(evs); i += 25 {
		end := min(i+25, len(evs))
		ingest(t, ts.URL, evs[i:end])
	}
	if eng.NumEdges() != len(evs) {
		t.Fatalf("engine has %d edges, want %d", eng.NumEdges(), len(evs))
	}
	cut := eng.GenerationCut()
	ctx := context.Background()
	labels := mustLabels(t, eng, "proc", "file", "sock")
	pedges := []tgraph.PEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}
	tp, err := tgraph.NewPattern(labels, pedges)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, path string
		req        QueryRequest
		want       func() (tgminer.SearchResult, error)
	}{
		{
			name: "temporal", path: "/v1/query/temporal",
			req: QueryRequest{Nodes: []string{"proc", "file", "sock"}, Edges: []QueryEdge{{0, 1}, {1, 2}}, Window: 5},
			want: func() (tgminer.SearchResult, error) {
				return eng.FindTemporalContext(ctx, tp, tgminer.SearchOptions{Window: 5})
			},
		},
		{
			// Limit below the match count exercises exact Truncated accounting.
			name: "temporal-truncated", path: "/v1/query/temporal",
			req: QueryRequest{Nodes: []string{"proc", "file", "sock"}, Edges: []QueryEdge{{0, 1}, {1, 2}}, Window: 5, Limit: 7},
			want: func() (tgminer.SearchResult, error) {
				return eng.FindTemporalContext(ctx, tp, tgminer.SearchOptions{Window: 5, Limit: 7})
			},
		},
		{
			// Parallel edge in the request exercises the ntemp collapse.
			name: "ntemp", path: "/v1/query/ntemp",
			req: QueryRequest{Nodes: []string{"proc", "file", "sock"}, Edges: []QueryEdge{{0, 1}, {1, 2}, {0, 1}}, Window: 5},
			want: func() (tgminer.SearchResult, error) {
				np := &gspan.Pattern{Labels: labels, E: []gspan.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}}
				return eng.FindNonTemporalContext(ctx, np, tgminer.SearchOptions{Window: 5})
			},
		},
		{
			name: "nodeset", path: "/v1/query/nodeset",
			req: QueryRequest{Labels: []string{"sock", "proc", "file"}, Window: 5},
			want: func() (tgminer.SearchResult, error) {
				lq := &tgminer.LabelSetQuery{Labels: mustLabels(t, eng, "sock", "proc", "file")}
				return eng.FindLabelSetContext(ctx, lq, tgminer.SearchOptions{Window: 5})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.want()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) == 0 {
				t.Fatal("test corpus produced no matches — the comparison would be vacuous")
			}
			req := tc.req
			req.NoCache = true
			resp, body := postJSON(t, ts.URL+tc.path, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Fatalf("Content-Type = %q", ct)
			}
			if want := expectedBody(t, res, cut); string(body) != want {
				t.Fatalf("HTTP body differs from in-process answer at cut %s\n got: %s\nwant: %s", cut, body, want)
			}
		})
	}
}

// TestServeCacheReplay pins the cache-consistency contract: a hit is an
// exact replay — same matches, same order, same Truncated flag, same cut —
// with only the Cached marker flipped; and any append changes the cut, so
// the next run is a miss with the fresh answer.
func TestServeCacheReplay(t *testing.T) {
	srv, ts, eng := newTestServer(t, 2, Watermarks{})
	ingest(t, ts.URL, sessions(0, 12))
	req := QueryRequest{Nodes: []string{"proc", "file", "sock"}, Edges: []QueryEdge{{0, 1}, {1, 2}}, Window: 5}

	run := func() (string, QueryDone) {
		resp, body := postJSON(t, ts.URL+"/v1/query/temporal", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		var done QueryDone
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil {
			t.Fatal(err)
		}
		return strings.Join(lines[:len(lines)-1], "\n"), done
	}

	matches1, done1 := run()
	if !done1.Done || done1.Cached || done1.Cut == "" {
		t.Fatalf("first run should be a complete uncached answer with a cut: %+v", done1)
	}
	if done1.Matches != 12 {
		t.Fatalf("expected one match per session, got %d", done1.Matches)
	}
	matches2, done2 := run()
	if !done2.Cached {
		t.Fatalf("second identical run should hit the cache: %+v", done2)
	}
	if matches2 != matches1 || done2.Matches != done1.Matches || done2.Truncated != done1.Truncated || done2.Cut != done1.Cut {
		t.Fatalf("cache hit is not an exact replay:\n first %+v %q\nsecond %+v %q", done1, matches1, done2, matches2)
	}
	if h := srv.cache.hits.Load(); h != 1 {
		t.Fatalf("cache hits = %d, want 1", h)
	}

	// One more session moves every written shard's cut: same request must
	// miss and see the new match.
	ingest(t, ts.URL, sessions(12, 1))
	matches3, done3 := run()
	if done3.Cached {
		t.Fatal("cache hit across an append would serve a stale answer")
	}
	if done3.Matches != 13 {
		t.Fatalf("post-append run found %d matches, want 13", done3.Matches)
	}
	if done3.Cut == done1.Cut {
		t.Fatal("generation cut did not move across an append")
	}
	if !strings.HasPrefix(matches3, matches1) {
		t.Fatal("replay order changed for the common prefix")
	}

	// Unknown labels short-circuit to a complete, cacheable empty answer.
	resp, body := postJSON(t, ts.URL+"/v1/query/temporal", QueryRequest{Nodes: []string{"proc", "no-such-label"}, Edges: []QueryEdge{{0, 1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unknown label: status %d: %s", resp.StatusCode, body)
	}
	if want := ndjson(t, QueryDone{Done: true, Cut: eng.GenerationCut()}); string(body) != want {
		t.Fatalf("unknown label body = %s, want %s", body, want)
	}

	// Malformed requests are rejected before touching the engine.
	for _, bad := range []QueryRequest{
		{},                        // no pattern at all
		{Nodes: []string{"proc"}}, // no edges
		{Nodes: []string{"proc"}, Edges: []QueryEdge{{0, 3}}}, // edge out of range
	} {
		if resp, _ := postJSON(t, ts.URL+"/v1/query/temporal", bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %+v: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestServeBackpressure is the acceptance check: a pinned slow reader
// drives OldestReaderLag past the soft watermark, new ingest observes 429s
// with a Retry-After hint, queries keep answering throughout, and ingest
// recovers once the reader finishes. Admission reads exact per-batch
// pressure (no sampling interval), so the shed decisions below are
// deterministic — no knob or sleep makes the stats "fresh enough".
func TestServeBackpressure(t *testing.T) {
	_, ts, eng := newTestServer(t, 1, Watermarks{SoftLagEdges: 4})
	ingest(t, ts.URL, sessions(0, 10))

	// Pin a reader: an in-process stream paused after its first match holds
	// its generation snapshot (exactly the "slow consumer" the watermark
	// protects against).
	p, err := tgraph.NewPattern(mustLabels(t, eng, "proc", "file"), []tgraph.PEdge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	paused, resume, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		first := true
		for _, serr := range eng.Stream(context.Background(), p, tgminer.SearchOptions{}) {
			if serr != nil {
				return
			}
			if first {
				first = false
				close(paused)
				<-resume
			}
		}
	}()
	<-paused

	// The batch that grows the lag past the watermark is itself admitted
	// (lag was still low when it was checked)...
	ingest(t, ts.URL, sessions(10, 2))
	// ...but the next one must be shed.
	resp, body := postJSON(t, ts.URL+"/v1/events", IngestRequest{Events: sessions(12, 1)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("ingest under reader lag: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ir.Error, "backpressure") || ir.RetryAfterMs <= 0 {
		t.Fatalf("unexpected 429 body: %s", body)
	}

	// Queries are not subject to ingest admission control: they keep
	// answering while writers are shed.
	qresp, qbody := postJSON(t, ts.URL+"/v1/query/nodeset", QueryRequest{Labels: []string{"proc", "file", "sock"}, Window: 5, NoCache: true})
	if qresp.StatusCode != http.StatusOK || !strings.Contains(string(qbody), `"done":true`) {
		t.Fatalf("query under backpressure: status %d: %s", qresp.StatusCode, qbody)
	}

	// Releasing the reader clears the lag; ingest recovers.
	close(resume)
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := postJSON(t, ts.URL+"/v1/events", IngestRequest{Events: sessions(12, 1)})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest did not recover after the reader finished: status %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeEvictOnPressure checks the hard-watermark evict policy: crossing
// HardRetainedBytes with HardPolicy "evict" drops the oldest slice of the
// live window, admits the batch, and reports both the eviction cut and the
// pressureEvictions counter.
func TestServeEvictOnPressure(t *testing.T) {
	eng := tgminer.NewLiveEngine(nil, tgminer.LiveOptions{Shards: 1})
	// Pre-populate past the (deliberately tiny) byte watermark before the
	// server exists, so the very first served batch sees hard pressure.
	for i := 0; i < 200; i++ {
		if err := eng.Append(fmt.Sprintf("s%d", i), "d", int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(Config{Engine: eng, Watermarks: Watermarks{
		HardRetainedBytes: 1, HardPolicy: "evict", EvictFraction: 0.5,
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/events", IngestRequest{Events: []Event{{Time: 1000, Src: "x", Dst: "y"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict policy should admit the batch: status %d: %s", resp.StatusCode, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Appended != 1 || ir.EvictedBefore == nil {
		t.Fatalf("expected an admitted batch with an eviction cut: %s", body)
	}
	// The pre-populated window was [1, 200]: half of it must be gone.
	if *ir.EvictedBefore <= 1 || *ir.EvictedBefore > 200 {
		t.Fatalf("eviction cut %d outside the live window", *ir.EvictedBefore)
	}
	if st := eng.Stats(); st.FirstTime < *ir.EvictedBefore {
		t.Fatalf("FirstTime %d still before the eviction cut %d", st.FirstTime, *ir.EvictedBefore)
	}

	var stz StatszResponse
	r, err := http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&stz); err != nil {
		t.Fatal(err)
	}
	if stz.Server.PressureEvictions != 1 {
		t.Fatalf("pressureEvictions = %d, want 1", stz.Server.PressureEvictions)
	}
	if stz.Cut == "" || len(stz.Shards) != 1 || stz.Stats.LiveEdges != stz.Shards[0].LiveEdges {
		t.Fatalf("statsz inconsistent: %+v", stz)
	}
}

// statsz fetches and decodes /v1/statsz.
func statsz(t *testing.T, base string) StatszResponse {
	t.Helper()
	r, err := http.Get(base + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stz StatszResponse
	if err := json.NewDecoder(r.Body).Decode(&stz); err != nil {
		t.Fatal(err)
	}
	return stz
}

// TestServeStatszCountsAcceptedPrefix checks that a batch failing at event
// k still counts the k events before it, which stay in the engine, in
// ingestEvents (and so in the ingest rate built on it).
func TestServeStatszCountsAcceptedPrefix(t *testing.T) {
	_, ts, eng := newTestServer(t, 1, Watermarks{})
	ingest(t, ts.URL, sessions(0, 1))
	before := statsz(t, ts.URL).Server.IngestEvents
	batch := []Event{
		{Time: 100, Src: "a", Dst: "b"},
		{Time: 101, Src: "b", Dst: "c"},
		{Time: 50, Src: "c", Dst: "d"}, // out of order: rejected
	}
	resp, body := postJSON(t, ts.URL+"/v1/events", IngestRequest{Events: batch})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Appended != 2 || ir.LastTime != 101 {
		t.Fatalf("appended %d up to time %d, want 2 up to 101: %s", ir.Appended, ir.LastTime, body)
	}
	if got := eng.Stats().LiveEdges; got != 5 {
		t.Fatalf("engine holds %d edges, want 5", got)
	}
	if got := statsz(t, ts.URL).Server.IngestEvents - before; got != 2 {
		t.Fatalf("ingestEvents rose by %d, want 2", got)
	}
}

// TestServeReaderAbandonment is the satellite check: a client that
// disconnects mid-stream releases its reader-table slot and pinned
// generation — ActiveReaders returns to 0, OldestReaderLag stops growing,
// and no goroutine is left behind.
func TestServeReaderAbandonment(t *testing.T) {
	_, ts, eng := newTestServer(t, 2, Watermarks{})
	const n = 8000
	// Populate in-process (bulk HTTP ingest is exercised elsewhere).
	for _, ev := range sessions(0, n) {
		eng.NodeWithLabel(ev.Src, ev.SrcLabel)
		eng.NodeWithLabel(ev.Dst, ev.DstLabel)
		if err := eng.Append(ev.Src, ev.Dst, ev.Time); err != nil {
			t.Fatal(err)
		}
	}
	baseline := runtime.NumGoroutine()

	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	reqBody, _ := json.Marshal(QueryRequest{Nodes: []string{"proc", "file", "sock"}, Edges: []QueryEdge{{0, 1}, {1, 2}}, Window: 5, NoCache: true})
	req, err := http.NewRequestWithContext(qctx, "POST", ts.URL+"/v1/query/temporal", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read exactly one streamed match, then walk away: cancelling the
	// request context closes the connection under the server mid-stream.
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.Contains(line, `"start"`) {
		t.Fatalf("first streamed line: %q, %v", line, err)
	}
	qcancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().ActiveReaders != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned stream still pins a reader slot: %+v", eng.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// With the slot released, new appends must not accrue reader lag.
	for _, ev := range sessions(n, 2) {
		if err := eng.Append(ev.Src, ev.Dst, ev.Time); err != nil {
			t.Fatal(err)
		}
	}
	if lag := eng.Stats().OldestReaderLag; lag != 0 {
		t.Fatalf("OldestReaderLag = %d after the reader was abandoned, want 0", lag)
	}
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gapSessions builds two-hop sessions whose second hop lags by gap ticks:
// proc#k -> file#k at base+1, file#k -> sock#k at base+1+gap. Sessions are
// spaced far apart so gap guards, not windows, decide what matches.
func gapSessions(from, n int, gap int64) []Event {
	evs := make([]Event, 0, 2*n)
	for k := from; k < from+n; k++ {
		base := int64(100 * k)
		evs = append(evs,
			Event{Time: base + 1, Src: fmt.Sprintf("proc#%d", k), Dst: fmt.Sprintf("file#%d", k), SrcLabel: "proc", DstLabel: "file"},
			Event{Time: base + 1 + gap, Src: fmt.Sprintf("file#%d", k), Dst: fmt.Sprintf("sock#%d", k), SrcLabel: "file", DstLabel: "sock"},
		)
	}
	return evs
}

// TestServeConstrainedDifferential extends the HTTP differential to
// constrained queries: a hops-carrying request must stream byte-identically
// to the in-process engine under the same TemporalConstraints at the same
// cut — and the constraint must demonstrably prune (the unconstrained
// answer is strictly larger).
func TestServeConstrainedDifferential(t *testing.T) {
	_, ts, eng := newTestServer(t, 2, Watermarks{})
	// Even sessions have a tight second hop (gap 1), odd ones a slow hop
	// (gap 50); the paper's "within 30s" rule admits only the tight half.
	var evs []Event
	for k := 0; k < 10; k++ {
		gap := int64(1)
		if k%2 == 1 {
			gap = 50
		}
		evs = append(evs, gapSessions(k, 1, gap)...)
	}
	ingest(t, ts.URL, evs)
	cut := eng.GenerationCut()
	ctx := context.Background()
	tp, err := tgraph.NewPattern(mustLabels(t, eng, "proc", "file", "sock"),
		[]tgraph.PEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cons := &tgminer.TemporalConstraints{Hops: []tgminer.HopConstraint{{}, {MaxGap: 30}}}
	res, err := eng.FindTemporalContext(ctx, tp, tgminer.SearchOptions{Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 5 {
		t.Fatalf("constrained in-process answer has %d matches, want the 5 tight sessions", len(res.Matches))
	}
	unres, err := eng.FindTemporalContext(ctx, tp, tgminer.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(unres.Matches) != 10 {
		t.Fatalf("unconstrained answer has %d matches, want 10 — the guard comparison would be vacuous", len(unres.Matches))
	}

	req := QueryRequest{
		Nodes:   []string{"proc", "file", "sock"},
		Edges:   []QueryEdge{{0, 1}, {1, 2}},
		Hops:    []HopSpec{{}, {MaxGap: 30}},
		NoCache: true,
	}
	resp, body := postJSON(t, ts.URL+"/v1/query/temporal", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if want := expectedBody(t, res, cut); string(body) != want {
		t.Fatalf("constrained HTTP body differs from in-process answer\n got: %s\nwant: %s", body, want)
	}
}

// TestServeConstrainedCacheDistinct pins that a constrained query and its
// unconstrained twin occupy distinct cache entries: the hops fold into the
// canonical key, so neither run can replay the other's answer.
func TestServeConstrainedCacheDistinct(t *testing.T) {
	srv, ts, _ := newTestServer(t, 2, Watermarks{})
	var evs []Event
	for k := 0; k < 6; k++ {
		gap := int64(1)
		if k%2 == 1 {
			gap = 50
		}
		evs = append(evs, gapSessions(k, 1, gap)...)
	}
	ingest(t, ts.URL, evs)

	run := func(hops []HopSpec) QueryDone {
		req := QueryRequest{Nodes: []string{"proc", "file", "sock"}, Edges: []QueryEdge{{0, 1}, {1, 2}}, Hops: hops}
		resp, body := postJSON(t, ts.URL+"/v1/query/temporal", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		var done QueryDone
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil {
			t.Fatal(err)
		}
		return done
	}
	hops := []HopSpec{{}, {MaxGap: 30}}

	plain1 := run(nil)
	if plain1.Cached || plain1.Matches != 6 {
		t.Fatalf("unconstrained first run: %+v, want 6 uncached matches", plain1)
	}
	cons1 := run(hops)
	if cons1.Cached {
		t.Fatalf("constrained first run hit the unconstrained cache entry: %+v", cons1)
	}
	if cons1.Matches != 3 {
		t.Fatalf("constrained run found %d matches, want the 3 tight sessions", cons1.Matches)
	}
	cons2 := run(hops)
	if !cons2.Cached || cons2.Matches != cons1.Matches || cons2.Cut != cons1.Cut {
		t.Fatalf("constrained replay is not an exact cache hit: %+v vs %+v", cons2, cons1)
	}
	plain2 := run(nil)
	if !plain2.Cached || plain2.Matches != plain1.Matches {
		t.Fatalf("unconstrained replay disturbed by the constrained entry: %+v vs %+v", plain2, plain1)
	}
	if n := srv.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2 (constrained + unconstrained)", n)
	}
}

// postRaw posts a raw JSON body, for requests a typed struct cannot express
// (unknown fields).
func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestServeRejectsUnknownAndInvalidConstraintFields pins the strict-decoding
// and validation contract: a typo'd constraint field is a 400 naming the
// offender (never a silently unconstrained query), hops outside the temporal
// family are rejected, and contradictory hop fields fail validation.
func TestServeRejectsUnknownAndInvalidConstraintFields(t *testing.T) {
	_, ts, _ := newTestServer(t, 1, Watermarks{})
	ingest(t, ts.URL, sessions(0, 2))

	// The motivating hazard: "maxGapp" must 400 and name the field.
	resp, body := postRaw(t, ts.URL+"/v1/query/temporal",
		`{"nodes":["proc","file"],"edges":[{"src":0,"dst":1}],"hops":[{},{"maxGapp":30}]}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "maxGapp") {
		t.Fatalf("typo'd hop field: status %d, body %s — want 400 naming maxGapp", resp.StatusCode, body)
	}
	// Top-level typos too.
	resp, body = postRaw(t, ts.URL+"/v1/query/temporal",
		`{"nodes":["proc","file"],"edges":[{"src":0,"dst":1}],"windoww":5}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "windoww") {
		t.Fatalf("typo'd request field: status %d, body %s", resp.StatusCode, body)
	}
	// And the ingest endpoint.
	resp, body = postRaw(t, ts.URL+"/v1/events",
		`{"events":[{"time":999,"src":"a","dst":"b","srcLabell":"x"}]}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "srcLabell") {
		t.Fatalf("typo'd event field: status %d, body %s", resp.StatusCode, body)
	}

	// Hops outside the temporal family are rejected up front.
	for _, path := range []string{"/v1/query/ntemp", "/v1/query/nodeset"} {
		req := QueryRequest{Nodes: []string{"proc", "file"}, Edges: []QueryEdge{{0, 1}},
			Labels: []string{"proc"}, Hops: []HopSpec{{MaxGap: 3}}}
		resp, body := postJSON(t, ts.URL+path, req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "temporal") {
			t.Fatalf("%s with hops: status %d, body %s", path, resp.StatusCode, body)
		}
	}

	// Contradictory or oversized hop sets fail validation with 400.
	for _, hops := range [][]HopSpec{
		{{}, {MinGap: 9, MaxGap: 2}},
		{{}, {Optional: true, MinRepeat: 1}},
		{{Optional: true}},
		{{}, {}, {}}, // more hops than edges
	} {
		req := QueryRequest{Nodes: []string{"proc", "file"}, Edges: []QueryEdge{{0, 1}}, Hops: hops}
		if resp, body := postJSON(t, ts.URL+"/v1/query/temporal", req); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("invalid hops %+v: status %d, body %s", hops, resp.StatusCode, body)
		}
	}
}
