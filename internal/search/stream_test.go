package search

import (
	"context"
	"errors"
	"iter"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"tgminer/internal/tgraph"
)

// collectAll drains a stream into (matches, truncated, err) without sorting.
func collectAll(t *testing.T, seq func(func(Match, error) bool)) ([]Match, bool, error) {
	t.Helper()
	var out []Match
	var truncated bool
	var err error
	for m, serr := range seq {
		switch {
		case serr == nil:
			out = append(out, m)
		case errors.Is(serr, ErrTruncated):
			truncated = true
		default:
			err = serr
		}
	}
	return out, truncated, err
}

// TestStreamMatchesFindTemporal is the acceptance property for the v2
// streaming API: collecting Engine.StreamTemporal and sorting must be
// byte-identical to FindTemporal, across random hosts, patterns, windows,
// and limits.
func TestStreamMatchesFindTemporal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomHost(rng, 4+rng.Intn(4), 8+rng.Intn(8), 3)
		p := randomQuery(rng, 3, 3)
		opts := Options{}
		if rng.Intn(2) == 0 {
			opts.Window = int64(3 + rng.Intn(12))
		}
		if rng.Intn(3) == 0 {
			opts.Limit = 1 + rng.Intn(4)
		}
		eng := NewEngine(g)
		want := eng.FindTemporal(p, opts)
		got, truncated, err := collectAll(t, eng.StreamTemporal(context.Background(), p, opts))
		if err != nil {
			t.Logf("seed=%d: stream error %v", seed, err)
			return false
		}
		sortMatches(got)
		if len(got) != len(want.Matches) {
			t.Logf("seed=%d: stream %d matches, FindTemporal %d", seed, len(got), len(want.Matches))
			return false
		}
		for i := range got {
			if got[i] != want.Matches[i] {
				t.Logf("seed=%d: match %d stream %v != find %v", seed, i, got[i], want.Matches[i])
				return false
			}
		}
		if truncated != want.Truncated {
			t.Logf("seed=%d: truncated stream %v != find %v", seed, truncated, want.Truncated)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStreamDiscoveryOrder asserts the documented ordering: yielded Start
// values are non-decreasing (roots are visited in position = time order).
func TestStreamDiscoveryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomHost(rng, 5, 14, 2)
	p := randomQuery(rng, 2, 2)
	var last int64 = -1 << 62
	for m, err := range NewEngine(g).StreamTemporal(context.Background(), p, Options{}) {
		if err != nil {
			t.Fatal(err)
		}
		if m.Start < last {
			t.Fatalf("Start went backwards: %d after %d", m.Start, last)
		}
		last = m.Start
	}
}

// TestStreamEarlyBreak breaks out of the range after the first match; the
// engine's pooled scratch must be released so later queries on the same
// engine still work (corruption would surface here and under -race).
func TestStreamEarlyBreak(t *testing.T) {
	g := hostGraph(t, []tgraph.Label{0, 1, 2},
		[][2]tgraph.NodeID{{0, 1}, {1, 2}, {0, 1}, {1, 2}})
	e := NewEngine(g)
	p := pat(t, []tgraph.Label{0, 1, 2}, []tgraph.PEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	for i := 0; i < 10; i++ {
		n := 0
		for _, err := range e.StreamTemporal(context.Background(), p, Options{}) {
			if err != nil {
				t.Fatal(err)
			}
			n++
			if n == 1 {
				break
			}
		}
		if n != 1 {
			t.Fatalf("broke after %d matches", n)
		}
		// A full query after the break must still be correct.
		if res := e.FindTemporal(p, Options{}); len(res.Matches) != 3 {
			t.Fatalf("post-break query returned %v", res.Matches)
		}
	}
}

// TestStreamContextCancelled verifies a dead context surfaces as the final
// stream element and that FindTemporalContext propagates it.
func TestStreamContextCancelled(t *testing.T) {
	g := hostGraph(t, []tgraph.Label{0, 1},
		[][2]tgraph.NodeID{{0, 1}, {0, 1}, {0, 1}})
	e := NewEngine(g)
	p := pat(t, []tgraph.Label{0, 1}, []tgraph.PEdge{{Src: 0, Dst: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	matches, truncated, err := collectAll(t, e.StreamTemporal(ctx, p, Options{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if truncated {
		t.Fatal("cancelled stream reported truncation")
	}
	if len(matches) != 0 {
		t.Fatalf("pre-cancelled context yielded %d matches", len(matches))
	}
	res, err := e.FindTemporalContext(ctx, p, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FindTemporalContext err = %v", err)
	}
	if len(res.Matches) != 0 {
		t.Fatalf("FindTemporalContext partial = %v", res.Matches)
	}
}

// TestStreamCancelMidway cancels the context from inside the consumer loop;
// the stream must terminate with ctx.Err() and FindTemporalContext must
// return the partial prefix.
func TestStreamCancelMidway(t *testing.T) {
	labels := []tgraph.Label{0, 1}
	var edges [][2]tgraph.NodeID
	for i := 0; i < 50; i++ {
		edges = append(edges, [2]tgraph.NodeID{0, 1})
	}
	g := hostGraph(t, labels, edges)
	e := NewEngine(g)
	p := pat(t, []tgraph.Label{0, 1}, []tgraph.PEdge{{Src: 0, Dst: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []Match
	var finalErr error
	for m, err := range e.StreamTemporal(ctx, p, Options{}) {
		if err != nil {
			finalErr = err
			continue
		}
		got = append(got, m)
		if len(got) == 3 {
			cancel()
		}
	}
	if !errors.Is(finalErr, context.Canceled) {
		t.Fatalf("final err = %v, want context.Canceled", finalErr)
	}
	if len(got) < 3 || len(got) >= 50 {
		t.Fatalf("got %d matches, want partial prefix >= 3", len(got))
	}
}

// TestStreamLimitTerminal asserts the ErrTruncated terminal element and that
// exactly Limit matches precede it.
func TestStreamLimitTerminal(t *testing.T) {
	labels := []tgraph.Label{0, 1}
	var edges [][2]tgraph.NodeID
	for i := 0; i < 20; i++ {
		edges = append(edges, [2]tgraph.NodeID{0, 1})
	}
	g := hostGraph(t, labels, edges)
	e := NewEngine(g)
	p := pat(t, []tgraph.Label{0, 1}, []tgraph.PEdge{{Src: 0, Dst: 1}})
	matches, truncated, err := collectAll(t, e.StreamTemporal(context.Background(), p, Options{Limit: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 5 || !truncated {
		t.Fatalf("got %d matches truncated=%v, want 5/true", len(matches), truncated)
	}
}

// TestStreamExactLimitNotTruncated pins the rootDedup dup-check-first fix:
// when exactly Limit distinct intervals exist, duplicate candidates
// arriving after the limit-th distinct match must not flag truncation.
//
// Host: a->d@0, a->b1@1, a->b2@2, a->c@3. Pattern A->D, A->B, A->C has one
// distinct interval (0,3) reached through two middle bindings (b1 and b2),
// so with Limit=1 the duplicate (0,3) arrives after the cap is full.
func TestStreamExactLimitNotTruncated(t *testing.T) {
	// Labels: A=0, D=1, B=2, C=3. Nodes: a, d, b1, b2, c.
	g := hostGraph(t, []tgraph.Label{0, 1, 2, 2, 3},
		[][2]tgraph.NodeID{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	e := NewEngine(g)
	p := pat(t, []tgraph.Label{0, 1, 2, 3},
		[]tgraph.PEdge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}})
	// Sanity: unlimited search sees exactly one distinct interval.
	res := e.FindTemporal(p, Options{})
	if len(res.Matches) != 1 || res.Matches[0] != (Match{0, 3}) || res.Truncated {
		t.Fatalf("fixture: %+v, want exactly [{0 3}] untruncated", res)
	}
	res = e.FindTemporal(p, Options{Limit: 1})
	if len(res.Matches) != 1 || res.Truncated {
		t.Fatalf("limit==distinct count: %+v, want 1 match with Truncated=false", res)
	}
	matches, truncated, err := collectAll(t, e.StreamTemporal(context.Background(), p, Options{Limit: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || truncated {
		t.Fatalf("stream at exact limit: %d matches truncated=%v, want 1/false", len(matches), truncated)
	}
	// A genuinely missed distinct interval still reports truncation: a
	// second C edge adds the distinct interval (0,4).
	g2 := hostGraph(t, []tgraph.Label{0, 1, 2, 2, 3},
		[][2]tgraph.NodeID{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 4}})
	res2 := NewEngine(g2).FindTemporal(p, Options{Limit: 1})
	if len(res2.Matches) != 1 || !res2.Truncated {
		t.Fatalf("distinct match beyond cap: %+v, want Truncated=true", res2)
	}
}

// TestStreamInlineOnOneViewHosts pins the inline schedule of one-view cuts
// (a static Engine, a Live): the stream runs on the caller's goroutine — no
// worker appears while it runs, after it ends, or after the consumer breaks
// out early — and its allocations do not depend on how many matches it
// yields (the same at 36 and at 8,256).
func TestStreamInlineOnOneViewHosts(t *testing.T) {
	// pairs alternating a->b, b->c edges: every a->b pairs with every later
	// b->c, pairs*(pairs+1)/2 distinct intervals.
	build := func(pairs int) (*Engine, *Live) {
		labels := []tgraph.Label{0, 1, 2}
		var b tgraph.Builder
		l := NewLive(LiveOptions{CompactEvery: 64}) // base + tail both populated
		for _, lab := range labels {
			b.AddNode(lab)
			l.AddNode(lab)
		}
		for i := 0; i < 2*pairs; i++ {
			src := tgraph.NodeID(i % 2)
			if err := b.AddEdge(src, src+1, int64(i)); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(src, src+1, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return NewEngine(g), l
	}
	p := pat(t, []tgraph.Label{0, 1, 2}, []tgraph.PEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	type streamer interface {
		StreamTemporal(ctx context.Context, p *tgraph.Pattern, opts Options) iter.Seq2[Match, error]
	}
	before := runtime.NumGoroutine()
	// drain consumes up to stopAfter matches (0 = all), checking that no
	// goroutine was started while the stream is live.
	drain := func(h streamer, stopAfter int) int {
		n := 0
		for _, err := range h.StreamTemporal(context.Background(), p, Options{}) {
			if err != nil {
				t.Fatal(err)
			}
			if now := runtime.NumGoroutine(); now > before {
				t.Fatalf("%T: %d goroutines mid-stream, %d before it", h, now, before)
			}
			if n++; n == stopAfter {
				break
			}
		}
		return n
	}
	// The pools randomly drop entries under the race detector and empty on
	// a GC cycle, so the steady state is the minimum over a few runs.
	steadyAllocs := func(h streamer) float64 {
		m := math.Inf(1)
		for i := 0; i < 25; i++ {
			m = min(m, testing.AllocsPerRun(1, func() { drain(h, 0) }))
		}
		return m
	}
	allocs := map[string][]float64{}
	for _, pairs := range []int{8, 128} {
		e, l := build(pairs)
		for name, h := range map[string]streamer{"Engine": e, "Live": l} {
			if got, want := drain(h, 0), pairs*(pairs+1)/2; got != want {
				t.Fatalf("%s: %d matches, want %d", name, got, want)
			}
			drain(h, 3) // consumer breaks out early
			if now := runtime.NumGoroutine(); now > before {
				t.Fatalf("%s: %d goroutines after the streams, %d before them", name, now, before)
			}
			allocs[name] = append(allocs[name], steadyAllocs(h))
		}
	}
	for name, a := range allocs {
		if a[0] != a[1] {
			t.Errorf("%s.StreamTemporal allocations grow with the match count: %v at 36 matches, %v at 8256", name, a[0], a[1])
		}
	}
}
