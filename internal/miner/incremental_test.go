package miner

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"tgminer/internal/sysgen"
	"tgminer/internal/tgraph"
)

// appendEdge returns g extended by one edge between existing nodes at a
// strictly later time (the live-ingestion append case).
func appendEdge(t *testing.T, g *tgraph.Graph) *tgraph.Graph {
	t.Helper()
	var last int64
	if n := g.NumEdges(); n > 0 {
		last = g.EdgeAt(n - 1).Time
	}
	dst := tgraph.NodeID(g.NumNodes() - 1)
	ng, err := g.ExtendSorted(nil, []tgraph.Edge{{Src: 0, Dst: dst, Time: last + 1}})
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

// appendNode returns g extended by a fresh-labeled node plus an edge to it,
// which can introduce seeds that did not exist before.
func appendNode(t *testing.T, g *tgraph.Graph, label tgraph.Label) *tgraph.Graph {
	t.Helper()
	var last int64
	if n := g.NumEdges(); n > 0 {
		last = g.EdgeAt(n - 1).Time
	}
	ng, err := g.ExtendSorted([]tgraph.Label{label}, []tgraph.Edge{
		{Src: 0, Dst: tgraph.NodeID(g.NumNodes()), Time: last + 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

// evictPrefix rebuilds g without its first k edges, keeping node set and
// original edge times (the live-eviction case: a prefix drop, not a pointer
// or count change).
func evictPrefix(t *testing.T, g *tgraph.Graph, k int) *tgraph.Graph {
	t.Helper()
	if k >= g.NumEdges() {
		k = g.NumEdges() - 1
	}
	if k < 1 {
		return g
	}
	var b tgraph.Builder
	for _, l := range g.Labels() {
		b.AddNode(l)
	}
	for _, e := range g.Edges()[k:] {
		if err := b.AddEdge(e.Src, e.Dst, e.Time); err != nil {
			t.Fatal(err)
		}
	}
	ng, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

// assertSameResult pins the session-vs-cold contract: Best (keys, scores,
// frequencies), BestScore, and TieCount must match exactly. Stats counters
// are excluded — they already differ between worker counts in batch runs.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.BestScore != want.BestScore {
		t.Fatalf("%s: BestScore %v, cold %v", label, got.BestScore, want.BestScore)
	}
	if got.TieCount != want.TieCount {
		t.Fatalf("%s: TieCount %d, cold %d", label, got.TieCount, want.TieCount)
	}
	if len(got.Best) != len(want.Best) {
		t.Fatalf("%s: |Best| %d, cold %d", label, len(got.Best), len(want.Best))
	}
	type scored struct{ sc, x, y float64 }
	cold := make(map[string]scored, len(want.Best))
	for _, sp := range want.Best {
		cold[sp.Pattern.Key()] = scored{sp.Score, sp.PosFreq, sp.NegFreq}
	}
	for _, sp := range got.Best {
		w, ok := cold[sp.Pattern.Key()]
		if !ok {
			t.Fatalf("%s: pattern %q not in cold best set", label, sp.Pattern.Key())
		}
		if (scored{sp.Score, sp.PosFreq, sp.NegFreq}) != w {
			t.Fatalf("%s: pattern %q scored %+v, cold %+v", label, sp.Pattern.Key(),
				scored{sp.Score, sp.PosFreq, sp.NegFreq}, w)
		}
	}
}

// mutation scripts shared by the differential tests. Each step transforms
// copies of the current pos/neg slices in place.
type mutation func(t *testing.T, pos, neg []*tgraph.Graph)

func differentialScript() []struct {
	name string
	mut  mutation
} {
	return []struct {
		name string
		mut  mutation
	}{
		{"cold", func(t *testing.T, pos, neg []*tgraph.Graph) {}},
		{"no-dirty", func(t *testing.T, pos, neg []*tgraph.Graph) {}},
		{"one-pos-append", func(t *testing.T, pos, neg []*tgraph.Graph) {
			pos[0] = appendEdge(t, pos[0])
		}},
		{"two-neg-appends", func(t *testing.T, pos, neg []*tgraph.Graph) {
			neg[1] = appendEdge(t, neg[1])
			neg[3] = appendEdge(t, neg[3])
		}},
		{"pos-evict", func(t *testing.T, pos, neg []*tgraph.Graph) {
			pos[2] = evictPrefix(t, pos[2], 2)
		}},
		{"mixed-append-evict", func(t *testing.T, pos, neg []*tgraph.Graph) {
			pos[0] = appendEdge(t, pos[0])
			neg[0] = evictPrefix(t, neg[0], 1)
		}},
		{"new-seed-node", func(t *testing.T, pos, neg []*tgraph.Graph) {
			for i := range pos {
				pos[i] = appendNode(t, pos[i], 9001)
			}
		}},
		{"all-dirty", func(t *testing.T, pos, neg []*tgraph.Graph) {
			for i := range pos {
				pos[i] = appendEdge(t, pos[i])
			}
			for i := range neg {
				neg[i] = appendEdge(t, neg[i])
			}
		}},
	}
}

// runDifferential drives a Session under opts and a cold Mine under cold
// over the same mutation script and asserts byte-identical results each
// round.
func runDifferential(t *testing.T, opts, cold Options, checkStats bool) {
	ds := sysgen.Generate(sysgen.Config{
		Scale: 0.25, GraphsPerBehavior: 6, BackgroundGraphs: 10, Seed: 7,
		Behaviors: []string{"gzip-decompress"},
	})
	pos := append([]*tgraph.Graph(nil), ds.Behaviors[0].Graphs...)
	neg := append([]*tgraph.Graph(nil), ds.Background...)

	ss := NewSession(opts)
	for round, step := range differentialScript() {
		step.mut(t, pos, neg)
		warm, err := ss.Mine(pos, neg)
		if err != nil {
			t.Fatalf("round %d (%s): session: %v", round, step.name, err)
		}
		want, err := Mine(pos, neg, cold)
		if err != nil {
			t.Fatalf("round %d (%s): cold: %v", round, step.name, err)
		}
		assertSameResult(t, fmt.Sprintf("round %d (%s)", round, step.name), warm, want)

		if !checkStats {
			continue
		}
		st := ss.Stats()
		switch step.name {
		case "cold":
			if st.LastDirty != st.LastSeeds || st.Reused() != 0 {
				t.Fatalf("cold round: dirty %d of %d seeds, reused %d",
					st.LastDirty, st.LastSeeds, st.Reused())
			}
		case "no-dirty":
			if st.LastDirty != 0 {
				t.Fatalf("no-dirty round: %d dirty seeds", st.LastDirty)
			}
			if st.Reused() == 0 {
				t.Fatal("no-dirty round reused nothing")
			}
		case "one-pos-append":
			if st.LastDirty == 0 || st.LastDirty == st.LastSeeds {
				t.Fatalf("one-graph append should dirty some but not all seeds; dirty %d of %d",
					st.LastDirty, st.LastSeeds)
			}
		}
	}
}

// TestSessionMatchesColdMine is the differential correctness test for
// incremental mining: after arbitrary append/evict interleavings, a warm
// Session.Mine must return results byte-identical to a cold Mine over the
// same data, at every worker count. Run with -race (CI does).
func TestSessionMatchesColdMine(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			opts := ExhaustiveOptions()
			opts.MaxEdges = 4
			opts.Parallelism = workers
			runDifferential(t, opts, opts, workers == 1)
		})
	}
}

// TestSessionAllConfigsDifferential runs the same differential script over
// every algorithm variant. Sessions ignore the registry prunings, so under
// each variant the session must equal a cold upper-bound-only Mine.
func TestSessionAllConfigsDifferential(t *testing.T) {
	for name, opts := range allConfigs() {
		opts.MaxEdges = 3
		opts.Parallelism = 2
		cold := ExhaustiveOptions()
		cold.MaxEdges = opts.MaxEdges
		t.Run(name, func(t *testing.T) {
			runDifferential(t, opts, cold, false)
		})
	}
}

// TestSessionTieCapDifferential exercises cached-tie injection under a tiny
// MaxResults cap: the retained subset after replay must equal the cold
// run's smallest-keys selection even when TieCount overflows the cap.
func TestSessionTieCapDifferential(t *testing.T) {
	opts := ExhaustiveOptions()
	opts.MaxEdges = 3
	opts.MaxResults = 2
	opts.Parallelism = 2
	runDifferential(t, opts, opts, false)
}

// TestSessionDenominatorReset pins the full-reset path: changing the graph
// count (every frequency's denominator) must reset the session and still
// produce cold-identical results.
func TestSessionDenominatorReset(t *testing.T) {
	ds := sysgen.Generate(sysgen.Config{
		Scale: 0.25, GraphsPerBehavior: 6, BackgroundGraphs: 8, Seed: 13,
		Behaviors: []string{"ftp-download"},
	})
	pos := append([]*tgraph.Graph(nil), ds.Behaviors[0].Graphs...)
	neg := append([]*tgraph.Graph(nil), ds.Background...)
	opts := ExhaustiveOptions()
	opts.MaxEdges = 4

	ss := NewSession(opts)
	if _, err := ss.Mine(pos, neg); err != nil {
		t.Fatal(err)
	}
	// Grow the positive set by one graph: denominator change.
	pos = append(pos, appendEdge(t, pos[0]))
	warm, err := ss.Mine(pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Mine(pos, neg, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "after denominator change", warm, cold)
	if st := ss.Stats(); st.FullResets != 1 || st.LastDirty != st.LastSeeds {
		t.Fatalf("expected one full reset with all seeds dirty, got %+v", st)
	}
}

// trippedCtx reports cancellation after a fixed number of Err() polls,
// deterministically cancelling a run partway through its seed loop.
type trippedCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *trippedCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestSessionCancellationKeepsCacheSound cancels a session run mid-way and
// verifies (a) the cancelled round returns the documented partial result
// plus ctx.Err(), and (b) the next complete round is still byte-identical
// to a cold mine — the cancelled round must not leave a poisoned cache
// behind.
func TestSessionCancellationKeepsCacheSound(t *testing.T) {
	ds := sysgen.Generate(sysgen.Config{
		Scale: 0.25, GraphsPerBehavior: 6, BackgroundGraphs: 10, Seed: 19,
		Behaviors: []string{"bzip2-decompress"},
	})
	pos := append([]*tgraph.Graph(nil), ds.Behaviors[0].Graphs...)
	neg := append([]*tgraph.Graph(nil), ds.Background...)
	opts := ExhaustiveOptions()
	opts.MaxEdges = 4
	opts.Parallelism = 1

	ss := NewSession(opts)
	if _, err := ss.Mine(pos, neg); err != nil {
		t.Fatal(err)
	}

	// Dirty one graph, then cancel after a few seeds of the re-mine.
	pos[0] = appendEdge(t, pos[0])
	ctx := &trippedCtx{Context: context.Background(), after: 3}
	res, err := ss.MineContext(ctx, pos, neg)
	if err != context.Canceled {
		t.Fatalf("cancelled round: err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled round returned nil result")
	}

	// Mutate again and complete a round; it must match cold exactly.
	neg[2] = appendEdge(t, neg[2])
	warm, err := ss.Mine(pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Mine(pos, neg, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "first complete round after cancel", warm, cold)

	// And a further incremental round on top of the recovered state.
	pos[1] = appendEdge(t, pos[1])
	warm, err = ss.Mine(pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err = Mine(pos, neg, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "second complete round after cancel", warm, cold)
}
