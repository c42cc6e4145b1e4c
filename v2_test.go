package tgminer

import (
	"context"
	"errors"
	"testing"
)

// chainGraph builds A->B->C ... event chains through the facade builder.
func chainEngine(t *testing.T) (*Engine, *Pattern, *Dict) {
	t.Helper()
	dict := NewDict()
	gb := NewGraphBuilder(dict)
	events := [][2]string{
		{"sshd", "bash"}, {"bash", "ls"}, {"sshd", "bash2"},
		{"bash2", "ls"}, {"sshd", "bash"}, {"bash", "ls"},
	}
	for i, ev := range events {
		if err := gb.AddEvent(ev[0], ev[1], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := gb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	pb := NewGraphBuilder(dict)
	_ = pb.AddEvent("sshd", "bash", 0)
	_ = pb.AddEvent("bash", "ls", 1)
	pg, err := pb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	p := PatternFromGraph(pg)
	return NewEngine(g), p, dict
}

// TestEngineStreamEqualsFindTemporal is the facade-level acceptance check:
// collecting Engine.Stream reproduces Engine.FindTemporal byte for byte.
func TestEngineStreamEqualsFindTemporal(t *testing.T) {
	eng, p, _ := chainEngine(t)
	want := eng.FindTemporal(p, SearchOptions{})
	if len(want.Matches) == 0 {
		t.Fatal("no matches in fixture")
	}
	var got []Match
	for m, err := range eng.Stream(context.Background(), p, SearchOptions{}) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	res, err := eng.FindTemporalContext(context.Background(), p, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Matches) || len(res.Matches) != len(want.Matches) {
		t.Fatalf("stream %d, context %d, find %d matches", len(got), len(res.Matches), len(want.Matches))
	}
	for i := range res.Matches {
		if res.Matches[i] != want.Matches[i] {
			t.Fatalf("context collector diverges at %d: %v != %v", i, res.Matches[i], want.Matches[i])
		}
	}
}

func TestEngineStreamTruncates(t *testing.T) {
	eng, p, _ := chainEngine(t)
	n := 0
	sawTrunc := false
	for _, err := range eng.Stream(context.Background(), p, SearchOptions{Limit: 1}) {
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatal(err)
			}
			sawTrunc = true
			continue
		}
		n++
	}
	if n != 1 || !sawTrunc {
		t.Fatalf("limit 1: %d matches, truncated=%v", n, sawTrunc)
	}
}

// TestLiveEngineMatchesStatic feeds the same event log into a LiveEngine
// (with forced tiny compaction) and a batch GraphBuilder+NewEngine, and
// requires identical query results.
func TestLiveEngineMatchesStatic(t *testing.T) {
	dict := NewDict()
	le := NewLiveEngine(dict, LiveOptions{CompactEvery: 3})
	gb := NewGraphBuilder(dict)
	events := [][2]string{
		{"sshd", "bash"}, {"bash", "ls"}, {"sshd", "bash2"}, {"bash2", "ls"},
		{"sshd", "bash"}, {"bash", "ls"}, {"cron", "sh"}, {"sh", "ls"},
	}
	for i, ev := range events {
		if err := le.Append(ev[0], ev[1], int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := gb.AddEvent(ev[0], ev[1], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := gb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	static := NewEngine(g)

	pb := NewGraphBuilder(dict)
	_ = pb.AddEvent("sshd", "bash", 0)
	_ = pb.AddEvent("bash", "ls", 1)
	pg, err := pb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	p := PatternFromGraph(pg)

	want := static.FindTemporal(p, SearchOptions{})
	got := le.FindTemporal(p, SearchOptions{})
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("live %v != static %v", got.Matches, want.Matches)
	}
	for i := range got.Matches {
		if got.Matches[i] != want.Matches[i] {
			t.Fatalf("live %v != static %v", got.Matches, want.Matches)
		}
	}

	// Streaming against the live engine agrees too.
	var streamed []Match
	for m, err := range le.Stream(context.Background(), p, SearchOptions{}) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, m)
	}
	if len(streamed) != len(want.Matches) {
		t.Fatalf("live stream %v != static %v", streamed, want.Matches)
	}

	// The other two query families answer identically on the live engine.
	np := NonTemporalPatternFromGraph(pg)
	wantN := static.FindNonTemporal(np, SearchOptions{})
	gotN := le.FindNonTemporal(np, SearchOptions{})
	if len(gotN.Matches) != len(wantN.Matches) {
		t.Fatalf("live non-temporal %v != static %v", gotN.Matches, wantN.Matches)
	}
	for i := range gotN.Matches {
		if gotN.Matches[i] != wantN.Matches[i] {
			t.Fatalf("live non-temporal %v != static %v", gotN.Matches, wantN.Matches)
		}
	}
	lq := &LabelSetQuery{Labels: []Label{dict.Intern("sshd"), dict.Intern("ls")}}
	wantL := static.FindLabelSet(lq, SearchOptions{Window: 4})
	gotL := le.FindLabelSet(lq, SearchOptions{Window: 4})
	if len(gotL.Matches) != len(wantL.Matches) {
		t.Fatalf("live label-set %v != static %v", gotL.Matches, wantL.Matches)
	}
	for i := range gotL.Matches {
		if gotL.Matches[i] != wantL.Matches[i] {
			t.Fatalf("live label-set %v != static %v", gotL.Matches, wantL.Matches)
		}
	}

	// Snapshot and eviction remain consistent.
	snap := le.Snapshot()
	if sres := snap.FindTemporal(p, SearchOptions{}); len(sres.Matches) != len(want.Matches) {
		t.Fatalf("snapshot %v != static %v", sres.Matches, want.Matches)
	}
	le.EvictBefore(4)
	after := le.FindTemporal(p, SearchOptions{})
	for _, m := range after.Matches {
		if m.Start < 4 {
			t.Fatalf("evicted event matched: %v", m)
		}
	}
}

// TestQueryFamilyContextForms checks the v2 context forms of the
// non-temporal and label-set families on both engines: a dead context
// surfaces as ctx.Err(), a live one answers like the compatibility form.
func TestQueryFamilyContextForms(t *testing.T) {
	eng, p, dict := chainEngine(t)
	gb := NewGraphBuilder(dict)
	_ = gb.AddEvent("sshd", "bash", 0)
	_ = gb.AddEvent("bash", "ls", 1)
	pg, err := gb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	np := NonTemporalPatternFromGraph(pg)
	lq := &LabelSetQuery{Labels: []Label{dict.Intern("sshd"), dict.Intern("ls")}}
	_ = p

	if res, err := eng.FindNonTemporalContext(context.Background(), np, SearchOptions{}); err != nil || len(res.Matches) == 0 {
		t.Fatalf("FindNonTemporalContext: %v / %v", res, err)
	}
	if res, err := eng.FindLabelSetContext(context.Background(), lq, SearchOptions{Window: 4}); err != nil || len(res.Matches) == 0 {
		t.Fatalf("FindLabelSetContext: %v / %v", res, err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.FindNonTemporalContext(cancelled, np, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("non-temporal cancelled err = %v", err)
	}
	if _, err := eng.FindLabelSetContext(cancelled, lq, SearchOptions{Window: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("label-set cancelled err = %v", err)
	}
	// Regression: cancellation surfaces even when the queried labels never
	// occur (no events, so the sweep loop never polls).
	absent := &LabelSetQuery{Labels: []Label{dict.Intern("zz-absent-label")}}
	if _, err := eng.FindLabelSetContext(cancelled, absent, SearchOptions{Window: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("label-set cancelled (no events) err = %v", err)
	}

	// Same surface on a live engine.
	le := NewLiveEngine(dict, LiveOptions{CompactEvery: 2})
	for i, ev := range [][2]string{{"sshd", "bash"}, {"bash", "ls"}, {"sshd", "bash"}} {
		if err := le.Append(ev[0], ev[1], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := le.FindNonTemporalContext(context.Background(), np, SearchOptions{}); err != nil || len(res.Matches) == 0 {
		t.Fatalf("live FindNonTemporalContext: %v / %v", res, err)
	}
	if res, err := le.FindLabelSetContext(context.Background(), lq, SearchOptions{Window: 4}); err != nil || len(res.Matches) == 0 {
		t.Fatalf("live FindLabelSetContext: %v / %v", res, err)
	}
	if _, err := le.FindNonTemporalContext(cancelled, np, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("live non-temporal cancelled err = %v", err)
	}
	if _, err := le.FindLabelSetContext(cancelled, lq, SearchOptions{Window: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("live label-set cancelled err = %v", err)
	}
}

func TestLiveEngineRejectsOutOfOrder(t *testing.T) {
	// Shards: 1 — the strict total order is per shard; at Shards: 0 =
	// GOMAXPROCS "a" and "b" may own different shards, where a backwards
	// cross-shard timestamp is deliberately legal.
	le := NewLiveEngine(nil, LiveOptions{Shards: 1})
	if err := le.Append("a", "b", 10); err != nil {
		t.Fatal(err)
	}
	if err := le.Append("a", "b", 10); err == nil {
		t.Fatal("duplicate timestamp accepted")
	}
	if err := le.Append("b", "a", 9); err == nil {
		t.Fatal("backwards timestamp accepted")
	}
	if le.NumEdges() != 1 || le.LastTime() != 10 {
		t.Fatalf("engine state after rejects: edges=%d last=%d", le.NumEdges(), le.LastTime())
	}
}

// TestMineContextFacadeCancelled checks partial-result + ctx.Err() semantics
// through the public facade.
func TestMineContextFacadeCancelled(t *testing.T) {
	ds := GenerateSynthetic(SyntheticConfig{
		Scale: 0.25, GraphsPerBehavior: 4, BackgroundGraphs: 8, Seed: 1,
		Behaviors: []string{"gzip-decompress"},
	})
	pos := ds.Behaviors[0].Graphs
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MineContext(ctx, pos, ds.Background, MineOptions{MaxEdges: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	if _, err := MineTopKContext(ctx, pos, ds.Background, 5, MineOptions{MaxEdges: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("topk err = %v", err)
	}
	if _, err := DiscoverQueriesContext(ctx, pos, ds.Background, QueryOptions{QuerySize: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("discover err = %v", err)
	}
	// And an un-cancelled run through the same entry points still succeeds.
	bq, err := DiscoverQueriesContext(context.Background(), pos, ds.Background, QueryOptions{QuerySize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(bq.Queries) == 0 {
		t.Fatal("no queries discovered")
	}
}

// TestLiveEngineStats exercises the operator-facing retention and
// compaction statistics through the facade: base/tail split, eviction
// floor, and the merge-vs-rebuild compaction counters.
func TestLiveEngineStats(t *testing.T) {
	// Shards: 1 — the compaction counters below are one shard's; Shards: 0
	// would mean GOMAXPROCS.
	le := NewLiveEngine(nil, LiveOptions{CompactEvery: 4, Shards: 1})
	s := le.Stats()
	if s.Nodes != 0 || s.LiveEdges != 0 || s.LastTime != -1 || s.Compactions != 0 {
		t.Fatalf("fresh engine stats %+v", s)
	}
	for i := 0; i < 12; i++ {
		if err := le.Append("a", "b", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s = le.Stats()
	if s.Nodes != 2 || s.LiveEdges != 12 || s.LastTime != 11 {
		t.Fatalf("post-append stats %+v", s)
	}
	if s.BaseEdges+s.TailLen != 12 || s.Floor != 0 {
		t.Fatalf("base/tail split inconsistent: %+v", s)
	}
	// CompactEvery=4 over 12 appends: one initial rebuild, then merges.
	if s.Compactions != 3 || s.Merges != 2 || s.LastCompactTail != 4 {
		t.Fatalf("compaction counters %+v", s)
	}
	// Eviction advances the floor without reclaiming...
	le.EvictBefore(6)
	s = le.Stats()
	if s.LiveEdges != 6 || s.Floor != 6 || s.BaseEdges != 12 {
		t.Fatalf("post-evict stats %+v", s)
	}
	// ...until a compaction sees the dead prefix at half the edge array
	// and rebuilds, rebasing the floor to zero.
	le.Compact()
	s = le.Stats()
	if s.LiveEdges != 6 || s.Floor != 0 || s.BaseEdges != 6 || s.TailLen != 0 {
		t.Fatalf("post-reclaim stats %+v", s)
	}
	if s.Compactions != 4 || s.Merges != 2 {
		t.Fatalf("reclaiming compaction counters %+v", s)
	}
	if s.RetainedBytes <= 0 {
		t.Fatalf("RetainedBytes missing: %+v", s)
	}
}

// TestLiveEngineSharded drives the facade at several explicit shard counts
// through one event history and checks every query family answers
// identically to the single-shard engine, plus the sharded stats surface.
// (TestLiveEngineStats pins the exact single-shard counters; aggregates
// over N shards sum per-shard schedules instead.)
func TestLiveEngineSharded(t *testing.T) {
	dict := NewDict()
	// Distinct sources so the events actually spread across shards.
	events := [][2]string{
		{"sshd", "bash"}, {"bash", "ls"}, {"cron", "sh"}, {"sh", "ls"},
		{"sshd", "bash2"}, {"bash2", "ls"}, {"initd", "bash"}, {"bash", "cat"},
		{"sshd", "bash"}, {"bash", "ls"}, {"cron", "sh"}, {"sh", "cat"},
	}
	build := func(shards int) *LiveEngine {
		le := NewLiveEngine(dict, LiveOptions{CompactEvery: 3, Shards: shards})
		for i, ev := range events {
			if err := le.Append(ev[0], ev[1], int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return le
	}
	single := build(1)
	pb := NewGraphBuilder(dict)
	_ = pb.AddEvent("sshd", "bash", 0)
	_ = pb.AddEvent("bash", "ls", 1)
	pg, err := pb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	p := PatternFromGraph(pg)
	np := NonTemporalPatternFromGraph(pg)
	lq := &LabelSetQuery{Labels: []Label{dict.Intern("sshd"), dict.Intern("ls")}}
	for _, shards := range []int{2, 4} {
		le := build(shards)
		if le.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", le.Shards(), shards)
		}
		if le.NumNodes() != single.NumNodes() || le.NumEdges() != single.NumEdges() {
			t.Fatalf("shards=%d: %d/%d nodes/edges, single %d/%d",
				shards, le.NumNodes(), le.NumEdges(), single.NumNodes(), single.NumEdges())
		}
		for name, got := range map[string]SearchResult{
			"temporal":     le.FindTemporal(p, SearchOptions{Window: 4}),
			"non-temporal": le.FindNonTemporal(np, SearchOptions{Window: 4}),
			"label-set":    le.FindLabelSet(lq, SearchOptions{Window: 4}),
		} {
			var want SearchResult
			switch name {
			case "temporal":
				want = single.FindTemporal(p, SearchOptions{Window: 4})
			case "non-temporal":
				want = single.FindNonTemporal(np, SearchOptions{Window: 4})
			case "label-set":
				want = single.FindLabelSet(lq, SearchOptions{Window: 4})
			}
			if len(got.Matches) != len(want.Matches) || got.Truncated != want.Truncated {
				t.Fatalf("shards=%d %s: %v != single %v", shards, name, got, want)
			}
			for i := range got.Matches {
				if got.Matches[i] != want.Matches[i] {
					t.Fatalf("shards=%d %s: %v != single %v", shards, name, got.Matches, want.Matches)
				}
			}
		}
		per := le.ShardStats()
		if len(per) != shards {
			t.Fatalf("ShardStats: %d entries, want %d", len(per), shards)
		}
		agg := le.Stats()
		sum := 0
		for _, s := range per {
			sum += s.LiveEdges
			if s.Nodes != le.NumNodes() {
				t.Fatalf("shard node table %d != global %d", s.Nodes, le.NumNodes())
			}
		}
		if sum != agg.LiveEdges || agg.LiveEdges != len(events) {
			t.Fatalf("aggregate LiveEdges %d (sum %d), want %d", agg.LiveEdges, sum, len(events))
		}
		// Eviction applies engine-wide.
		le.EvictBefore(6)
		if got := le.NumEdges(); got != len(events)-6 {
			t.Fatalf("post-evict edges %d, want %d", got, len(events)-6)
		}
	}
}
