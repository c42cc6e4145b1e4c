package search

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tgminer/internal/gspan"
	"tgminer/internal/tgraph"
)

func TestNodeShardRangeAndSpread(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8} {
		counts := make([]int, shards)
		for v := tgraph.NodeID(0); v < 1024; v++ {
			s := tgraph.NodeShard(v, shards)
			if s < 0 || s >= shards {
				t.Fatalf("NodeShard(%d, %d) = %d out of range", v, shards, s)
			}
			counts[s]++
			if again := tgraph.NodeShard(v, shards); again != s {
				t.Fatalf("NodeShard not deterministic: %d vs %d", s, again)
			}
		}
		// The mixer must not stripe dense IDs onto one shard: every shard
		// should own a reasonable share of 1024 consecutive IDs.
		for s, c := range counts {
			if c < 1024/shards/2 {
				t.Fatalf("shard %d/%d owns only %d of 1024 dense IDs", s, shards, c)
			}
		}
	}
}

// TestShardedMatchesLiveDifferential is the tentpole's acceptance
// property: after any interleaving of appends, node additions, evictions,
// and compactions (automatic ones included, via tiny CompactEvery),
// ShardedLive(n) answers every query of all three families identically to
// a single Live engine and to a static Engine over the equivalent edge
// set — including Truncated bits under small Limits, which exercises the
// planner's cross-shard merge order and exact-truncation accounting.
func TestShardedMatchesLiveDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		compactEvery := []int{-1, 2, 3, 7}[rng.Intn(4)]
		shards := []int{1, 2, 3, 4}[rng.Intn(4)]
		sharded := NewSharded(LiveOptions{CompactEvery: compactEvery, Shards: shards})
		single := NewLive(LiveOptions{CompactEvery: compactEvery})
		numLabels := 3
		var labels []tgraph.Label
		var edges []tgraph.Edge
		apply := func(op liveOp) {
			replayOp(t, sharded, op)
			replayOp(t, single, op)
		}
		for i := 0; i < 4; i++ {
			lab := tgraph.Label(rng.Intn(numLabels))
			labels = append(labels, lab)
			apply(liveOp{kind: 'n', label: lab})
		}
		tm := int64(0)
		minTime := int64(0)
		for step := 0; step < 40; step++ {
			switch {
			case step%17 == 13:
				lab := tgraph.Label(rng.Intn(numLabels))
				labels = append(labels, lab)
				apply(liveOp{kind: 'n', label: lab})
			case step%11 == 7:
				if cut := tm - int64(rng.Intn(20)); cut > minTime {
					minTime = cut
				}
				apply(liveOp{kind: 'v', t: minTime})
			case step%13 == 5:
				apply(liveOp{kind: 'c'})
			default:
				src := tgraph.NodeID(rng.Intn(len(labels)))
				dst := tgraph.NodeID(rng.Intn(len(labels)))
				tm += int64(1 + rng.Intn(3))
				apply(liveOp{kind: 'e', src: src, dst: dst, t: tm})
				edges = append(edges, tgraph.Edge{Src: src, Dst: dst, Time: tm})
			}
			if step%9 != 0 {
				continue
			}
			if sharded.NumNodes() != single.NumNodes() || sharded.NumEdges() != single.NumEdges() {
				t.Logf("seed=%d step=%d: sharded %d/%d nodes/edges, single %d/%d",
					seed, step, sharded.NumNodes(), sharded.NumEdges(), single.NumNodes(), single.NumEdges())
				return false
			}
			static := staticEquivalent(t, labels, edges, minTime)
			if err := checkAllFamilies(t, rand.New(rand.NewSource(seed^int64(step))), sharded, static, numLabels); err != nil {
				t.Logf("seed=%d step=%d (shards=%d compactEvery=%d): sharded vs static: %v",
					seed, step, shards, compactEvery, err)
				return false
			}
			if err := checkAllFamilies(t, rand.New(rand.NewSource(seed^int64(step))), single, static, numLabels); err != nil {
				t.Logf("seed=%d step=%d: single vs static: %v", seed, step, err)
				return false
			}
			// Snapshot must materialize the same cut.
			p := randomQuery(rand.New(rand.NewSource(seed+int64(step))), 3, numLabels)
			if err := sameResult(sharded.Snapshot().FindTemporal(p, Options{}), static.FindTemporal(p, Options{})); err != nil {
				t.Logf("seed=%d step=%d: snapshot: %v", seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestShardedAdversarialInterleavings mirrors TestLiveAdversarialInterleavings
// for the sharded engine: the same deterministic mutation scripts around
// compaction boundaries, replayed into ShardedLive at several shard counts,
// checked against the static oracle after every op.
func TestShardedAdversarialInterleavings(t *testing.T) {
	for _, sc := range adversarialScripts() {
		t.Run(sc.name, func(t *testing.T) {
			for _, shards := range []int{1, 2, 3} {
				l := NewSharded(LiveOptions{CompactEvery: -1, Shards: shards})
				var labels []tgraph.Label
				var edges []tgraph.Edge
				minTime := int64(0)
				for i, op := range sc.ops {
					replayOp(t, l, op)
					switch op.kind {
					case 'n':
						labels = append(labels, op.label)
					case 'e':
						edges = append(edges, tgraph.Edge{Src: op.src, Dst: op.dst, Time: op.t})
					case 'v':
						if op.t > minTime {
							minTime = op.t
						}
					}
					static := staticEquivalent(t, labels, edges, minTime)
					if l.NumNodes() != static.g.NumNodes() || l.NumEdges() != static.g.NumEdges() {
						t.Fatalf("op %d (shards=%d): sharded %d nodes/%d edges, static %d/%d",
							i, shards, l.NumNodes(), l.NumEdges(), static.g.NumNodes(), static.g.NumEdges())
					}
					rng := rand.New(rand.NewSource(int64(i) + 1))
					if err := checkAllFamilies(t, rng, l, static, 2); err != nil {
						t.Fatalf("op %d (shards=%d): %v", i, shards, err)
					}
				}
			}
		})
	}
}

// shardedWriterNodes picks one source node per shard (plus one shared
// destination), adding nodes until every shard owns exactly one source.
func shardedWriterNodes(t testing.TB, l *ShardedLive, shards int) (srcs []tgraph.NodeID, dst tgraph.NodeID) {
	t.Helper()
	srcs = make([]tgraph.NodeID, shards)
	owned := make([]bool, shards)
	found := 0
	for guard := 0; found < shards; guard++ {
		if guard > 1024 {
			t.Fatal("could not find one source node per shard")
		}
		v := l.AddNode(0)
		s := tgraph.NodeShard(v, shards)
		if !owned[s] {
			owned[s] = true
			srcs[s] = v
			found++
		}
	}
	return srcs, l.AddNode(1)
}

// TestShardedLiveStress is the race-mode multi-writer stress test: one
// writer per shard appends edges from its own source node (timestamps
// w, w+K, w+2K, ... so each shard's stream is strictly increasing and the
// writer owning a timestamp is its residue mod K) while readers
// continuously run all three query families. Prefix consistency per shard:
// within any query snapshot, each residue class's match times must form a
// contiguous step-K run — a gap would mean a torn read inside one shard's
// stream — and the merged temporal stream must be globally ascending.
func TestShardedLiveStress(t *testing.T) {
	const shards = 4
	const perWriter = 300
	l := NewSharded(LiveOptions{CompactEvery: 16, Shards: shards})
	srcs, dst := shardedWriterNodes(t, l, shards)
	// Seed one edge per shard so every reader sees matches immediately.
	for w, src := range srcs {
		if err := l.Append(src, dst, int64(w)+1); err != nil {
			t.Fatal(err)
		}
	}
	p, err := tgraph.NewPattern([]tgraph.Label{0, 1}, []tgraph.PEdge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	np := &gspan.Pattern{Labels: []tgraph.Label{0, 1}, E: []gspan.Edge{{Src: 0, Dst: 1}}}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		writers.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writers.Done()
			src := srcs[w]
			for i := 1; i <= perWriter; i++ {
				tm := int64(w) + 1 + int64(i)*shards
				if err := l.Append(src, dst, tm); err != nil {
					t.Error(err)
					return
				}
				if w == 0 && i%97 == 0 {
					l.EvictBefore(tm - 64)
				}
				if w == 1 && i%131 == 0 {
					l.Compact()
				}
			}
		}(w)
	}
	go func() { writers.Wait(); close(stop) }()
	checkResidues := func(times []int64) {
		lastByRes := map[int64]int64{}
		for _, tm := range times {
			res := tm % shards
			if last, ok := lastByRes[res]; ok && tm != last+shards {
				t.Errorf("residue %d: non-contiguous times %d then %d (torn shard prefix)", res, last, tm)
				return
			}
			lastByRes[res] = tm
		}
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r % 3 {
				case 0: // merged temporal stream: globally ascending + per-shard contiguous
					var times []int64
					last := int64(-1)
					for m, serr := range l.StreamTemporal(context.Background(), p, Options{}) {
						if serr != nil {
							t.Error(serr)
							return
						}
						if m.Start != m.End {
							t.Errorf("single-edge match with span: %v", m)
							return
						}
						if m.Start <= last {
							t.Errorf("merged stream not ascending: %d after %d", m.Start, last)
							return
						}
						last = m.Start
						times = append(times, m.Start)
					}
					checkResidues(times)
				case 1: // non-temporal
					res := l.FindNonTemporal(np, Options{})
					times := make([]int64, 0, len(res.Matches))
					for _, m := range res.Matches {
						times = append(times, m.Start)
					}
					checkResidues(times)
				default: // label-set
					res := l.FindLabelSet([]tgraph.Label{0, 1}, Options{Window: 8})
					for _, m := range res.Matches {
						if m.End-m.Start+1 > 8 {
							t.Errorf("label-set window exceeded: %v", m)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestShardedStatsAggregation pins the facade-visible stats surface:
// per-shard stats sum into the aggregate, the node table is global, and
// the reader-accounting fields surface a paused cross-shard stream.
func TestShardedStatsAggregation(t *testing.T) {
	const shards = 4
	l := NewSharded(LiveOptions{CompactEvery: 8, Shards: shards})
	srcs, dst := shardedWriterNodes(t, l, shards)
	tm := int64(0)
	for i := 0; i < 64; i++ {
		tm++
		if err := l.Append(srcs[i%shards], dst, tm); err != nil {
			t.Fatal(err)
		}
	}
	agg := l.Stats()
	per := l.ShardStats()
	if len(per) != shards {
		t.Fatalf("ShardStats returned %d entries, want %d", len(per), shards)
	}
	sumLive, sumBase, sumTail := 0, 0, 0
	for _, s := range per {
		sumLive += s.LiveEdges
		sumBase += s.BaseEdges
		sumTail += s.TailLen
		if s.Nodes != l.NumNodes() {
			t.Fatalf("shard node table %d != global %d (identity contract)", s.Nodes, l.NumNodes())
		}
	}
	if agg.LiveEdges != 64 || sumLive != 64 {
		t.Fatalf("aggregate LiveEdges = %d (sum %d), want 64", agg.LiveEdges, sumLive)
	}
	if agg.BaseEdges != sumBase || agg.TailLen != sumTail {
		t.Fatalf("aggregate base/tail %d/%d != sums %d/%d", agg.BaseEdges, agg.TailLen, sumBase, sumTail)
	}
	if agg.LastTime != tm {
		t.Fatalf("aggregate LastTime = %d, want %d", agg.LastTime, tm)
	}
	if agg.RetainedBytes <= 0 {
		t.Fatal("aggregate RetainedBytes not reported")
	}

	// A paused stream pins its per-shard cut: ActiveReaders and, once more
	// edges arrive, OldestReaderLag must surface it.
	p, err := tgraph.NewPattern([]tgraph.Label{0, 1}, []tgraph.PEdge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	paused := make(chan struct{})
	resume := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		first := true
		for _, serr := range l.StreamTemporal(context.Background(), p, Options{}) {
			if serr != nil {
				t.Error(serr)
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
	for i := 0; i < 2*shards; i++ {
		tm++
		if err := l.Append(srcs[i%shards], dst, tm); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		agg = l.Stats()
		if agg.ActiveReaders >= 1 && agg.OldestReaderLag >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("paused stream not visible in stats: %+v", agg)
		}
		time.Sleep(time.Millisecond)
	}
	close(resume)
	<-done
	if s := l.Stats(); s.ActiveReaders != 0 {
		t.Fatalf("finished stream still counted: %+v", s)
	}
}

// TestShardedSingleShardDelegates pins that a one-shard engine behaves as
// the plain Live engine (the planner fast path) and that shard counts
// resolve (0 -> GOMAXPROCS).
func TestShardedSingleShardDelegates(t *testing.T) {
	l := NewSharded(LiveOptions{Shards: 1})
	if l.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", l.Shards())
	}
	if NewSharded(LiveOptions{}).Shards() < 1 {
		t.Fatal("default shard count must be >= 1")
	}
	a := l.AddNode(0)
	b := l.AddNode(1)
	if err := l.Append(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(a, tgraph.NodeID(99), 2); err == nil {
		t.Fatal("unknown node accepted")
	}
	p, err := tgraph.NewPattern([]tgraph.Label{0, 1}, []tgraph.PEdge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res := l.FindTemporal(p, Options{})
	if len(res.Matches) != 1 || res.Matches[0] != (Match{Start: 1, End: 1}) {
		t.Fatalf("unexpected matches %v", res.Matches)
	}
}

// TestShardedAppendDuplicateTimestamp pins the best-effort global
// uniqueness guard: a sequential caller reusing a tick gets an error even
// when the two edges route to different shards (the single-engine engine
// would have errored too), while out-of-order-but-unique cross-shard
// timestamps — the legitimate independent-writer pattern — stay accepted.
func TestShardedAppendDuplicateTimestamp(t *testing.T) {
	const shards = 4
	l := NewSharded(LiveOptions{Shards: shards})
	srcs, dst := shardedWriterNodes(t, l, shards)
	if err := l.Append(srcs[0], dst, 5); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(srcs[1], dst, 5); err == nil {
		t.Fatal("duplicate timestamp on a foreign shard accepted")
	}
	// Below the global maximum but unique and per-shard increasing: legal.
	if err := l.Append(srcs[1], dst, 3); err != nil {
		t.Fatalf("unique out-of-arrival-order timestamp rejected: %v", err)
	}
	if err := l.Append(srcs[1], dst, 3); err == nil {
		t.Fatal("per-shard duplicate accepted")
	}
	if n := l.NumEdges(); n != 2 {
		t.Fatalf("NumEdges = %d, want 2", n)
	}
	// t=0 must be accepted as a first tick (the guard's empty sentinel is
	// -1, not 0).
	l0 := NewSharded(LiveOptions{Shards: shards})
	s0, d0 := shardedWriterNodes(t, l0, shards)
	if err := l0.Append(s0[0], d0, 0); err != nil {
		t.Fatalf("t=0 first append rejected: %v", err)
	}
}

// TestShardedDisconnectedPatternWindow pins the defensive pair-index
// branch of the cross-shard temporal matcher: a non-T-connected pattern
// (legal per tgraph.NewPattern) reaches it with both endpoints unmapped,
// and the Window deadline must prune there exactly as the single-host
// twins do.
func TestShardedDisconnectedPatternWindow(t *testing.T) {
	// Pattern: A->B then C->D, disconnected.
	p, err := tgraph.NewPattern([]tgraph.Label{0, 1, 2, 3},
		[]tgraph.PEdge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	build := func(l liveLike) {
		a := l.AddNode(0)
		b := l.AddNode(1)
		c := l.AddNode(2)
		d := l.AddNode(3)
		if err := l.Append(a, b, 1); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(c, d, 100); err != nil { // far outside any small window
			t.Fatal(err)
		}
	}
	single := NewLive(LiveOptions{})
	build(single)
	for _, shards := range []int{1, 2, 3, 4} {
		sharded := NewSharded(LiveOptions{Shards: shards})
		build(sharded)
		for _, window := range []int64{0, 5} {
			opts := Options{Window: window}
			if err := sameResult(sharded.FindTemporal(p, opts), single.FindTemporal(p, opts)); err != nil {
				t.Fatalf("shards=%d window=%d: %v", shards, window, err)
			}
		}
	}
}

// TestShardedAppendDuringPausedStream mirrors the single-engine lock-free
// acceptance test: a consumer pauses mid-iteration holding a cross-shard
// stream open, and appends on every shard must complete anyway; the paused
// stream still sees exactly its pinned cut.
func TestShardedAppendDuringPausedStream(t *testing.T) {
	const shards = 3
	l := NewSharded(LiveOptions{CompactEvery: 8, Shards: shards})
	srcs, dst := shardedWriterNodes(t, l, shards)
	tm := int64(0)
	const pre = 12
	for i := 0; i < pre; i++ {
		tm++
		if err := l.Append(srcs[i%shards], dst, tm); err != nil {
			t.Fatal(err)
		}
	}
	p, err := tgraph.NewPattern([]tgraph.Label{0, 1}, []tgraph.PEdge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	firstMatch := make(chan struct{})
	resume := make(chan struct{})
	done := make(chan []Match, 1)
	go func() {
		var got []Match
		first := true
		for m, serr := range l.StreamTemporal(context.Background(), p, Options{}) {
			if serr != nil {
				t.Error(serr)
				break
			}
			got = append(got, m)
			if first {
				first = false
				close(firstMatch)
				<-resume
			}
		}
		done <- got
	}()
	<-firstMatch
	appended := make(chan error, 1)
	go func() {
		for i := 0; i < shards; i++ {
			tm++
			if err := l.Append(srcs[i], dst, tm); err != nil {
				appended <- err
				return
			}
		}
		appended <- nil
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append blocked by a paused cross-shard stream consumer")
	}
	close(resume)
	got := <-done
	if len(got) != pre {
		t.Fatalf("paused stream saw %d matches, want its cut's %d", len(got), pre)
	}
	for i, m := range got {
		if m.Start != int64(i+1) {
			t.Fatalf("match %d = %v, want start %d (merged ascending order)", i, m, i+1)
		}
	}
	res := l.FindTemporal(p, Options{})
	if len(res.Matches) != pre+shards {
		t.Fatalf("post-append query saw %d matches, want %d", len(res.Matches), pre+shards)
	}
}
