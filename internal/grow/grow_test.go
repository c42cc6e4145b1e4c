package grow

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tgminer/internal/sysgen"
	"tgminer/internal/tgraph"
)

// buildGraph builds a small test graph with labels[i] on node i and the
// given edges timestamped by slice order.
func buildGraph(t *testing.T, labels []tgraph.Label, edges [][2]tgraph.NodeID) *tgraph.Graph {
	t.Helper()
	var b tgraph.Builder
	for _, l := range labels {
		b.AddNode(l)
	}
	for i, e := range edges {
		if err := b.AddEdge(e[0], e[1], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSeedsBasic(t *testing.T) {
	// Graph: A->B, B->A, A->B (multi-edge).
	g := buildGraph(t, []tgraph.Label{0, 1}, [][2]tgraph.NodeID{{0, 1}, {1, 0}, {0, 1}})
	seeds := Seeds([]*tgraph.Graph{g}, nil)
	if len(seeds) != 2 {
		t.Fatalf("got %d seeds, want 2 (A->B and B->A)", len(seeds))
	}
	// Deterministic order: (0,1) before (1,0).
	if seeds[0].Pattern.LabelOf(0) != 0 {
		t.Errorf("seed order not deterministic")
	}
	if len(seeds[0].Pos) != 2 {
		t.Errorf("A->B embeddings = %d, want 2", len(seeds[0].Pos))
	}
	if len(seeds[1].Pos) != 1 {
		t.Errorf("B->A embeddings = %d, want 1", len(seeds[1].Pos))
	}
}

func TestSeedsNegativeOnlyFiltered(t *testing.T) {
	pos := buildGraph(t, []tgraph.Label{0, 1}, [][2]tgraph.NodeID{{0, 1}})
	neg := buildGraph(t, []tgraph.Label{5, 6}, [][2]tgraph.NodeID{{0, 1}})
	seeds := Seeds([]*tgraph.Graph{pos}, []*tgraph.Graph{neg})
	if len(seeds) != 1 {
		t.Fatalf("got %d seeds, want 1 (negative-only seed must be dropped)", len(seeds))
	}
	if len(seeds[0].Neg) != 0 {
		t.Errorf("unrelated negative embeddings attached: %d", len(seeds[0].Neg))
	}
}

func TestSeedsSelfLoopDistinct(t *testing.T) {
	g := buildGraph(t, []tgraph.Label{0, 0}, [][2]tgraph.NodeID{{0, 0}, {0, 1}})
	seeds := Seeds([]*tgraph.Graph{g}, nil)
	if len(seeds) != 2 {
		t.Fatalf("got %d seeds, want 2 (loop and non-loop A->A)", len(seeds))
	}
}

func TestExtendForward(t *testing.T) {
	// Chain A->B->C. Seed A->B, extend forward from B with label C.
	g := buildGraph(t, []tgraph.Label{0, 1, 2}, [][2]tgraph.NodeID{{0, 1}, {1, 2}})
	graphs := []*tgraph.Graph{g}
	seeds := Seeds(graphs, nil)
	seed := seeds[0] // A->B
	exts := Extensions(seed.Pattern, graphs, seed.Pos)
	if len(exts) != 1 {
		t.Fatalf("extensions = %v, want exactly 1", exts)
	}
	x := exts[0]
	if x.Kind != tgraph.Forward || x.Src != 1 || x.NewLabel != 2 {
		t.Fatalf("ext = %+v", x)
	}
	child := Extend(x, graphs, seed.Pos)
	if len(child) != 1 {
		t.Fatalf("child embeddings = %d, want 1", len(child))
	}
	if child[0].LastPos != 1 || len(child[0].Nodes) != 3 {
		t.Errorf("child embedding = %+v", child[0])
	}
}

func TestExtendBackwardAndInward(t *testing.T) {
	// A->B, C->B, A->B: seed A->B at pos 0 extends backward (C) and inward
	// (the second parallel A->B).
	g := buildGraph(t, []tgraph.Label{0, 1, 2}, [][2]tgraph.NodeID{{0, 1}, {2, 1}, {0, 1}})
	graphs := []*tgraph.Graph{g}
	seeds := Seeds(graphs, nil)
	var ab Seed
	for _, s := range seeds {
		if s.Pattern.LabelOf(0) == 0 {
			ab = s
		}
	}
	exts := Extensions(ab.Pattern, graphs, ab.Pos)
	var sawBackward, sawInward bool
	for _, x := range exts {
		switch x.Kind {
		case tgraph.Backward:
			sawBackward = true
			if x.NewLabel != 2 || x.Dst != 1 {
				t.Errorf("backward ext = %+v", x)
			}
			child := Extend(x, graphs, ab.Pos)
			if len(child) != 1 {
				t.Errorf("backward child embeddings = %d, want 1 (only from pos-0 parent)", len(child))
			}
		case tgraph.Inward:
			sawInward = true
			if x.Src != 0 || x.Dst != 1 {
				t.Errorf("inward ext = %+v", x)
			}
		}
	}
	if !sawBackward || !sawInward {
		t.Errorf("missing growth kinds in %v", exts)
	}
}

func TestExtendRespectsTemporalOrder(t *testing.T) {
	// B->C at time 0, A->B at time 1. Seed A->B cannot extend to B->C
	// because B->C happens earlier.
	g := buildGraph(t, []tgraph.Label{0, 1, 2}, [][2]tgraph.NodeID{{1, 2}, {0, 1}})
	graphs := []*tgraph.Graph{g}
	seeds := Seeds(graphs, nil)
	for _, s := range seeds {
		if s.Pattern.LabelOf(0) != 0 {
			continue
		}
		exts := Extensions(s.Pattern, graphs, s.Pos)
		if len(exts) != 0 {
			t.Errorf("A->B should have no extensions, got %v", exts)
		}
	}
}

func TestExtendInjectivity(t *testing.T) {
	// Triangle back to the same node: A->B then B->A' where A' is the same
	// node A. Forward growth must not map the new node onto A (that is
	// inward growth instead).
	g := buildGraph(t, []tgraph.Label{0, 1}, [][2]tgraph.NodeID{{0, 1}, {1, 0}})
	graphs := []*tgraph.Graph{g}
	seeds := Seeds(graphs, nil)
	ab := seeds[0]
	exts := Extensions(ab.Pattern, graphs, ab.Pos)
	if len(exts) != 1 {
		t.Fatalf("exts = %v, want only the inward B->A", exts)
	}
	if exts[0].Kind != tgraph.Inward || exts[0].Src != 1 || exts[0].Dst != 0 {
		t.Errorf("ext = %+v, want inward 1->0", exts[0])
	}
}

func TestFrequencyAndSupport(t *testing.T) {
	g1 := buildGraph(t, []tgraph.Label{0, 1}, [][2]tgraph.NodeID{{0, 1}, {0, 1}})
	g2 := buildGraph(t, []tgraph.Label{0, 1}, [][2]tgraph.NodeID{{0, 1}})
	g3 := buildGraph(t, []tgraph.Label{5, 6}, [][2]tgraph.NodeID{{0, 1}})
	graphs := []*tgraph.Graph{g1, g2, g3}
	seeds := Seeds(graphs, nil)
	ab := seeds[0]
	if len(ab.Pos) != 3 {
		t.Fatalf("embeddings = %d, want 3", len(ab.Pos))
	}
	if got := ab.Pos.SupportCount(); got != 2 {
		t.Errorf("SupportCount = %d, want 2", got)
	}
	if got := ab.Pos.Frequency(3); got != 2.0/3.0 {
		t.Errorf("Frequency = %v, want 2/3", got)
	}
	if got := (List{}).Frequency(0); got != 0 {
		t.Errorf("empty Frequency = %v", got)
	}
}

func TestResidualSetDedup(t *testing.T) {
	// Two embeddings with the same (graph, cut) collapse to one residual.
	l := List{
		{GraphID: 0, LastPos: 3, Nodes: []tgraph.NodeID{0, 1}},
		{GraphID: 0, LastPos: 3, Nodes: []tgraph.NodeID{0, 2}},
		{GraphID: 0, LastPos: 5, Nodes: []tgraph.NodeID{0, 1}},
	}
	set := l.ResidualSet()
	if len(set) != 2 {
		t.Fatalf("residual set size = %d, want 2", len(set))
	}
}

// --- Completeness / non-redundancy (Theorem 1) -------------------------

// enumerateDFS explores the entire pattern space reachable from seeds via
// consecutive growth, recording each visited pattern's canonical key.
func enumerateDFS(t *testing.T, graphs []*tgraph.Graph, maxEdges int) map[string]int {
	t.Helper()
	visited := map[string]int{}
	var dfs func(p *tgraph.Pattern, l List)
	dfs = func(p *tgraph.Pattern, l List) {
		visited[p.Key()]++
		if p.NumEdges() >= maxEdges {
			return
		}
		for _, x := range Extensions(p, graphs, l) {
			child := x.Apply(p)
			childEmb := Extend(x, graphs, l)
			if len(childEmb) == 0 {
				t.Fatalf("extension %+v of %v yielded no embeddings", x, p)
			}
			dfs(child, childEmb)
		}
	}
	for _, s := range Seeds(graphs, nil) {
		dfs(s.Pattern, s.Pos)
	}
	return visited
}

// bruteEnumerate lists the canonical keys of every T-connected temporal
// subpattern (up to maxEdges edges) of every graph, by trying all edge
// subsets.
func bruteEnumerate(graphs []*tgraph.Graph, maxEdges int) map[string]bool {
	out := map[string]bool{}
	for _, g := range graphs {
		n := g.NumEdges()
		for mask := 1; mask < (1 << n); mask++ {
			if popcount(mask) > maxEdges {
				continue
			}
			if key, ok := subPatternKey(g, mask); ok {
				out[key] = true
			}
		}
	}
	return out
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// subPatternKey builds the pattern induced by the edge subset mask of g,
// returning its canonical key if it is T-connected.
func subPatternKey(g *tgraph.Graph, mask int) (string, bool) {
	var nodes []tgraph.NodeID
	nodeIdx := map[tgraph.NodeID]tgraph.NodeID{}
	var edges []tgraph.PEdge
	for pos := 0; pos < g.NumEdges(); pos++ {
		if mask&(1<<pos) == 0 {
			continue
		}
		e := g.EdgeAt(pos)
		for _, v := range []tgraph.NodeID{e.Src, e.Dst} {
			if _, ok := nodeIdx[v]; !ok {
				nodeIdx[v] = tgraph.NodeID(len(nodes))
				nodes = append(nodes, v)
			}
		}
		edges = append(edges, tgraph.PEdge{Src: nodeIdx[e.Src], Dst: nodeIdx[e.Dst]})
	}
	labels := make([]tgraph.Label, len(nodes))
	for i, v := range nodes {
		labels[i] = g.LabelOf(v)
	}
	p, err := tgraph.NewPattern(labels, edges)
	if err != nil {
		panic(err)
	}
	if !p.IsTConnected() {
		return "", false
	}
	return p.Key(), true
}

func randomGraph(rng *rand.Rand, nodes, edges, labelRange int) *tgraph.Graph {
	var b tgraph.Builder
	for i := 0; i < nodes; i++ {
		b.AddNode(tgraph.Label(rng.Intn(labelRange)))
	}
	for i := 0; i < edges; i++ {
		if err := b.AddEdge(tgraph.NodeID(rng.Intn(nodes)), tgraph.NodeID(rng.Intn(nodes)), int64(i)); err != nil {
			panic(err)
		}
	}
	g, err := b.Finalize()
	if err != nil {
		panic(err)
	}
	return g
}

func TestTheorem1CompletenessAndNoRepetition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		graphs := []*tgraph.Graph{
			randomGraph(rng, 3+rng.Intn(3), 4+rng.Intn(3), 2),
			randomGraph(rng, 3+rng.Intn(3), 4+rng.Intn(3), 2),
		}
		maxEdges := 6
		visited := enumerateDFS(t, graphs, maxEdges)
		want := bruteEnumerate(graphs, maxEdges)
		// No repetition: every pattern visited exactly once.
		for key, count := range visited {
			if count != 1 {
				t.Fatalf("trial %d: pattern visited %d times", trial, count)
			}
			if !want[key] {
				t.Fatalf("trial %d: DFS visited a pattern brute force did not find", trial)
			}
		}
		// Completeness: every T-connected subpattern visited.
		for key := range want {
			if _, ok := visited[key]; !ok {
				t.Fatalf("trial %d: brute-force pattern missed by DFS (|visited|=%d |want|=%d)",
					trial, len(visited), len(want))
			}
		}
	}
}

// --- Children equals Extensions followed by Extend ----------------------

// checkChildren compares Children(p, graphs, l) with Extensions followed by
// Extend for each extension: the same extensions in the same order, and for
// each the same embeddings in the same order, field by field.
func checkChildren(t *testing.T, graphs []*tgraph.Graph, p *tgraph.Pattern, l List) {
	t.Helper()
	exts, lists, _ := Children(p, graphs, l, nil)
	want := Extensions(p, graphs, l)
	if !slices.Equal(exts, want) {
		t.Fatalf("%v: Children extensions %v, Extensions %v", p, exts, want)
	}
	if len(lists) != len(exts) {
		t.Fatalf("%v: %d lists for %d extensions", p, len(lists), len(exts))
	}
	for i, x := range exts {
		wl := Extend(x, graphs, l)
		if len(lists[i]) != len(wl) {
			t.Fatalf("%v + %+v: %d child embeddings, Extend has %d", p, x, len(lists[i]), len(wl))
		}
		for j, e := range lists[i] {
			w := wl[j]
			if !sameEmbedding(e, w) {
				t.Fatalf("%v + %+v: embedding %d is %+v, Extend has %+v", p, x, j, e, w)
			}
		}
	}
}

// sameEmbedding reports whether two embeddings agree field by field.
func sameEmbedding(a, b Embedding) bool {
	return a.GraphID == b.GraphID && a.LastPos == b.LastPos && slices.Equal(a.Nodes, b.Nodes)
}

// walkChildren runs check at every pattern reachable from the seeds of
// graphs within maxEdges edges, growing through Children, and returns the
// number of patterns checked.
func walkChildren(t *testing.T, graphs []*tgraph.Graph, maxEdges int, check func(*testing.T, []*tgraph.Graph, *tgraph.Pattern, List)) int {
	t.Helper()
	n := 0
	var walk func(p *tgraph.Pattern, l List)
	walk = func(p *tgraph.Pattern, l List) {
		n++
		check(t, graphs, p, l)
		if p.NumEdges() >= maxEdges {
			return
		}
		exts, lists, _ := Children(p, graphs, l, nil)
		for i, x := range exts {
			walk(x.Apply(p), lists[i])
		}
	}
	for _, s := range Seeds(graphs, nil) {
		walk(s.Pattern, s.Pos)
	}
	return n
}

// childrenHandBuilt are the small graphs the Children tests walk by hand.
var childrenHandBuilt = []struct {
	name   string
	labels []tgraph.Label
	edges  [][2]tgraph.NodeID
}{
	// Self loops before, between and after ordinary edges, on mapped and
	// unmapped nodes.
	{"self loops", []tgraph.Label{0, 1, 1}, [][2]tgraph.NodeID{{0, 0}, {0, 1}, {1, 1}, {0, 0}, {1, 2}, {2, 2}, {1, 0}}},
	// Parallel edges: several inward, forward and backward candidates
	// per embedding, so one embedding fans out into several children.
	{"parallel edges", []tgraph.Label{0, 1, 2}, [][2]tgraph.NodeID{{0, 1}, {0, 1}, {1, 2}, {0, 1}, {1, 2}, {2, 1}, {2, 1}}},
	// Repeated labels: forward and backward steps to distinct graph nodes
	// of one label land in one extension.
	{"repeated labels", []tgraph.Label{0, 0, 0, 1, 1}, [][2]tgraph.NodeID{{0, 1}, {1, 2}, {0, 3}, {2, 0}, {4, 1}, {1, 4}, {3, 0}}},
	// Embeddings sharing a final edge: A->B at 0 and A'->B at 1 both grow
	// backward through C->B at 2, and inward through A->B / A'->B later.
	{"shared final edge", []tgraph.Label{0, 0, 1, 2}, [][2]tgraph.NodeID{{0, 2}, {1, 2}, {3, 2}, {0, 2}, {1, 2}, {2, 3}}},
}

func TestChildrenMatchesExtendHandBuilt(t *testing.T) {
	for _, c := range childrenHandBuilt {
		t.Run(c.name, func(t *testing.T) {
			g := buildGraph(t, c.labels, c.edges)
			// The graph twice, so lists span several graph IDs.
			if n := walkChildren(t, []*tgraph.Graph{g, g}, 5, checkChildren); n == 0 {
				t.Fatal("no patterns checked")
			}
		})
	}
}

// childrenRandomCorpora returns the random graph pairs the Children tests
// walk.
func childrenRandomCorpora() [][]*tgraph.Graph {
	rng := rand.New(rand.NewSource(47))
	out := make([][]*tgraph.Graph, 40)
	for trial := range out {
		out[trial] = []*tgraph.Graph{
			randomGraph(rng, 3+rng.Intn(4), 6+rng.Intn(6), 2),
			randomGraph(rng, 3+rng.Intn(4), 6+rng.Intn(6), 2),
		}
	}
	return out
}

func TestChildrenMatchesExtendRandom(t *testing.T) {
	for _, graphs := range childrenRandomCorpora() {
		walkChildren(t, graphs, 4, checkChildren)
	}
}

// childrenSysgen is the sysgen corpus the Children tests walk to two edges.
func childrenSysgen() *sysgen.Dataset {
	return sysgen.Generate(sysgen.Config{
		Scale: 0.2, GraphsPerBehavior: 2, BackgroundGraphs: 0, Seed: 11,
		Behaviors: []string{"sshd-login", "apt-get-install"},
	})
}

func TestChildrenMatchesExtendSysgen(t *testing.T) {
	for _, bd := range childrenSysgen().Behaviors {
		n := walkChildren(t, bd.Graphs, 2, checkChildren)
		t.Logf("%s: %d patterns checked", bd.Spec.Name, n)
	}
}

// checkChildrenKeep compares Children filtered by keep = support ≥ k, for
// k = 1, 2 and the largest child support, with the unfiltered call: it must
// return exactly the unfiltered entries whose list has SupportCount() ≥ k,
// with the same extensions, list contents and order, and report the rest as
// dropped. It returns the number of children the filters dropped.
func checkChildrenKeep(t *testing.T, graphs []*tgraph.Graph, p *tgraph.Pattern, l List) int {
	t.Helper()
	all, allLists, none := Children(p, graphs, l, nil)
	if none != 0 {
		t.Fatalf("%v: keep == nil dropped %d children", p, none)
	}
	largest := 0
	for _, cl := range allLists {
		largest = max(largest, cl.SupportCount())
	}
	total := 0
	for _, k := range []int{1, 2, largest} {
		exts, lists, dropped := Children(p, graphs, l, func(support int) bool { return support >= k })
		var wantExts []Ext
		var wantLists []List
		for i, cl := range allLists {
			if cl.SupportCount() >= k {
				wantExts = append(wantExts, all[i])
				wantLists = append(wantLists, cl)
			}
		}
		if !slices.Equal(exts, wantExts) {
			t.Fatalf("%v, support ≥ %d: extensions %v, want %v", p, k, exts, wantExts)
		}
		if dropped != len(all)-len(wantExts) {
			t.Fatalf("%v, support ≥ %d: dropped %d, want %d", p, k, dropped, len(all)-len(wantExts))
		}
		for i := range lists {
			if !slices.EqualFunc(lists[i], wantLists[i], sameEmbedding) {
				t.Fatalf("%v + %+v, support ≥ %d: list %+v, want %+v", p, exts[i], k, lists[i], wantLists[i])
			}
		}
		total += dropped
	}
	return total
}

func TestChildrenKeepDropsBySupport(t *testing.T) {
	type corpus struct {
		name     string
		graphs   []*tgraph.Graph
		maxEdges int
	}
	var corpora []corpus
	for _, c := range childrenHandBuilt {
		g := buildGraph(t, c.labels, c.edges)
		corpora = append(corpora, corpus{c.name, []*tgraph.Graph{g, g}, 5})
	}
	for i, graphs := range childrenRandomCorpora() {
		corpora = append(corpora, corpus{fmt.Sprintf("random %d", i), graphs, 4})
	}
	for _, bd := range childrenSysgen().Behaviors {
		corpora = append(corpora, corpus{bd.Spec.Name, bd.Graphs, 2})
	}
	total := 0
	for _, c := range corpora {
		dropped := 0
		walkChildren(t, c.graphs, c.maxEdges, func(t *testing.T, graphs []*tgraph.Graph, p *tgraph.Pattern, l List) {
			dropped += checkChildrenKeep(t, graphs, p, l)
		})
		t.Logf("%s: %d children dropped", c.name, dropped)
		total += dropped
	}
	if total == 0 {
		t.Fatal("no filter dropped a child")
	}
}

// TestExtTableForgetsEarlierCalls checks that Children's bucket index starts
// every call empty, across table growth and the epoch counter's wraparound:
// each call inserts its keys in a new order, and every key must get a fresh
// ordinal, in insertion order, that lookup then finds.
func TestExtTableForgetsEarlierCalls(t *testing.T) {
	const n = 100 // several doublings past the initial table
	s := &extScratch{}
	for call := 0; call < 3; call++ {
		if call == 1 {
			s.epoch = math.MaxUint32 // this call wraps to epoch 1, the first call's
		}
		s.startTable()
		s.buckets = s.buckets[:0]
		for i := 0; i < n; i++ {
			x := Ext{Kind: tgraph.Forward, Src: 0, Dst: -1, NewLabel: tgraph.Label((i*7 + call*13) % n)}
			if b := s.bucketOf(x.key(), x); b != int32(i) {
				t.Fatalf("call %d (epoch %d): key %d got bucket %d, want %d", call, s.epoch, i, b, i)
			}
		}
		for i := 0; i < n; i++ {
			x := Ext{Kind: tgraph.Forward, Src: 0, Dst: -1, NewLabel: tgraph.Label((i*7 + call*13) % n)}
			if b := s.lookup(x.key()); b != int32(i) || s.buckets[b].ext != x {
				t.Fatalf("call %d: lookup of key %d gave bucket %d", call, i, b)
			}
		}
	}
}

// referenceSeeds is Seeds without its filters and packed keys: every edge
// of both sets is grouped under its SeedKey, and the seeds are the positive
// keys in (source, destination, plain before loop) order, each with every
// negative embedding under the same key.
func referenceSeeds(pos, neg []*tgraph.Graph) []Seed {
	group := func(graphs []*tgraph.Graph) map[SeedKey]List {
		m := map[SeedKey]List{}
		for gi, g := range graphs {
			for p, e := range g.Edges() {
				k := SeedKey{Src: g.LabelOf(e.Src), Dst: g.LabelOf(e.Dst), Loop: e.Src == e.Dst}
				nodes := []tgraph.NodeID{e.Src, e.Dst}
				if k.Loop {
					nodes = nodes[:1]
				}
				m[k] = append(m[k], Embedding{GraphID: int32(gi), LastPos: int32(p), Nodes: nodes})
			}
		}
		return m
	}
	posEmb, negEmb := group(pos), group(neg)
	var keys []SeedKey
	for k := range posEmb {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b SeedKey) int {
		switch {
		case a.Src != b.Src:
			return cmp.Compare(a.Src, b.Src)
		case a.Dst != b.Dst:
			return cmp.Compare(a.Dst, b.Dst)
		case a.Loop == b.Loop:
			return 0
		case b.Loop:
			return -1
		}
		return 1
	})
	out := make([]Seed, len(keys))
	for i, k := range keys {
		out[i] = Seed{Pattern: tgraph.SingleEdgePattern(k.Src, k.Dst, k.Loop), Pos: posEmb[k], Neg: negEmb[k]}
	}
	return out
}

func sameList(a, b List) bool {
	return slices.EqualFunc(a, b, func(x, y Embedding) bool {
		return x.GraphID == y.GraphID && x.LastPos == y.LastPos && slices.Equal(x.Nodes, y.Nodes)
	})
}

// TestSeedsMatchesReference pins Seeds to referenceSeeds on random graphs.
// Positive labels come from [0, 4) and negative ones from [0, 8), so the
// background holds labels no positive graph has, larger than any positive
// label; randomGraph draws self loops; every third case has no background.
func TestSeedsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		var pos, neg []*tgraph.Graph
		for i := 1 + rng.Intn(4); i > 0; i-- {
			pos = append(pos, randomGraph(rng, 2+rng.Intn(5), 1+rng.Intn(12), 4))
		}
		if trial%3 != 0 {
			for i := 1 + rng.Intn(6); i > 0; i-- {
				neg = append(neg, randomGraph(rng, 2+rng.Intn(6), 1+rng.Intn(16), 8))
			}
		}
		got, want := Seeds(pos, neg), referenceSeeds(pos, neg)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d seeds, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Pattern.Key() != want[i].Pattern.Key() {
				t.Fatalf("trial %d seed %d: pattern %s, want %s", trial, i, got[i].Pattern.Key(), want[i].Pattern.Key())
			}
			if !sameList(got[i].Pos, want[i].Pos) || !sameList(got[i].Neg, want[i].Neg) {
				t.Fatalf("trial %d seed %s: lists differ\npos %v\nwant %v\nneg %v\nwant %v", trial,
					want[i].Pattern.Key(), got[i].Pos, want[i].Pos, got[i].Neg, want[i].Neg)
			}
		}
	}
}

// checkSeedsKeep builds the seeds of one CountSeeds call under filters that
// keep every seed, some seeds (support ≥ 2, support equal to the largest)
// and none, and compares each with Seeds(pos, neg): a filtered Build must
// return exactly the unfiltered seeds whose positive support the filter
// accepts, with the same patterns, lists and order, and count the rest as
// dropped. The filters share one SeedCounts, as the miner's two steps do.
// It returns the seeds kept and dropped over all filters.
func checkSeedsKeep(t *testing.T, name string, pos, neg []*tgraph.Graph) (kept, dropped int) {
	t.Helper()
	all := Seeds(pos, neg)
	counts := CountSeeds(pos)
	top := counts.MaxSupport()
	for _, f := range []struct {
		name string
		keep func(support int) bool
	}{
		{"all", func(int) bool { return true }},
		{"support ≥ 2", func(c int) bool { return c >= 2 }},
		{"largest support", func(c int) bool { return c == top }},
		{"none", func(int) bool { return false }},
		{"nil", nil},
	} {
		got, gotDropped := counts.Build(neg, f.keep)
		var want []Seed
		for _, sd := range all {
			if f.keep == nil || f.keep(sd.Pos.SupportCount()) {
				want = append(want, sd)
			}
		}
		if len(got) != len(want) || gotDropped != len(all)-len(want) {
			t.Fatalf("%s, %s: %d seeds and %d dropped, want %d and %d", name, f.name, len(got), gotDropped, len(want), len(all)-len(want))
		}
		for i := range want {
			if got[i].Pattern.Key() != want[i].Pattern.Key() {
				t.Fatalf("%s, %s: seed %d is %s, want %s", name, f.name, i, got[i].Pattern.Key(), want[i].Pattern.Key())
			}
			if !sameList(got[i].Pos, want[i].Pos) || !sameList(got[i].Neg, want[i].Neg) {
				t.Fatalf("%s, %s: seed %s: lists differ\npos %v\nwant %v\nneg %v\nwant %v", name, f.name,
					want[i].Pattern.Key(), got[i].Pos, want[i].Pos, got[i].Neg, want[i].Neg)
			}
		}
		kept += len(got)
		dropped += gotDropped
	}
	return kept, dropped
}

// TestSeedsKeepDropsBySupport runs checkSeedsKeep on hand-built, random and
// sysgen corpora.
func TestSeedsKeepDropsBySupport(t *testing.T) {
	type corpus struct {
		name     string
		pos, neg []*tgraph.Graph
	}
	var corpora []corpus
	var hand []*tgraph.Graph
	for _, c := range childrenHandBuilt {
		hand = append(hand, buildGraph(t, c.labels, c.edges))
	}
	// The hand-built graphs share labels 0–2, so their seeds' supports
	// differ.
	corpora = append(corpora, corpus{"hand-built", hand, hand[1:]}, corpus{"hand-built, no background", hand, nil})
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 100; trial++ {
		var pos, neg []*tgraph.Graph
		for i := 1 + rng.Intn(5); i > 0; i-- {
			pos = append(pos, randomGraph(rng, 2+rng.Intn(5), 1+rng.Intn(12), 4))
		}
		if trial%3 != 0 {
			for i := 1 + rng.Intn(6); i > 0; i-- {
				neg = append(neg, randomGraph(rng, 2+rng.Intn(6), 1+rng.Intn(16), 8))
			}
		}
		corpora = append(corpora, corpus{fmt.Sprintf("random %d", trial), pos, neg})
	}
	ds := sysgen.Generate(sysgen.Config{
		Scale: 0.2, GraphsPerBehavior: 4, BackgroundGraphs: 6, Seed: 11,
		Behaviors: []string{"sshd-login", "apt-get-install"},
	})
	for _, bd := range ds.Behaviors {
		corpora = append(corpora, corpus{bd.Spec.Name, bd.Graphs, ds.Background})
	}
	kept, dropped := 0, 0
	for _, c := range corpora {
		k, d := checkSeedsKeep(t, c.name, c.pos, c.neg)
		kept += k
		dropped += d
	}
	t.Logf("%d corpora: %d seeds kept, %d dropped", len(corpora), kept, dropped)
	if dropped == 0 {
		t.Fatal("no filter dropped a seed")
	}
}

// TestExtKeyOrderMatchesCompare checks the invariant Extensions and
// Children sort by: on extensions as scan builds them (one of Src, Dst and
// NewLabel is -1, the rest non-negative), the numeric order of key() is
// compare's order, and key() is injective.
func TestExtKeyOrderMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// Small ranges force ties on leading fields; the large ones reach the
	// top bits of each packed half.
	node := func() tgraph.NodeID {
		if rng.Intn(4) == 0 {
			return tgraph.NodeID(rng.Int31n(1 << 30))
		}
		return tgraph.NodeID(rng.Intn(4))
	}
	label := func() tgraph.Label {
		if rng.Intn(4) == 0 {
			return tgraph.Label(rng.Int31())
		}
		return tgraph.Label(rng.Intn(4))
	}
	for trial := 0; trial < 500; trial++ {
		exts := make([]Ext, 1+rng.Intn(40))
		for i := range exts {
			switch kind := tgraph.GrowthKind(rng.Intn(3)); kind {
			case tgraph.Forward:
				exts[i] = Ext{Kind: kind, Src: node(), Dst: -1, NewLabel: label()}
			case tgraph.Backward:
				exts[i] = Ext{Kind: kind, Src: -1, Dst: node(), NewLabel: label()}
			default:
				exts[i] = Ext{Kind: kind, Src: node(), Dst: node(), NewLabel: -1}
			}
		}
		byKey := slices.Clone(exts)
		slices.SortFunc(byKey, func(a, b Ext) int { return cmp.Compare(a.key(), b.key()) })
		slices.SortFunc(exts, Ext.compare)
		if !slices.Equal(byKey, exts) {
			t.Fatalf("trial %d: key order %v, compare order %v", trial, byKey, exts)
		}
		for i := 1; i < len(exts); i++ {
			if (exts[i] == exts[i-1]) != (exts[i].key() == exts[i-1].key()) {
				t.Fatalf("trial %d: %v and %v: equal %v, equal keys %v", trial, exts[i-1], exts[i],
					exts[i] == exts[i-1], exts[i].key() == exts[i-1].key())
			}
		}
	}
}
