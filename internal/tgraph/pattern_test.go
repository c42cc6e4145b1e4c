package tgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleEdgePattern(t *testing.T) {
	p := SingleEdgePattern(3, 5, false)
	if p.NumNodes() != 2 || p.NumEdges() != 1 {
		t.Fatalf("got V=%d E=%d, want 2,1", p.NumNodes(), p.NumEdges())
	}
	if p.LabelOf(0) != 3 || p.LabelOf(1) != 5 {
		t.Errorf("labels = %d,%d want 3,5", p.LabelOf(0), p.LabelOf(1))
	}
	loop := SingleEdgePattern(3, 3, true)
	if loop.NumNodes() != 1 || loop.NumEdges() != 1 {
		t.Fatalf("self loop got V=%d E=%d, want 1,1", loop.NumNodes(), loop.NumEdges())
	}
}

func TestNewPatternValidates(t *testing.T) {
	if _, err := NewPattern([]Label{0}, []PEdge{{Src: 0, Dst: 3}}); err == nil {
		t.Errorf("NewPattern with bad edge succeeded")
	}
	p, err := NewPattern([]Label{0, 1}, []PEdge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatalf("NewPattern: %v", err)
	}
	if p.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", p.NumEdges())
	}
}

func TestGrowthOptions(t *testing.T) {
	p := SingleEdgePattern(0, 1, false) // A -> B
	f := p.GrowForward(1, 2)            // B -> new C
	if f.NumNodes() != 3 || f.NumEdges() != 2 {
		t.Fatalf("forward: V=%d E=%d", f.NumNodes(), f.NumEdges())
	}
	if got := f.EdgeAt(1); got.Src != 1 || got.Dst != 2 {
		t.Errorf("forward edge = %v", got)
	}
	b := p.GrowBackward(3, 0) // new D -> A
	if got := b.EdgeAt(1); got.Src != 2 || got.Dst != 0 {
		t.Errorf("backward edge = %v", got)
	}
	if b.LabelOf(2) != 3 {
		t.Errorf("backward new node label = %d, want 3", b.LabelOf(2))
	}
	in := p.GrowInward(1, 0) // B -> A (multi-direction pair)
	if in.NumNodes() != 2 || in.NumEdges() != 2 {
		t.Fatalf("inward: V=%d E=%d", in.NumNodes(), in.NumEdges())
	}
	// Original is unchanged.
	if p.NumEdges() != 1 || p.NumNodes() != 2 {
		t.Errorf("growth mutated receiver: V=%d E=%d", p.NumNodes(), p.NumEdges())
	}
}

func TestGrowthImmutabilityInward(t *testing.T) {
	// GrowInward shares the label slice; ensure an inward-then-forward chain
	// does not alias into the parent's edges.
	p := SingleEdgePattern(0, 1, false)
	in := p.GrowInward(0, 1)
	fw := in.GrowForward(1, 9)
	if in.NumEdges() != 2 {
		t.Errorf("inward child changed: E=%d", in.NumEdges())
	}
	if fw.NumEdges() != 3 || fw.LabelOf(2) != 9 {
		t.Errorf("grandchild wrong: E=%d", fw.NumEdges())
	}
}

func TestPatternEqualPermutedNodeIDs(t *testing.T) {
	// Same pattern, different internal node numbering.
	p, _ := NewPattern([]Label{0, 1, 2}, []PEdge{{0, 1}, {1, 2}, {0, 2}})
	q, _ := NewPattern([]Label{2, 0, 1}, []PEdge{{1, 2}, {2, 0}, {1, 0}})
	if !p.Equal(q) {
		t.Errorf("permuted-equal patterns reported unequal")
	}
	if p.Key() != q.Key() {
		t.Errorf("permuted-equal patterns have different keys")
	}
}

func TestPatternUnequalByOrder(t *testing.T) {
	// Same topology, different temporal order of edges -> unequal.
	p, _ := NewPattern([]Label{0, 1, 2}, []PEdge{{0, 1}, {1, 2}})
	q, _ := NewPattern([]Label{0, 1, 2}, []PEdge{{1, 2}, {0, 1}})
	if p.Equal(q) {
		t.Errorf("temporally distinct patterns reported equal")
	}
	if p.Key() == q.Key() {
		t.Errorf("temporally distinct patterns share key")
	}
}

func TestPatternUnequalByLabel(t *testing.T) {
	p, _ := NewPattern([]Label{0, 1}, []PEdge{{0, 1}})
	q, _ := NewPattern([]Label{0, 2}, []PEdge{{0, 1}})
	if p.Equal(q) {
		t.Errorf("label-distinct patterns reported equal")
	}
}

func TestPatternEqualSelfLoopVsEdge(t *testing.T) {
	loop := SingleEdgePattern(0, 0, true)
	edge := SingleEdgePattern(0, 0, false)
	if loop.Equal(edge) {
		t.Errorf("self-loop equals two-node edge")
	}
	if loop.Key() == edge.Key() {
		t.Errorf("self-loop key equals two-node edge key")
	}
}

func TestPatternEqualReflexiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomTConnectedPattern(rng, 10, 3)
		return p.Equal(p) && p.Key() == p.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// permutePattern renumbers nodes with a random permutation; the result
// matches the original (=t).
func permutePattern(rng *rand.Rand, p *Pattern) *Pattern {
	n := p.NumNodes()
	perm := rng.Perm(n)
	labels := make([]Label, n)
	for v := 0; v < n; v++ {
		labels[perm[v]] = p.LabelOf(NodeID(v))
	}
	edges := make([]PEdge, p.NumEdges())
	for i, e := range p.Edges() {
		edges[i] = PEdge{Src: NodeID(perm[e.Src]), Dst: NodeID(perm[e.Dst])}
	}
	q, err := NewPattern(labels, edges)
	if err != nil {
		panic(err)
	}
	return q
}

func TestPatternEqualUnderPermutationQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomTConnectedPattern(rng, 10, 3)
		q := permutePattern(rng, p)
		return p.Equal(q) && q.Equal(p) && p.Key() == q.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKeyDistinguishesDifferentPatternsQuick(t *testing.T) {
	// Two independently random patterns that have equal keys must be Equal.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomTConnectedPattern(rng, 6, 2)
		q := randomTConnectedPattern(rng, 6, 2)
		if p.Key() == q.Key() {
			return p.Equal(q)
		}
		return !p.Equal(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAsGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		p := randomTConnectedPattern(rng, 8, 3)
		g := p.AsGraph()
		q := PatternFromGraph(g)
		if !p.Equal(q) {
			t.Fatalf("AsGraph/PatternFromGraph round trip mismatch:\n p=%v\n q=%v", p, q)
		}
	}
}

func TestGrowthKindString(t *testing.T) {
	if Forward.String() != "forward" || Backward.String() != "backward" || Inward.String() != "inward" {
		t.Errorf("GrowthKind strings wrong: %s %s %s", Forward, Backward, Inward)
	}
}

func TestPatternFormat(t *testing.T) {
	d := NewDict()
	a, b := d.Intern("sshd"), d.Intern("bash")
	p := SingleEdgePattern(a, b, false)
	got := p.Format(d)
	want := "[t=1] sshd(#0) -> bash(#1)"
	if got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}
