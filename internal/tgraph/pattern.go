package tgraph

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// PEdge is a pattern edge. The timestamp is implicit: the edge at slice
// position i has timestamp i+1, so a Pattern always satisfies the paper's
// alignment requirement (timestamps exactly 1..|E|).
type PEdge struct {
	Src NodeID
	Dst NodeID
}

// Pattern is a temporal graph pattern: a node-labeled temporal graph whose
// edge timestamps are 1..|E| in slice order. Patterns grown by consecutive
// growth number their nodes in first-visit order, which makes the byte form
// produced by Key canonical (Lemma 1: the match between equal patterns is
// unique, so first-visit numbering is unambiguous).
type Pattern struct {
	labels []Label
	edges  []PEdge
}

// NewPattern constructs a pattern from explicit node labels and edges in
// timestamp order. It copies both slices.
func NewPattern(labels []Label, edges []PEdge) (*Pattern, error) {
	p := &Pattern{
		labels: append([]Label(nil), labels...),
		edges:  append([]PEdge(nil), edges...),
	}
	n := NodeID(len(labels))
	for i, e := range p.edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return nil, fmt.Errorf("tgraph: pattern edge %d (%d->%d) references unknown node", i+1, e.Src, e.Dst)
		}
	}
	return p, nil
}

// SingleEdgePattern returns the one-edge pattern srcLabel -> dstLabel. The
// two endpoints are distinct nodes unless selfLoop is true.
func SingleEdgePattern(srcLabel, dstLabel Label, selfLoop bool) *Pattern {
	if selfLoop {
		return &Pattern{labels: []Label{srcLabel}, edges: []PEdge{{Src: 0, Dst: 0}}}
	}
	return &Pattern{labels: []Label{srcLabel, dstLabel}, edges: []PEdge{{Src: 0, Dst: 1}}}
}

// NumNodes reports |V|.
func (p *Pattern) NumNodes() int { return len(p.labels) }

// NumEdges reports |E|.
func (p *Pattern) NumEdges() int { return len(p.edges) }

// LabelOf returns the label of pattern node v.
func (p *Pattern) LabelOf(v NodeID) Label { return p.labels[v] }

// Labels returns the node labels indexed by NodeID. The returned slice must
// not be modified.
func (p *Pattern) Labels() []Label { return p.labels }

// EdgeAt returns the edge with timestamp pos+1.
func (p *Pattern) EdgeAt(pos int) PEdge { return p.edges[pos] }

// Edges returns edges in timestamp order. The returned slice must not be
// modified.
func (p *Pattern) Edges() []PEdge { return p.edges }

// IsTConnected reports whether every prefix of the pattern's edge sequence
// forms a connected graph (ignoring direction).
func (p *Pattern) IsTConnected() bool {
	return isTConnected(len(p.labels), func(i int) (NodeID, NodeID) {
		e := p.edges[i]
		return e.Src, e.Dst
	}, len(p.edges))
}

// GrowthKind classifies a consecutive-growth step (Section 3.2).
type GrowthKind uint8

const (
	// Forward growth attaches a new destination node to an existing source.
	Forward GrowthKind = iota
	// Backward growth attaches a new source node to an existing destination.
	Backward
	// Inward growth adds an edge between two existing nodes (multi-edges and
	// self-loops between visited nodes included).
	Inward
)

func (k GrowthKind) String() string {
	switch k {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	case Inward:
		return "inward"
	default:
		return fmt.Sprintf("GrowthKind(%d)", uint8(k))
	}
}

// GrowForward returns a new pattern extending p with edge (src, new node
// labeled dstLabel) at timestamp |E|+1. p is not modified.
func (p *Pattern) GrowForward(src NodeID, dstLabel Label) *Pattern {
	labels := make([]Label, len(p.labels)+1)
	copy(labels, p.labels)
	labels[len(p.labels)] = dstLabel
	edges := make([]PEdge, len(p.edges)+1)
	copy(edges, p.edges)
	edges[len(p.edges)] = PEdge{Src: src, Dst: NodeID(len(p.labels))}
	return &Pattern{labels: labels, edges: edges}
}

// GrowBackward returns a new pattern extending p with edge (new node labeled
// srcLabel, dst) at timestamp |E|+1. p is not modified.
func (p *Pattern) GrowBackward(srcLabel Label, dst NodeID) *Pattern {
	labels := make([]Label, len(p.labels)+1)
	copy(labels, p.labels)
	labels[len(p.labels)] = srcLabel
	edges := make([]PEdge, len(p.edges)+1)
	copy(edges, p.edges)
	edges[len(p.edges)] = PEdge{Src: NodeID(len(p.labels)), Dst: dst}
	return &Pattern{labels: labels, edges: edges}
}

// GrowInward returns a new pattern extending p with edge (src, dst) between
// existing nodes at timestamp |E|+1. p is not modified.
func (p *Pattern) GrowInward(src, dst NodeID) *Pattern {
	edges := make([]PEdge, len(p.edges)+1)
	copy(edges, p.edges)
	edges[len(p.edges)] = PEdge{Src: src, Dst: dst}
	return &Pattern{labels: p.labels, edges: edges}
}

// Equal implements the linear-time pattern match test of Lemma 2: two
// patterns match (p =t q) iff the timestamp-aligned edge walk induces a
// consistent label-preserving bijection on nodes.
func (p *Pattern) Equal(q *Pattern) bool {
	if len(p.labels) != len(q.labels) || len(p.edges) != len(q.edges) {
		return false
	}
	fwd := make([]NodeID, len(p.labels)) // p node -> q node, -1 unset
	rev := make([]NodeID, len(q.labels)) // q node -> p node, -1 unset
	for i := range fwd {
		fwd[i] = -1
	}
	for i := range rev {
		rev[i] = -1
	}
	bind := func(a, b NodeID) bool {
		if p.labels[a] != q.labels[b] {
			return false
		}
		if fwd[a] == -1 && rev[b] == -1 {
			fwd[a] = b
			rev[b] = a
			return true
		}
		return fwd[a] == b && rev[b] == a
	}
	for i := range p.edges {
		pe, qe := p.edges[i], q.edges[i]
		if !bind(pe.Src, qe.Src) || !bind(pe.Dst, qe.Dst) {
			return false
		}
	}
	// Every node participates in an edge for patterns built by consecutive
	// growth; isolated nodes (possible via NewPattern) must agree in count,
	// which the length check above ensures, and in label multiset.
	if len(p.edges) == 0 {
		return labelMultisetEqual(p.labels, q.labels)
	}
	for _, m := range fwd {
		if m == -1 {
			// Isolated node in p: require q to also have an unmatched node of
			// the same label. Rare path; fall back to multiset comparison of
			// unmatched labels.
			return unmatchedLabelsEqual(p, q, fwd, rev)
		}
	}
	for _, m := range rev {
		if m == -1 {
			return unmatchedLabelsEqual(p, q, fwd, rev)
		}
	}
	return true
}

func labelMultisetEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[Label]int, len(a))
	for _, l := range a {
		count[l]++
	}
	for _, l := range b {
		count[l]--
		if count[l] < 0 {
			return false
		}
	}
	return true
}

func unmatchedLabelsEqual(p, q *Pattern, fwd, rev []NodeID) bool {
	var pa, qa []Label
	for v, m := range fwd {
		if m == -1 {
			pa = append(pa, p.labels[v])
		}
	}
	for v, m := range rev {
		if m == -1 {
			qa = append(qa, q.labels[v])
		}
	}
	return labelMultisetEqual(pa, qa)
}

// Key returns a canonical byte-string identity for the pattern. Node IDs are
// renumbered by first appearance in the timestamp-ordered edge walk (source
// before destination within an edge), which by Lemma 1 is unique for
// matching patterns, so p.Equal(q) iff p.Key() == q.Key() for patterns
// without isolated nodes.
func (p *Pattern) Key() string {
	renum := make([]NodeID, len(p.labels))
	for i := range renum {
		renum[i] = -1
	}
	order := make([]NodeID, 0, len(p.labels))
	visit := func(v NodeID) NodeID {
		if renum[v] == -1 {
			renum[v] = NodeID(len(order))
			order = append(order, v)
		}
		return renum[v]
	}
	var buf []byte
	var tmp [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(tmp[:], uint32(x))
		buf = append(buf, tmp[:]...)
	}
	for _, e := range p.edges {
		put(int32(visit(e.Src)))
		put(int32(visit(e.Dst)))
	}
	for _, v := range order {
		put(int32(p.labels[v]))
	}
	// Isolated nodes (not reachable from edges) are appended as a sorted
	// label multiset so Key stays canonical for NewPattern-built inputs.
	var iso []Label
	for v := range renum {
		if renum[v] == -1 {
			iso = append(iso, p.labels[v])
		}
	}
	if len(iso) > 0 {
		sortLabels(iso)
		buf = append(buf, 0xFF)
		for _, l := range iso {
			put(int32(l))
		}
	}
	return string(buf)
}

func sortLabels(ls []Label) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j] < ls[j-1]; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

// AsGraph converts the pattern to a Graph whose edge timestamps are 1..|E|.
// Useful for running data-graph algorithms on patterns.
func (p *Pattern) AsGraph() *Graph {
	var b Builder
	for _, l := range p.labels {
		b.AddNode(l)
	}
	for i, e := range p.edges {
		// Errors are impossible: nodes exist and timestamps are distinct.
		if err := b.AddEdge(e.Src, e.Dst, int64(i+1)); err != nil {
			panic(err)
		}
	}
	g, err := b.Finalize()
	if err != nil {
		panic(err)
	}
	return g
}

// PatternFromGraph reinterprets a temporal graph as a pattern by aligning
// its timestamps to 1..|E| (only the total order is kept).
func PatternFromGraph(g *Graph) *Pattern {
	edges := make([]PEdge, g.NumEdges())
	for i, e := range g.Edges() {
		edges[i] = PEdge{Src: e.Src, Dst: e.Dst}
	}
	return &Pattern{labels: append([]Label(nil), g.Labels()...), edges: edges}
}

// String renders the pattern in a compact debugging form.
func (p *Pattern) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pattern{V=%d E=%d;", len(p.labels), len(p.edges))
	for i, e := range p.edges {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, " %d(%d)->%d(%d)", e.Src, p.labels[e.Src], e.Dst, p.labels[e.Dst])
	}
	sb.WriteByte('}')
	return sb.String()
}

// Format renders the pattern with human-readable labels from dict.
func (p *Pattern) Format(dict *Dict) string {
	var sb strings.Builder
	for i, e := range p.edges {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "[t=%d] %s(#%d) -> %s(#%d)", i+1, dict.Name(p.labels[e.Src]), e.Src, dict.Name(p.labels[e.Dst]), e.Dst)
	}
	return sb.String()
}
