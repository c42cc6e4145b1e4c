// Package gspan implements discriminative non-temporal graph pattern
// mining, the Ntemp baseline of the TGMiner paper (Section 6.1): temporal
// information is discarded, multi-edges are collapsed, and discriminative
// patterns are mined over the resulting directed node-labeled simple graphs
// in the style of gSpan/GAIA [11, 31].
//
// Pattern enumeration is embedding-driven (like gSpan's rightmost-path
// growth, every connected pattern reachable by one-edge extensions is
// visited) with duplicate candidates eliminated by isomorphism checks under
// an invariant hash — the bookkeeping role canonical DFS codes play in
// gSpan. The paper's argument that non-temporal mining both loses precision
// (Table 2) and cannot exploit temporal pruning applies unchanged.
package gspan

import (
	"sort"

	"tgminer/internal/tgraph"
)

// Edge is a directed edge of a non-temporal graph or pattern.
type Edge struct {
	Src tgraph.NodeID
	Dst tgraph.NodeID
}

// Graph is a directed node-labeled simple graph (no multi-edges; self-loops
// allowed, at most one per node).
type Graph struct {
	labels []tgraph.Label
	edges  []Edge
	out    map[tgraph.NodeID][]tgraph.NodeID
	in     map[tgraph.NodeID][]tgraph.NodeID
	hasEdg map[[2]tgraph.NodeID]bool
}

// FromTemporal collapses a temporal graph: timestamps are dropped and
// parallel edges (same source and destination) merge into one.
func FromTemporal(g *tgraph.Graph) *Graph {
	labels := append([]tgraph.Label(nil), g.Labels()...)
	seen := make(map[[2]tgraph.NodeID]bool, g.NumEdges())
	edges := make([]Edge, 0, g.NumEdges())
	for _, e := range g.Edges() {
		k := [2]tgraph.NodeID{e.Src, e.Dst}
		if seen[k] {
			continue
		}
		seen[k] = true
		edges = append(edges, Edge{Src: e.Src, Dst: e.Dst})
	}
	return newGraph(labels, edges)
}

func newGraph(labels []tgraph.Label, edges []Edge) *Graph {
	g := &Graph{
		labels: labels,
		edges:  edges,
		out:    make(map[tgraph.NodeID][]tgraph.NodeID),
		in:     make(map[tgraph.NodeID][]tgraph.NodeID),
		hasEdg: make(map[[2]tgraph.NodeID]bool, len(edges)),
	}
	for _, e := range edges {
		g.out[e.Src] = append(g.out[e.Src], e.Dst)
		g.in[e.Dst] = append(g.in[e.Dst], e.Src)
		g.hasEdg[[2]tgraph.NodeID{e.Src, e.Dst}] = true
	}
	return g
}

// NumNodes reports |V|.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges reports |E| after collapsing.
func (g *Graph) NumEdges() int { return len(g.edges) }

// LabelOf returns node v's label.
func (g *Graph) LabelOf(v tgraph.NodeID) tgraph.Label { return g.labels[v] }

// Edges lists the collapsed edges. The slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Out lists successors of v. The slice must not be modified.
func (g *Graph) Out(v tgraph.NodeID) []tgraph.NodeID { return g.out[v] }

// In lists predecessors of v. The slice must not be modified.
func (g *Graph) In(v tgraph.NodeID) []tgraph.NodeID { return g.in[v] }

// HasEdge reports whether edge (u, v) exists.
func (g *Graph) HasEdge(u, v tgraph.NodeID) bool {
	return g.hasEdg[[2]tgraph.NodeID{u, v}]
}

// Pattern is a small connected directed labeled simple graph.
type Pattern struct {
	Labels []tgraph.Label
	E      []Edge
}

// PatternFromTemporal collapses a temporal graph into an order-free
// pattern: timestamps are dropped and parallel edges merge. The Ntemp
// counterpart of tgraph.PatternFromGraph, for authoring non-temporal
// queries by hand.
func PatternFromTemporal(g *tgraph.Graph) *Pattern {
	seen := make(map[[2]tgraph.NodeID]bool, g.NumEdges())
	es := make([]Edge, 0, g.NumEdges())
	for _, e := range g.Edges() {
		k := [2]tgraph.NodeID{e.Src, e.Dst}
		if seen[k] {
			continue
		}
		seen[k] = true
		es = append(es, Edge{Src: e.Src, Dst: e.Dst})
	}
	return &Pattern{Labels: append([]tgraph.Label(nil), g.Labels()...), E: es}
}

// NumNodes reports |V|.
func (p *Pattern) NumNodes() int { return len(p.Labels) }

// NumEdges reports |E|.
func (p *Pattern) NumEdges() int { return len(p.E) }

// HasEdge reports whether the pattern contains edge (a, b).
func (p *Pattern) HasEdge(a, b tgraph.NodeID) bool {
	for _, e := range p.E {
		if e.Src == a && e.Dst == b {
			return true
		}
	}
	return false
}

// invariant returns an isomorphism-invariant string for bucketing: sorted
// node (label,outdeg,indeg) triples plus sorted edge label pairs.
func (p *Pattern) invariant() string {
	out := make([]int, p.NumNodes())
	in := make([]int, p.NumNodes())
	for _, e := range p.E {
		out[e.Src]++
		in[e.Dst]++
	}
	nodes := make([][3]int, p.NumNodes())
	for v := range nodes {
		nodes[v] = [3]int{int(p.Labels[v]), out[v], in[v]}
	}
	sort.Slice(nodes, func(i, j int) bool {
		for k := 0; k < 3; k++ {
			if nodes[i][k] != nodes[j][k] {
				return nodes[i][k] < nodes[j][k]
			}
		}
		return false
	})
	pairs := make([][2]int, len(p.E))
	for i, e := range p.E {
		pairs[i] = [2]int{int(p.Labels[e.Src]), int(p.Labels[e.Dst])}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	buf := make([]byte, 0, 8*(len(nodes)+len(pairs)))
	enc := func(x int) {
		buf = append(buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	for _, n := range nodes {
		enc(n[0])
		enc(n[1])
		enc(n[2])
	}
	buf = append(buf, 0xFE)
	for _, pr := range pairs {
		enc(pr[0])
		enc(pr[1])
	}
	return string(buf)
}

// Isomorphic reports whether p and q are isomorphic directed labeled
// graphs. Intended for small patterns (≤ ~12 nodes); backtracking with
// label and degree pruning.
func (p *Pattern) Isomorphic(q *Pattern) bool {
	if p.NumNodes() != q.NumNodes() || p.NumEdges() != q.NumEdges() {
		return false
	}
	n := p.NumNodes()
	pOut, pIn := degreeVectors(p)
	qOut, qIn := degreeVectors(q)
	mapping := make([]tgraph.NodeID, n)
	used := make([]bool, n)
	for i := range mapping {
		mapping[i] = -1
	}
	var match func(v int) bool
	match = func(v int) bool {
		if v == n {
			return true
		}
		for u := 0; u < n; u++ {
			if used[u] || p.Labels[v] != q.Labels[u] || pOut[v] != qOut[u] || pIn[v] != qIn[u] {
				continue
			}
			// Check edges between v and already-mapped nodes.
			ok := true
			for w := 0; w < v; w++ {
				if p.hasEdgeFast(tgraph.NodeID(v), tgraph.NodeID(w)) != q.HasEdge(tgraph.NodeID(u), mapping[w]) ||
					p.hasEdgeFast(tgraph.NodeID(w), tgraph.NodeID(v)) != q.HasEdge(mapping[w], tgraph.NodeID(u)) {
					ok = false
					break
				}
			}
			if ok && p.hasEdgeFast(tgraph.NodeID(v), tgraph.NodeID(v)) != q.HasEdge(tgraph.NodeID(u), tgraph.NodeID(u)) {
				ok = false
			}
			if !ok {
				continue
			}
			mapping[v] = tgraph.NodeID(u)
			used[u] = true
			if match(v + 1) {
				return true
			}
			mapping[v] = -1
			used[u] = false
		}
		return false
	}
	return match(0)
}

func (p *Pattern) hasEdgeFast(a, b tgraph.NodeID) bool { return p.HasEdge(a, b) }

func degreeVectors(p *Pattern) (out, in []int) {
	out = make([]int, p.NumNodes())
	in = make([]int, p.NumNodes())
	for _, e := range p.E {
		out[e.Src]++
		in[e.Dst]++
	}
	return out, in
}
