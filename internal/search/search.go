// Package search evaluates behavior queries against a large temporal graph,
// the query-processing substrate the TGMiner paper delegates to existing
// subgraph-matching techniques ([38], Section 6.1). Three query families are
// supported, matching the paper's three compared systems:
//
//   - temporal graph pattern queries (TGMiner): label- and order-preserving
//     embeddings found by indexed backtracking over the edge stream;
//   - non-temporal graph pattern queries (Ntemp): order-free embeddings of
//     collapsed patterns;
//   - label-set queries (NodeSet): minimal time windows containing a label
//     multiset.
//
// All three are bounded by a time window (the longest observed behavior
// duration, per the paper), and report matches as time intervals that the
// evaluation scores against ground truth with the paper's Section 6.2
// precision/recall semantics.
package search

import (
	"context"
	"slices"
	"sort"

	"tgminer/internal/gspan"
	"tgminer/internal/tgraph"
)

// Match is one identified instance: the time interval its matched edges
// span.
type Match struct {
	Start int64
	End   int64
}

// maxDensePairCells bounds the dense label-pair table at 16M cells (64MB of
// offsets); hosts with larger label alphabets fall back to a sorted sparse
// pair index with O(log pairs) lookup, which only runs once per query edge.
const maxDensePairCells = 1 << 24

// Engine holds the indexes for one host graph in flat CSR form: edge
// positions grouped by source node (out), destination node (in), and
// endpoint label pair (pair), each as one offsets slice into one positions
// slice. Build once with NewEngine, then run any number of queries. Engines
// are safe for concurrent queries; per-query scratch state is pooled.
type Engine struct {
	Queries

	g *tgraph.Graph

	outOff []int32 // node v's out positions: outPos[outOff[v]:outOff[v+1]]
	outPos []int32
	inOff  []int32 // node v's in positions: inPos[inOff[v]:inOff[v+1]]
	inPos  []int32

	// lblLocal remaps corpus-wide label IDs to a dense per-graph range so
	// the pair table is sized by distinct labels in this host, not by the
	// largest global label ID (a small graph carrying one high Dict ID must
	// not allocate a huge empty table). -1 marks labels absent here.
	lblLocal []int32
	numLocal int
	pairPos  []int32 // positions grouped by label pair, position order
	pairOff  []int32 // dense: local pair (s,d) at pairOff[s*numLocal+d : +1]
	pairKeys []int64 // sparse fallback: sorted local pair keys
	pairSpan [][2]int32

	// Merged-mode representation (engines built by mergeEngine, merge.go,
	// on the live compaction hot path). When outList is non-nil the engine
	// stores adjacency as per-node position slices instead of flat CSR:
	// untouched nodes share their list with the previous engine (for flat
	// ancestors, a zero-copy view into outPos/inPos), touched nodes carry
	// an owned, appendable copy. The pair index is the flat ancestor's
	// table plus a copy-on-write extension map holding every label pair
	// that has gained positions since the last full rebuild.
	outList  [][]int32
	inList   [][]int32
	outOwned []bool // outList[v] backing is owned by this merge chain
	inOwned  []bool
	flat     *Engine // last fully rebuilt (flat CSR) ancestor; nil when flat
	pairExt  map[pairKey]pairSeg

	// self is the engine seen as a live generation — this engine as the
	// base, no tail, nothing evicted — which is what its queries pin.
	self generation
}

// pairSeg is a merged engine's position list for one label pair: the flat
// ancestor's positions plus every extension since, with an ownership bit
// deciding whether the next merge may append in place.
type pairSeg struct {
	pos   []int32
	owned bool
}

// NewEngine indexes the host graph.
func NewEngine(g *tgraph.Graph) *Engine {
	e := &Engine{g: g}
	n := g.NumNodes()
	edges := g.Edges()

	// Out/in adjacency as CSR: count, prefix-sum, fill. Edge positions are
	// visited in increasing order, so each bucket ends up sorted.
	e.outOff = make([]int32, n+1)
	e.inOff = make([]int32, n+1)
	for _, ed := range edges {
		e.outOff[int(ed.Src)+1]++
		e.inOff[int(ed.Dst)+1]++
	}
	for v := 0; v < n; v++ {
		e.outOff[v+1] = addPos(e.outOff[v+1], e.outOff[v])
		e.inOff[v+1] = addPos(e.inOff[v+1], e.inOff[v])
	}
	e.outPos = make([]int32, len(edges))
	e.inPos = make([]int32, len(edges))
	outNext := append([]int32(nil), e.outOff[:n]...)
	inNext := append([]int32(nil), e.inOff[:n]...)
	for pos, ed := range edges {
		e.outPos[outNext[ed.Src]] = int32(pos)
		outNext[ed.Src]++
		e.inPos[inNext[ed.Dst]] = int32(pos)
		inNext[ed.Dst]++
	}

	maxLabel := tgraph.Label(-1)
	for _, l := range g.Labels() {
		if l > maxLabel {
			maxLabel = l
		}
	}
	e.lblLocal = make([]int32, int(maxLabel)+1)
	for i := range e.lblLocal {
		e.lblLocal[i] = -1
	}
	for _, l := range g.Labels() {
		if l >= 0 && e.lblLocal[l] == -1 {
			e.lblLocal[l] = int32(e.numLocal)
			e.numLocal++
		}
	}
	e.pairPos = make([]int32, len(edges))
	if cells := int64(e.numLocal) * int64(e.numLocal); cells <= maxDensePairCells {
		e.buildDensePairs(edges, int(cells))
	} else {
		e.buildSparsePairs(edges)
	}
	e.initHost()
	return e
}

// initHost makes a fully indexed engine queryable: a static engine is a
// one-view cut over the generation that has it as base and an empty tail.
func (e *Engine) initHost() {
	e.self = generation{base: e, baseEdges: pos32(e.g.NumEdges()), labels: e.g.Labels()}
	e.h = e
}

func (e *Engine) pin(c *cut) {
	c.views = append(c.views, genView{g: &e.self})
	c.labels = e.self.labels
}

func (e *Engine) buildDensePairs(edges []tgraph.Edge, cells int) {
	e.pairOff = make([]int32, cells+1)
	for _, ed := range edges {
		e.pairOff[e.pairCell(ed)+1]++
	}
	for c := 0; c < cells; c++ {
		e.pairOff[c+1] = addPos(e.pairOff[c+1], e.pairOff[c])
	}
	next := append([]int32(nil), e.pairOff[:cells]...)
	for pos, ed := range edges {
		c := e.pairCell(ed)
		e.pairPos[next[c]] = int32(pos)
		next[c]++
	}
}

func (e *Engine) buildSparsePairs(edges []tgraph.Edge) {
	keyed := make([]int64, len(edges))
	order := make([]int32, len(edges))
	for pos, ed := range edges {
		keyed[pos] = int64(e.pairCell(ed))
		order[pos] = int32(pos)
	}
	sort.SliceStable(order, func(i, j int) bool { return keyed[order[i]] < keyed[order[j]] })
	for i, pos := range order {
		e.pairPos[i] = pos
	}
	for i := 0; i < len(order); {
		k := keyed[order[i]]
		j := i
		for j < len(order) && keyed[order[j]] == k {
			j++
		}
		e.pairKeys = append(e.pairKeys, k)
		e.pairSpan = append(e.pairSpan, [2]int32{int32(i), int32(j)})
		i = j
	}
}

// pairCell maps a host edge's endpoint labels to its local pair cell. Host
// nodes always have valid local IDs.
func (e *Engine) pairCell(ed tgraph.Edge) int {
	s := e.lblLocal[e.g.LabelOf(ed.Src)]
	d := e.lblLocal[e.g.LabelOf(ed.Dst)]
	return int(s)*e.numLocal + int(d)
}

// pairPositions returns the edge positions whose endpoint labels are
// (src, dst), in increasing position order. Query labels absent from the
// host graph return nil.
func (e *Engine) pairPositions(src, dst tgraph.Label) []int32 {
	if e.flat != nil { // merged mode: extension map first, flat ancestor else
		if s, ok := e.pairExt[pairKey{src, dst}]; ok {
			return s.pos
		}
		return e.flat.pairPositions(src, dst)
	}
	if src < 0 || dst < 0 || int(src) >= len(e.lblLocal) || int(dst) >= len(e.lblLocal) {
		return nil
	}
	ls, ld := e.lblLocal[src], e.lblLocal[dst]
	if ls < 0 || ld < 0 {
		return nil
	}
	c := int(ls)*e.numLocal + int(ld)
	if e.pairOff != nil {
		return e.pairPos[e.pairOff[c]:e.pairOff[c+1]]
	}
	k := int64(c)
	i := sort.Search(len(e.pairKeys), func(i int) bool { return e.pairKeys[i] >= k })
	if i == len(e.pairKeys) || e.pairKeys[i] != k {
		return nil
	}
	return e.pairPos[e.pairSpan[i][0]:e.pairSpan[i][1]]
}

// outAt returns the positions of edges with node v as source.
func (e *Engine) outAt(v tgraph.NodeID) []int32 {
	if e.outList != nil {
		return e.outList[v]
	}
	return e.outPos[e.outOff[v]:e.outOff[int(v)+1]]
}

// inAt returns the positions of edges with node v as destination.
func (e *Engine) inAt(v tgraph.NodeID) []int32 {
	if e.inList != nil {
		return e.inList[v]
	}
	return e.inPos[e.inOff[v]:e.inOff[int(v)+1]]
}

// usedSet is an epoch-stamped node set: reset is O(1) (bump the epoch), and
// membership is one indexed load, replacing the per-query map[NodeID]bool
// the matcher loops used to probe.
type usedSet struct {
	stamp []uint32
	cur   uint32
}

// reset prepares the set for a host graph of n nodes and empties it.
func (u *usedSet) reset(n int) {
	if len(u.stamp) < n {
		u.stamp = make([]uint32, n)
		u.cur = 0
	}
	u.cur++
	if u.cur == 0 { // epoch wrapped: clear stamps and restart
		clear(u.stamp)
		u.cur = 1
	}
}

func (u *usedSet) has(v tgraph.NodeID) bool { return u.stamp[v] == u.cur }
func (u *usedSet) add(v tgraph.NodeID)      { u.stamp[v] = u.cur }
func (u *usedSet) remove(v tgraph.NodeID)   { u.stamp[v] = 0 }

// Graph returns the indexed host graph.
func (e *Engine) Graph() *tgraph.Graph { return e.g }

// Options bounds a query run.
type Options struct {
	// Window is the maximum time span of a match (0 = unbounded; the paper
	// uses the longest observed behavior duration).
	Window int64
	// Limit caps the number of distinct match intervals returned
	// (default 100000). Result.Truncated is exact: after the cap the
	// search runs on until it either completes one further distinct match
	// (Truncated=true) or exhausts (false) — use a context deadline, not
	// Limit, as a hard work bound.
	Limit int
	// Constraints attaches per-hop temporal constraints (gaps, start
	// windows, optional hops, bounded repetition) to TEMPORAL queries; nil
	// matches the plain order-preserving semantics. Non-temporal and
	// label-set queries ignore it. See Constraints and HopConstraint
	// (automaton.go).
	Constraints *Constraints
}

func (o Options) normalize() Options {
	if o.Limit <= 0 {
		o.Limit = 100000
	}
	return o
}

// Result is a query outcome: deduplicated match intervals in start order.
type Result struct {
	Matches   []Match
	Truncated bool
}

// ntRun is one non-temporal search over a cut: the collapsed pattern's
// edges are bound in a connected order, each to any unused host edge —
// before or after the ones already bound — whose endpoints fit and that
// keeps the match inside the window. Candidates at every level iterate in
// global time order; level 0, the root level, restricts to view rootView so
// that fan-out workers own disjoint roots, and records each root candidate's
// time in rootKey (the planner's merge key). The scratch's posUsed lists
// the host edges bound so far as shardPos keys; patterns are a handful of
// edges, so a linear scan beats any map or bitset.
type ntRun struct {
	runCore
	p          *gspan.Pattern
	opts       Options
	res        *resultSet
	order      []gspan.Edge
	rootView   int
	rootKey    int64
	minT, maxT int64
}

// newNTRun prepares a search of p under the roots view rootView owns, on a
// leased scratch; the caller supplies res and calls match(0).
func newNTRun(ctx context.Context, c *cut, s *scratch, rootView int, p *gspan.Pattern, opts Options) *ntRun {
	s.prepare(c, p.NumNodes(), p.NumEdges())
	s.posUsed = s.posUsed[:0]
	return &ntRun{runCore: newRunCore(ctx, c, s), p: p, opts: opts, order: connectedEdgeOrder(p), rootView: rootView}
}

// shardPos is the cross-view edge identity key: per-view position spaces
// overlap, so used-edge bookkeeping keys on (view, position).
func shardPos(shard int, pos int32) int64 {
	return int64(shard)<<32 | int64(uint32(pos))
}

func (r *ntRun) match(k int) {
	if r.stepCancelled() {
		return
	}
	if k == len(r.order) {
		r.res.add(Match{Start: r.minT, End: r.maxT})
		if r.res.full() {
			r.done = true
		}
		return
	}
	pe := r.order[k]
	ms, md := r.s.mapping[pe.Src], r.s.mapping[pe.Dst]
	srcLab, dstLab := r.p.Labels[pe.Src], r.p.Labels[pe.Dst]
	cs := r.c.candidates(r.s.cursors(k, len(r.c.views)), ms, md, srcLab, dstLab)
	root := k == 0
	if root { // nothing is bound yet, so cs holds every view's label-pair list
		cs = cs[r.rootView : r.rootView+1]
	}
	// Under a window no edge later than minT+Window-1 can fit, which
	// early-exits the time-ordered scan as the temporal guards' upper bound
	// does. (The matching lower bound is not worth a seek: index lists are
	// short next to the per-view time search a seek costs.)
	hi := int64(-1)
	if !root && r.opts.Window > 0 {
		hi = r.minT + r.opts.Window - 1
	}
	for i := range cs {
		cs[i].seek(-1)
	}
	for !r.done {
		i := minCursor(cs)
		if i < 0 || (root && r.rootCancelled()) {
			break
		}
		c := &cs[i]
		ge := c.edge
		if hi >= 0 && ge.Time > hi {
			break // merged order is global time order: nothing later fits
		}
		if root {
			r.rootKey = ge.Time
		}
		if md == -1 || ge.Dst == md {
			r.tryEdge(k, pe, ge, shardPos(c.shard, c.pos), srcLab, dstLab)
		}
		c.advance()
	}
}

// tryEdge attempts to bind pattern edge pe (the k-th in matching order) to
// host edge ge with identity key pos: the used-edge, self-loop-parity,
// label, and window-feasibility checks, then the recursion.
func (r *ntRun) tryEdge(k int, pe gspan.Edge, ge tgraph.Edge, pos int64, srcLab, dstLab tgraph.Label) {
	if slices.Contains(r.s.posUsed, pos) {
		return
	}
	if (pe.Src == pe.Dst) != (ge.Src == ge.Dst) {
		return
	}
	if r.c.labels[ge.Src] != srcLab || r.c.labels[ge.Dst] != dstLab {
		return
	}
	// Window feasibility.
	oMin, oMax := r.minT, r.maxT
	nMin, nMax := min(oMin, ge.Time), max(oMax, ge.Time)
	if k == 0 {
		nMin, nMax = ge.Time, ge.Time
	} else if r.opts.Window > 0 && nMax-nMin+1 > r.opts.Window {
		return
	}
	if bs, bd, ok := r.bind(pe.Src, pe.Dst, ge); ok {
		r.s.posUsed = append(r.s.posUsed, pos)
		r.minT, r.maxT = nMin, nMax
		r.match(k + 1)
		r.minT, r.maxT = oMin, oMax
		r.s.posUsed = r.s.posUsed[:len(r.s.posUsed)-1]
		r.unbind(pe.Src, pe.Dst, ge, bs, bd)
	}
}

// findNonTemporal schedules the non-temporal search over the pinned cut in
// s: a one-view cut searches inline on this goroutine, an N-view cut fans
// out (sharded.go). Either way the same ntRun.match does the work.
func findNonTemporal(ctx context.Context, s *scratch, p *gspan.Pattern, opts Options) (Result, error) {
	if len(s.views) > 1 {
		return fanOutNonTemporal(ctx, &s.cut, p, opts)
	}
	r := newNTRun(ctx, &s.cut, s, 0, p, opts)
	r.res = &resultSet{limit: opts.Limit}
	r.match(0)
	return r.res.finish(), r.ctxErr
}

// connectedEdgeOrder orders pattern edges so each edge (after the first)
// shares a node with an earlier edge; required for index-driven matching.
func connectedEdgeOrder(p *gspan.Pattern) []gspan.Edge {
	edges := append([]gspan.Edge(nil), p.E...)
	if len(edges) <= 1 {
		return edges
	}
	ordered := make([]gspan.Edge, 1, len(edges))
	ordered[0] = edges[0]
	rest := append([]gspan.Edge(nil), edges[1:]...)
	seen := map[tgraph.NodeID]bool{edges[0].Src: true, edges[0].Dst: true}
	for len(rest) > 0 {
		found := -1
		for i, e := range rest {
			if seen[e.Src] || seen[e.Dst] {
				found = i
				break
			}
		}
		if found == -1 {
			// Disconnected pattern: fall back to remaining order (the
			// index-free default branch handles it).
			ordered = append(ordered, rest...)
			break
		}
		e := rest[found]
		seen[e.Src] = true
		seen[e.Dst] = true
		ordered = append(ordered, e)
		rest = append(rest[:found], rest[found+1:]...)
	}
	return ordered
}

// resultSet deduplicates match intervals with a cap. It collects them, or —
// when emit is set, as a fan-out worker does — streams each new one to emit,
// whose false return halts the search.
type resultSet struct {
	limit     int
	seen      map[Match]struct{}
	matches   []Match
	emit      func(Match) bool
	count     int
	truncated bool
	halted    bool
}

func (r *resultSet) add(m Match) {
	// Duplicate check first (a lookup, so no state grows post-limit): a
	// duplicate of an already-returned interval is never evidence of
	// truncation, so a search whose distinct matches number exactly Limit
	// finishes with Truncated=false no matter how many duplicate
	// candidates arrive after the cap.
	if r.seen != nil {
		if _, dup := r.seen[m]; dup {
			return
		}
	}
	if r.count >= r.limit {
		// A distinct match beyond the cap: genuinely truncated.
		r.truncated = true
		return
	}
	if r.seen == nil {
		r.seen = make(map[Match]struct{})
	}
	r.seen[m] = struct{}{}
	r.count++
	if r.emit == nil {
		r.matches = append(r.matches, m)
	} else if !r.emit(m) {
		r.halted = true
	}
}

// full reports whether the search should stop: once emit asked to, or once
// a distinct over-the-cap match has proven truncation (the search runs on
// at the cap so duplicates cannot masquerade as truncation).
func (r *resultSet) full() bool { return r.truncated || r.halted }

func (r *resultSet) finish() Result {
	sortMatches(r.matches)
	return Result{Matches: r.matches, Truncated: r.truncated}
}

// Union merges match sets, deduplicating intervals — the paper evaluates the
// union of its top-5 queries per behavior.
func Union(results ...Result) Result {
	rs := &resultSet{limit: 1 << 30}
	trunc := false
	for _, r := range results {
		trunc = trunc || r.Truncated
		for _, m := range r.Matches {
			rs.add(m)
		}
	}
	out := rs.finish()
	out.Truncated = trunc
	return out
}
