package search

// This file implements incremental (non-rebuilding) compaction for the Live
// engine: the tail is already time-sorted, every tail position exceeds every
// base position, and the tail posLists are already per-node and
// per-label-pair position indexes in position order — so folding the tail
// into the base is a pure segment-append merge, not a rebuild. mergeGen
// extends the existing Engine's storage instead of calling
// NewEngine(buildGraph()):
//
//   - the edge array and node labels extend via tgraph.ExtendSorted
//     (amortized in-place append on the chain tip, no re-sort);
//   - each touched per-node out/in position list extends with its tail
//     posList contents; untouched nodes share their list with the previous
//     engine by reference (for flat ancestors, a zero-copy CSR view);
//   - each touched label pair's position list extends likewise in a
//     copy-on-write extension map consulted before the flat ancestor.
//
// Cost is O(tail + touched lists + nodes + extended pairs) — the last two
// terms are the outer per-node array copies and the pairExt map clone,
// both bounded relative to the tail by the auto-compaction eligibility
// guard in Append — versus O((base+tail) log(base+tail)) for the rebuild,
// so compaction cost scales with the tail, not the base
// (BenchmarkLiveCompact; tgbench's search.compact_ms).
//
// Eviction: the merge CARRIES the floor into the merged generation rather
// than rebasing positions — evicted edges stay in the arrays and queries
// keep skipping them in O(log) via the floor, exactly as before the
// compaction. Space is reclaimed by falling back to a full rebuild (which
// drops the dead prefix and rebases the floor to 0) once the dead prefix
// reaches half of the edge array, bounding retained memory at 2x the live
// set while keeping the common sliding-window compaction O(tail). The
// rebuilt-vs-merged equivalence across eviction/AddNode interleavings is
// pinned by TestLiveMergeMatchesRebuild and the differential property
// tests.
//
// Safety under lock-free readers follows the package's append-only
// discipline: a merge writes only (a) freshly allocated arrays, or (b)
// slots strictly beyond every published length of an owned backing array.
// Ownership is tracked per list (outOwned/inOwned/pairSeg.owned): lists
// still viewed from a flat ancestor's CSR are never appended in place
// (their spare capacity belongs to the next CSR bucket). The writer mutex
// plus publish-immediately makes engine lineages linear, so each engine is
// merge-extended at most once and no slot is ever written twice.

import (
	"tgminer/internal/tgraph"
)

// canMerge reports whether a view is eligible for incremental
// merge-compaction: it has a base to extend and its dead (evicted) prefix
// is still below half of the edge array, the threshold past which
// compaction rebuilds to reclaim the space.
func canMerge(v genView) bool {
	return v.g.base != nil && 2*int64(v.g.floor) < int64(v.end())
}

// newTailLists allocates n fresh posLists in one slab.
func newTailLists(n int) ([]*posList, []*posList) {
	slab := make([]posList, 2*n)
	out := make([]*posList, n)
	in := make([]*posList, n)
	for i := 0; i < n; i++ {
		out[i] = &slab[i]
		in[i] = &slab[n+i]
	}
	return out, in
}

// extendPositions returns list extended with ext. When owned, the append
// may write in place into the list's spare capacity (beyond every published
// length — safe under concurrent readers); otherwise the list is copied
// first with geometric headroom so future merges amortize.
func extendPositions(list, ext []int32, owned bool) []int32 {
	if !owned {
		need := len(list) + len(ext)
		fresh := make([]int32, 0, need+need/2+4)
		list = append(fresh, list...)
	}
	return append(list, ext...)
}

// mergeGen builds the post-compaction generation by extending the base
// engine with the tail segment. Caller must hold the writer mutex and have
// checked canMerge; the view must be writer-exact. The merged generation
// keeps the floor (see the file comment for the eviction contract) and
// fresh, empty tail storage sized for the next cycle.
func mergeGen(v genView) *generation {
	g := v.g
	base := mergeEngine(v)
	ng := &generation{
		base:      base,
		baseEdges: int32(base.g.NumEdges()),
		floor:     g.floor,
		labels:    g.labels,
		tailArr:   newTailArr(len(v.tail)),
		tailN:     freshCounter(0),
		pair:      make(map[pairKey]*posList),
		lastTime:  v.lastTime(),

		compactions:     g.compactions + 1,
		merges:          g.merges + 1,
		lastCompactTail: len(v.tail),
	}
	ng.tailOut, ng.tailIn = newTailLists(len(g.labels))
	return ng
}

// mergeEngine extends a view's base Engine with its tail: the incremental
// constructor the compaction hot path uses instead of
// NewEngine(buildGraph()). The view must be writer-exact.
func mergeEngine(v genView) *Engine {
	g := v.g
	base := g.base
	bn := base.g.NumNodes()
	n := len(g.labels)
	graph, err := base.g.ExtendSorted(g.labels[bn:], v.tail)
	if err != nil {
		// Unreachable: Append enforces node bounds and the strict total
		// order ExtendSorted re-validates.
		panic("search: live tail lost the base's total order: " + err.Error())
	}
	e := &Engine{g: graph}
	if base.flat != nil {
		e.flat = base.flat
	} else {
		e.flat = base
	}

	// Per-node out/in lists: share every base list by reference, then
	// copy-or-append-extend exactly the nodes the tail touched.
	e.outList = make([][]int32, n)
	e.inList = make([][]int32, n)
	e.outOwned = make([]bool, n)
	e.inOwned = make([]bool, n)
	for nd := 0; nd < bn; nd++ {
		e.outList[nd] = base.outAt(tgraph.NodeID(nd))
		e.inList[nd] = base.inAt(tgraph.NodeID(nd))
	}
	if base.outOwned != nil {
		copy(e.outOwned, base.outOwned)
		copy(e.inOwned, base.inOwned)
	}
	for nd := 0; nd < n; nd++ {
		if ext := g.tailOut[nd].view(); len(ext) > 0 {
			e.outList[nd] = extendPositions(e.outList[nd], ext, e.outOwned[nd])
			e.outOwned[nd] = true
		}
		if ext := g.tailIn[nd].view(); len(ext) > 0 {
			e.inList[nd] = extendPositions(e.inList[nd], ext, e.inOwned[nd])
			e.inOwned[nd] = true
		}
	}

	// Label-pair extension map: clone (readers of the base engine may be
	// probing its map concurrently, so never mutate it), then extend the
	// pairs the tail touched. Pairs absent from the map resolve through the
	// flat ancestor, whose table already holds their full position list.
	e.pairExt = make(map[pairKey]pairSeg, len(base.pairExt)+len(g.pair))
	for k, s := range base.pairExt {
		e.pairExt[k] = s
	}
	for k, pl := range g.pair {
		ext := pl.view()
		if len(ext) == 0 {
			continue
		}
		seg, ok := e.pairExt[k]
		if !ok {
			seg.pos = e.flat.pairPositions(k.src, k.dst)
		}
		e.pairExt[k] = pairSeg{pos: extendPositions(seg.pos, ext, seg.owned), owned: true}
	}

	e.initHost()
	return e
}

// rebuildGen builds the post-compaction generation from scratch: a fresh
// CSR base over the live (non-evicted) edge set with positions rebased to
// drop the dead prefix, and fresh, empty tail storage. This is the
// reclaiming fallback merge-compaction rests on; copy-on-compact, so
// readers holding older views stay consistent. The view must be
// writer-exact.
func rebuildGen(v genView) *generation {
	g := v.g
	base := NewEngine(v.buildGraph())
	ng := &generation{
		base:      base,
		baseEdges: int32(base.g.NumEdges()),
		labels:    g.labels,
		tailArr:   newTailArr(len(v.tail)),
		tailN:     freshCounter(0),
		pair:      make(map[pairKey]*posList),
		lastTime:  v.lastTime(),

		compactions:     g.compactions + 1,
		merges:          g.merges,
		lastCompactTail: len(v.tail),
	}
	ng.tailOut, ng.tailIn = newTailLists(len(g.labels))
	return ng
}
