// Package grow implements embedding-list pattern growth for temporal graph
// mining (Section 3 of the TGMiner paper): consecutive growth with the
// forward, backward, and inward growth options, which together explore the
// T-connected pattern space completely and without repetition (Theorem 1).
//
// A pattern's occurrences in a graph set are maintained as embedding lists;
// extending a pattern by one edge filters and extends its embeddings rather
// than re-matching from scratch. Because edges are totally ordered, a new
// pattern edge (timestamp |E|+1) can only match graph edges at positions
// strictly after the embedding's last matched position.
package grow

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"tgminer/internal/residual"
	"tgminer/internal/tgraph"
)

// Embedding is one match of a pattern in a data graph: the node mapping plus
// the position of the graph edge matched by the pattern's final (largest
// timestamp) edge.
type Embedding struct {
	GraphID int32
	LastPos int32
	Nodes   []tgraph.NodeID // pattern node -> graph node
}

// List is the embedding list of one pattern over one graph set, ordered by
// GraphID (ties in arbitrary order).
type List []Embedding

// SupportCount returns the number of distinct graphs containing at least one
// embedding.
func (l List) SupportCount() int {
	n := 0
	last := int32(-1)
	for _, e := range l {
		if e.GraphID != last {
			n++
			last = e.GraphID
		}
	}
	return n
}

// Frequency returns SupportCount()/total, the paper's freq(G, g).
func (l List) Frequency(total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(l.SupportCount()) / float64(total)
}

// ResidualSet builds the deduplicated residual graph set of the pattern
// owning this list: one Ref per distinct (graph, cut) pair, per the paper's
// set-union definition of R(G, g).
func (l List) ResidualSet() residual.Set {
	return l.ResidualSetInto(nil)
}

// ResidualSetInto is ResidualSet reusing buf's backing storage when it is
// large enough; the miner recycles residual sets through a per-worker
// freelist, removing the dominant per-pattern allocation of the search.
func (l List) ResidualSetInto(buf residual.Set) residual.Set {
	if cap(buf) < len(l) {
		buf = make(residual.Set, 0, len(l))
	}
	set := buf[:0]
	for _, e := range l {
		set = append(set, residual.Ref{GraphID: e.GraphID, Cut: e.LastPos})
	}
	set.Normalize()
	// Deduplicate identical (GraphID, Cut) pairs: distinct matches sharing a
	// final edge contribute one residual graph.
	out := set[:0]
	for i, r := range set {
		if i == 0 || r != set[i-1] {
			out = append(out, r)
		}
	}
	return out
}

// Ext describes one consecutive-growth step applied to a parent pattern:
// which growth option, which existing pattern nodes participate, and the
// label of the new node if one is introduced. Ext values are comparable and
// identify children uniquely (Lemma 3: a pattern extends into a specific
// larger pattern in at most one way).
type Ext struct {
	Kind     tgraph.GrowthKind
	Src      tgraph.NodeID // existing pattern source (Forward, Inward); -1 otherwise
	Dst      tgraph.NodeID // existing pattern destination (Backward, Inward); -1 otherwise
	NewLabel tgraph.Label  // label of the new node (Forward, Backward); -1 otherwise
}

// Apply grows parent by the extension, returning the child pattern.
func (x Ext) Apply(parent *tgraph.Pattern) *tgraph.Pattern {
	switch x.Kind {
	case tgraph.Forward:
		return parent.GrowForward(x.Src, x.NewLabel)
	case tgraph.Backward:
		return parent.GrowBackward(x.NewLabel, x.Dst)
	default:
		return parent.GrowInward(x.Src, x.Dst)
	}
}

// Less orders extensions deterministically for reproducible DFS order.
func (x Ext) Less(y Ext) bool { return x.compare(y) < 0 }

// compare orders extensions by kind, then source, destination and new label.
func (x Ext) compare(y Ext) int {
	return cmp.Or(cmp.Compare(x.Kind, y.Kind), cmp.Compare(x.Src, y.Src),
		cmp.Compare(x.Dst, y.Dst), cmp.Compare(x.NewLabel, y.NewLabel))
}

// Seed is a one-edge pattern together with its embedding lists in the
// positive and negative graph sets.
type Seed struct {
	Pattern *tgraph.Pattern
	Pos     List
	Neg     List
}

// SeedKey identifies a one-edge pattern stably across mining runs: the
// source and destination labels plus whether the edge is a self loop. It is
// the identity incremental mining caches per-seed outcomes under.
type SeedKey struct {
	Src, Dst tgraph.Label
	Loop     bool
}

// Key returns the seed's cross-run identity.
func (s Seed) Key() SeedKey {
	p := s.Pattern
	loop := p.NumNodes() == 1
	if loop {
		return SeedKey{Src: p.LabelOf(0), Dst: p.LabelOf(0), Loop: true}
	}
	return SeedKey{Src: p.LabelOf(0), Dst: p.LabelOf(1)}
}

// Fingerprint hashes the embedding list's (GraphID, LastPos) reference
// pairs with FNV-1a, folding in the length. Two lists over content-equal
// graph sets are identical iff their occurrences coincide, so incremental
// mining combines this fingerprint with per-graph content stamps to decide
// whether a seed's whole exploration subtree is unchanged.
func (l List) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		const prime = 1099511628211
		h ^= v & 0xffffffff
		h *= prime
		h ^= v >> 32
		h *= prime
	}
	mix(uint64(len(l)))
	for _, e := range l {
		mix(uint64(uint32(e.GraphID))<<32 | uint64(uint32(e.LastPos)))
	}
	return h
}

// SupportGraphs appends the distinct GraphIDs with at least one embedding
// to buf (the list is ordered by GraphID, so distinct IDs are adjacent).
func (l List) SupportGraphs(buf []int32) []int32 {
	last := int32(-1)
	for _, e := range l {
		if e.GraphID != last {
			buf = append(buf, e.GraphID)
			last = e.GraphID
		}
	}
	return buf
}

// Seeds enumerates all one-edge patterns occurring in the positive set with
// their embeddings in both sets, ordered deterministically by (source label,
// destination label, self-loop). It is CountSeeds(pos).Build(neg, nil).
func Seeds(pos, neg []*tgraph.Graph) []Seed {
	seeds, _ := CountSeeds(pos).Build(neg, nil)
	return seeds
}

// SeedCounts is the first half of seed collection: every one-edge pattern
// of a positive set with its support, counted in one pass over the
// positives without building a list. Build then materializes only the
// seeds a support filter keeps, so a seed the caller can rule out by its
// support alone never gets a pattern, a list or a negative embedding.
type SeedCounts struct {
	pos   []*tgraph.Graph
	keys  []seedCount // ascending by key: the order Seeds returns
	table []int32     // key -> ordinal in keys + 1 (0 = empty): open addressing, power-of-two size, load ≤ ½
	shift uint        // 64 - log2(len(table))
	top   int         // the largest support
}

// seedCount is one seed key of a SeedCounts: how many embeddings and
// distinct positive graphs it has, the graph of its latest embedding while
// counting, and its index in Build's output (-1 when keep dropped it).
type seedCount struct {
	key            uint64
	n, support     int32
	lastGraph, out int32
}

// seedTableBits is log2 of the initial size of a SeedCounts' key index.
const seedTableBits = 8

// CountSeeds counts the support of every one-edge pattern of pos: the
// number of distinct graphs holding at least one of its edges.
func CountSeeds(pos []*tgraph.Graph) *SeedCounts {
	c := &SeedCounts{pos: pos, table: make([]int32, 1<<seedTableBits), shift: 64 - seedTableBits}
	for gi, g := range pos {
		for _, e := range g.Edges() {
			sc := &c.keys[c.insert(seedKey(g.LabelOf(e.Src), g.LabelOf(e.Dst), e.Src == e.Dst))]
			sc.n++
			// Graphs are scanned in order, so one word per key counts them.
			if sc.lastGraph != int32(gi) {
				sc.support++
				sc.lastGraph = int32(gi)
				c.top = max(c.top, int(sc.support))
			}
		}
	}
	// Lay the keys out in seed order and point the index at their new
	// ordinals.
	slices.SortFunc(c.keys, func(a, b seedCount) int { return cmp.Compare(a.key, b.key) })
	clear(c.table)
	for i := range c.keys {
		c.place(int32(i))
	}
	return c
}

// MaxSupport returns the largest support of any seed, 0 when pos has no
// edge.
func (c *SeedCounts) MaxSupport() int { return c.top }

// home is the slot where k's linear probe starts: the top bits of its
// Fibonacci hash.
func (c *SeedCounts) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> c.shift
}

// insert returns k's ordinal, adding a key when k is new. The table
// doubles once it is more than half full.
func (c *SeedCounts) insert(k uint64) int32 {
	mask := uint64(len(c.table) - 1)
	for i := c.home(k); ; i = (i + 1) & mask {
		o := c.table[i] - 1
		if o < 0 {
			o = int32(len(c.keys))
			c.keys = append(c.keys, seedCount{key: k, lastGraph: -1})
			c.table[i] = o + 1
			if 2*len(c.keys) > len(c.table) {
				c.table = make([]int32, 2*len(c.table))
				c.shift--
				for j := range c.keys {
					c.place(int32(j))
				}
			}
			return o
		}
		if c.keys[o].key == k {
			return o
		}
	}
}

// place indexes keys[o], which the table does not hold yet.
func (c *SeedCounts) place(o int32) {
	mask := uint64(len(c.table) - 1)
	i := c.home(c.keys[o].key)
	for c.table[i] != 0 {
		i = (i + 1) & mask
	}
	c.table[i] = o + 1
}

// lookup returns k's ordinal, or -1 when no positive edge has key k.
func (c *SeedCounts) lookup(k uint64) int32 {
	mask := uint64(len(c.table) - 1)
	for i := c.home(k); ; i = (i + 1) & mask {
		o := c.table[i] - 1
		if o < 0 || c.keys[o].key == k {
			return o
		}
	}
}

// Build materializes the seeds whose support keep accepts: each with its
// pattern, its positive list and its negative list over neg, in seed order.
// dropped counts the seeds keep rejects; they cost no allocation, and a
// negative edge whose source label starts no kept seed is rejected by one
// slice load. When keep rejects every seed, neg is not scanned at all.
//
// With keep == nil every seed is kept, and Build returns exactly what Seeds
// returns. With a filter it returns exactly the entries of that unfiltered
// result that keep accepts, in the same order.
//
// Build may be called several times on one SeedCounts, but not
// concurrently.
func (c *SeedCounts) Build(neg []*tgraph.Graph, keep func(support int) bool) (seeds []Seed, dropped int) {
	kept, maxSrc := 0, -1
	for i := range c.keys {
		sc := &c.keys[i]
		if keep != nil && !keep(int(sc.support)) {
			sc.out = -1
			dropped++
			continue
		}
		sc.out = int32(kept)
		kept++
		maxSrc = int(sc.key >> 33) // keys ascend, and the source label leads
	}
	seeds = make([]Seed, kept)
	if kept == 0 {
		return seeds, dropped
	}
	// srcSeen[l] reports whether some kept seed starts at label l.
	srcSeen := make([]bool, maxSrc+1)
	for i := range c.keys {
		sc := &c.keys[i]
		if sc.out < 0 {
			continue
		}
		src, dst, loop := tgraph.Label(sc.key>>33), tgraph.Label(uint32(sc.key>>1)), sc.key&1 == 1
		seeds[sc.out] = Seed{Pattern: tgraph.SingleEdgePattern(src, dst, loop), Pos: make(List, 0, sc.n)}
		srcSeen[src] = true
	}
	var arena nodeArena
	c.collect(seeds, c.pos, false, srcSeen, &arena)
	// Only seeds that exist positively matter on the negative side.
	c.collect(seeds, neg, true, srcSeen, &arena)
	return seeds, dropped
}

// collect appends the one-edge embedding of every edge of graphs whose
// seed Build keeps to that seed's negative list if negative is set, and to
// its positive list otherwise.
func (c *SeedCounts) collect(seeds []Seed, graphs []*tgraph.Graph, negative bool, srcSeen []bool, arena *nodeArena) {
	for gi, g := range graphs {
		for p, e := range g.Edges() {
			src := g.LabelOf(e.Src)
			if uint32(src) >= uint32(len(srcSeen)) || !srcSeen[src] {
				continue
			}
			o := c.lookup(seedKey(src, g.LabelOf(e.Dst), e.Src == e.Dst))
			if o < 0 || c.keys[o].out < 0 {
				continue
			}
			l := &seeds[c.keys[o].out].Pos
			if negative {
				l = &seeds[c.keys[o].out].Neg
			}
			*l = append(*l, seedEmbedding(e, int32(gi), int32(p), arena))
		}
	}
}

// seedKey packs a one-edge pattern into one word whose numeric order is the
// order Seeds returns: source label, then destination label, then plain
// edge before self loop. Labels are non-negative int32 (Dict ordinals), so
// each fits in 31 bits and the packing is injective.
func seedKey(src, dst tgraph.Label, loop bool) uint64 {
	k := uint64(src)<<33 | uint64(dst)<<1
	if loop {
		k |= 1
	}
	return k
}

// seedEmbedding is the one-edge embedding of edge e at position pos of
// graph gid, its node slice carved out of arena.
func seedEmbedding(e tgraph.Edge, gid, pos int32, arena *nodeArena) Embedding {
	var nodes []tgraph.NodeID
	if e.Src == e.Dst {
		nodes = arena.alloc(1)
		nodes[0] = e.Src
	} else {
		nodes = arena.alloc(2)
		nodes[0], nodes[1] = e.Src, e.Dst
	}
	return Embedding{GraphID: gid, LastPos: pos, Nodes: nodes}
}

// nodeArenaChunk is the number of NodeIDs handed out per arena chunk. Large
// enough to amortize one chunk allocation over many embeddings, small enough
// that a few straggler embeddings pinning a chunk is cheap. A sweep of the
// chunk size over the sshd-login Children workload (2-core Xeon, go1.24,
// benchtime=2s; ns/op, B/op, allocs/op) read 128: 1315/879/3;
// 256: 1277/873/3; 512: 1374/873/3; 1024: 1303/873/3; 2048: 1161/872/3.
// That is flat within run-to-run noise (the chunk allocation is amortized
// well below one per call), so 512 stays: 2048's edge is inside the noise
// band and quadruples the memory a straggler embedding pins.
const nodeArenaChunk = 512

// nodeArena is a chunked bump allocator for embedding node slices. Allocated
// regions are handed out exactly once and never recycled, so slices stay
// valid (and data-race free) after the arena returns to the pool; only the
// unused tail of the current chunk is reused by later calls.
type nodeArena struct {
	buf []tgraph.NodeID
}

// alloc returns a zeroed-capacity slice of exactly n NodeIDs.
func (a *nodeArena) alloc(n int) []tgraph.NodeID {
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]tgraph.NodeID, 0, max(n, nodeArenaChunk))
	}
	s := a.buf[len(a.buf) : len(a.buf)+n : len(a.buf)+n]
	a.buf = a.buf[:len(a.buf)+n]
	return s
}

var nodeArenaPool = sync.Pool{New: func() any { return new(nodeArena) }}

// extScratch is the reusable per-call workspace of Extensions and
// Children: the extension indexes and the reverse node-mapping buffer, both
// of which otherwise dominate the functions' allocation profiles.
type extScratch struct {
	index   map[uint64]int32 // Extensions' Ext.key() -> bucket ordinal
	table   []extSlot        // Children's Ext.key() -> bucket ordinal: open addressing, power-of-two size, load ≤ ½
	shift   uint             // 64 - log2(len(table))
	epoch   uint32           // stamp of the current Children call's slots; never 0
	rev     []int32          // graph node -> pattern node + 1 (0 = unmapped); all zero between embeddings
	hits    []hit            // Children's child embeddings, in scan order
	exts    []Ext            // Extensions' extensions, by bucket
	buckets []bucket         // Children's buckets, by ordinal
	keys    []uint64         // the output buckets' keys, sorted into Less order
}

// extSlot is one slot of Children's bucket index. It is live only while its
// epoch is the scratch's, so the table is never cleared between calls.
type extSlot struct {
	key    uint64
	epoch  uint32
	bucket int32
}

// bucket is one child of a Children call: its extension, how many hits and
// distinct graphs it has, and the graph of its latest hit. After the scan,
// n becomes the bucket's output index, or -1 when keep dropped it.
type bucket struct {
	ext        Ext
	n, support int32
	lastGraph  int32
}

// extTableBits is log2 of the initial size of Children's bucket index.
const extTableBits = 6

// hit is one child embedding as Children records it before the lists are
// sized: its bucket, parent embedding, graph edge, and added graph node.
type hit struct {
	bucket, parent, pos int32
	added               tgraph.NodeID
}

var extScratchPool = sync.Pool{
	New: func() any { return &extScratch{index: make(map[uint64]int32)} },
}

// startTable begins a Children call: every slot of the previous call goes
// stale by bumping the epoch, and only a wrapped epoch clears the table.
func (s *extScratch) startTable() {
	if s.table == nil {
		s.table = make([]extSlot, 1<<extTableBits)
		s.shift = 64 - extTableBits
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.table)
		s.epoch = 1
	}
}

// home is the slot where k's linear probe starts: the top bits of its
// Fibonacci hash.
func (s *extScratch) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> s.shift
}

// bucketOf returns the ordinal of k's bucket, adding a bucket for x when k
// is new to this call. The table doubles once it is more than half full.
func (s *extScratch) bucketOf(k uint64, x Ext) int32 {
	mask := uint64(len(s.table) - 1)
	for i := s.home(k); ; i = (i + 1) & mask {
		sl := &s.table[i]
		if sl.epoch != s.epoch {
			b := int32(len(s.buckets))
			*sl = extSlot{key: k, epoch: s.epoch, bucket: b}
			s.buckets = append(s.buckets, bucket{ext: x, lastGraph: -1})
			if 2*len(s.buckets) > len(s.table) {
				s.growTable()
			}
			return b
		}
		if sl.key == k {
			return sl.bucket
		}
	}
}

// lookup returns the ordinal of k's bucket, which must exist.
func (s *extScratch) lookup(k uint64) int32 {
	mask := uint64(len(s.table) - 1)
	for i := s.home(k); ; i = (i + 1) & mask {
		if sl := &s.table[i]; sl.key == k && sl.epoch == s.epoch {
			return sl.bucket
		}
	}
}

// growTable doubles the table, re-inserting this call's live slots.
func (s *extScratch) growTable() {
	old := s.table
	s.table = make([]extSlot, 2*len(old))
	s.shift--
	mask := uint64(len(s.table) - 1)
	for _, sl := range old {
		if sl.epoch != s.epoch {
			continue
		}
		i := s.home(sl.key)
		for s.table[i].epoch == s.epoch {
			i = (i + 1) & mask
		}
		s.table[i] = sl
	}
}

// key packs the two fields that identify an extension of its kind into one
// word, so the per-edge bucket lookup hashes 8 bytes instead of the 16-byte
// struct. Pattern node ordinals are far below 2^30, so kinds cannot collide.
//
// The numeric order of keys is the compare order. Within one kind one of
// Src, Dst and NewLabel is always -1, and the key holds the other two in
// compare's order of precedence; node ordinals and labels are non-negative
// int32, so their uint32 images order as they do.
func (x Ext) key() uint64 {
	var a, b int32
	switch x.Kind {
	case tgraph.Forward:
		a, b = int32(x.Src), int32(x.NewLabel)
	case tgraph.Backward:
		a, b = int32(x.Dst), int32(x.NewLabel)
	default:
		a, b = int32(x.Src), int32(x.Dst)
	}
	return uint64(x.Kind)<<62 | uint64(uint32(a))<<32 | uint64(uint32(b))
}

// scan is the single definition of the consecutive-growth rules. For every
// embedding l[i] it visits each graph edge after LastPos incident to a
// mapped node and classifies it: both endpoints mapped is Inward (reported
// once, from the source side), only the source mapped is Forward, only the
// destination mapped is Backward. added is the graph node the step maps to
// the new pattern node, or -1 for Inward. For one embedding and one
// extension, visits come in increasing position order.
func (s *extScratch) scan(graphs []*tgraph.Graph, l List, visit func(i int, x Ext, pos int32, added tgraph.NodeID)) {
	for i, emb := range l {
		g := graphs[emb.GraphID]
		if len(s.rev) < g.NumNodes() {
			s.rev = make([]int32, g.NumNodes())
		}
		rev := s.rev
		for pv, gv := range emb.Nodes {
			rev[gv] = int32(pv) + 1
		}
		for _, gv := range emb.Nodes {
			inc := g.Incident(gv)
			start := sort.Search(len(inc), func(i int) bool { return inc[i] > emb.LastPos })
			for _, pos := range inc[start:] {
				e := g.EdgeAt(int(pos))
				sm, dm := rev[e.Src], rev[e.Dst]
				switch {
				case sm != 0 && dm != 0:
					// Seen from both endpoints; report it from the source
					// side only (a self loop is listed once, at its source).
					if e.Src != gv {
						continue
					}
					visit(i, Ext{Kind: tgraph.Inward, Src: tgraph.NodeID(sm - 1), Dst: tgraph.NodeID(dm - 1), NewLabel: -1}, pos, -1)
				case sm != 0:
					visit(i, Ext{Kind: tgraph.Forward, Src: tgraph.NodeID(sm - 1), Dst: -1, NewLabel: g.LabelOf(e.Dst)}, pos, e.Dst)
				case dm != 0:
					visit(i, Ext{Kind: tgraph.Backward, Src: -1, Dst: tgraph.NodeID(dm - 1), NewLabel: g.LabelOf(e.Src)}, pos, e.Src)
				}
			}
		}
		for _, gv := range emb.Nodes {
			rev[gv] = 0
		}
	}
}

// Extensions enumerates the distinct consecutive-growth extensions of the
// pattern that are witnessed by at least one embedding in l over graphs,
// returned in deterministic order. Only extensions witnessed in the positive
// set can raise a pattern's positive frequency above zero, so the miner
// grows children from the positive list only.
//
// Extensions is safe for concurrent use: per-call scratch state comes from
// an internal pool and the returned slice is freshly allocated.
func Extensions(p *tgraph.Pattern, graphs []*tgraph.Graph, l List) []Ext {
	s := extScratchPool.Get().(*extScratch)
	clear(s.index)
	s.exts, s.keys = s.exts[:0], s.keys[:0]
	s.scan(graphs, l, func(_ int, x Ext, _ int32, _ tgraph.NodeID) {
		k := x.key()
		if _, ok := s.index[k]; !ok {
			s.index[k] = int32(len(s.exts))
			s.exts = append(s.exts, x)
			s.keys = append(s.keys, k)
		}
	})
	slices.Sort(s.keys)
	out := make([]Ext, len(s.keys))
	for i, k := range s.keys {
		out[i] = s.exts[s.index[k]]
	}
	extScratchPool.Put(s)
	return out
}

// Children is Extensions followed by Extend for each extension, in one pass
// over l: every witnessed child edge is recorded against its extension,
// then each extension's list is allocated at its exact length and filled.
//
// keep filters children by support, the number of distinct graphs holding
// at least one of the child's embeddings (its list's SupportCount). A child
// for which keep is false is dropped before it is sorted, sized or filled,
// and dropped counts them. With keep == nil every child is kept: Children
// returns the extensions in Less order and, for each, exactly the list
// Extend(exts[i], graphs, l) returns — parent-embedding order, then position
// order. With a filter it returns exactly the entries of that unfiltered
// result that keep accepts, in the same order.
//
// Children is safe for concurrent use; child node slices are carved out of
// the pooled chunk arena, as in Extend.
func Children(p *tgraph.Pattern, graphs []*tgraph.Graph, l List, keep func(support int) bool) (exts []Ext, lists []List, dropped int) {
	s := extScratchPool.Get().(*extScratch)
	s.startTable()
	s.hits, s.buckets, s.keys = s.hits[:0], s.buckets[:0], s.keys[:0]
	s.scan(graphs, l, func(i int, x Ext, pos int32, added tgraph.NodeID) {
		b := s.bucketOf(x.key(), x)
		bk := &s.buckets[b]
		bk.n++
		// l is ordered by GraphID, so a bucket's hits are too.
		if g := l[i].GraphID; g != bk.lastGraph {
			bk.support++
			bk.lastGraph = g
		}
		s.hits = append(s.hits, hit{bucket: b, parent: int32(i), pos: pos, added: added})
	})

	// Drop the buckets keep rejects, then lay the rest out in Less order
	// (the keys' order), each list at its exact length.
	for b := range s.buckets {
		bk := &s.buckets[b]
		if keep != nil && !keep(int(bk.support)) {
			bk.n = -1
			dropped++
			continue
		}
		s.keys = append(s.keys, bk.ext.key())
	}
	slices.Sort(s.keys)
	exts, lists = make([]Ext, len(s.keys)), make([]List, len(s.keys))
	for i, k := range s.keys {
		bk := &s.buckets[s.lookup(k)]
		exts[i], lists[i] = bk.ext, make(List, 0, bk.n)
		bk.n = int32(i)
	}
	arena := nodeArenaPool.Get().(*nodeArena)
	for _, h := range s.hits {
		o := s.buckets[h.bucket].n
		if o < 0 {
			continue
		}
		emb := &l[h.parent]
		nodes := emb.Nodes
		if h.added >= 0 {
			nodes = arena.alloc(len(emb.Nodes) + 1)
			copy(nodes, emb.Nodes)
			nodes[len(emb.Nodes)] = h.added
		}
		lists[o] = append(lists[o], Embedding{GraphID: emb.GraphID, LastPos: h.pos, Nodes: nodes})
	}
	nodeArenaPool.Put(arena)
	extScratchPool.Put(s)
	return exts, lists, dropped
}

// Extend computes the embedding list of the child pattern obtained by
// applying ext to the parent whose embeddings over graphs are l. Embeddings
// that cannot host the new edge are dropped; embeddings with several
// candidate edges fan out into several child embeddings (one per match).
//
// Child node slices are carved out of a pooled chunk arena rather than
// allocated individually; Extend is safe for concurrent use.
func Extend(ext Ext, graphs []*tgraph.Graph, l List) List {
	out := make(List, 0, len(l))
	arena := nodeArenaPool.Get().(*nodeArena)
	for _, emb := range l {
		g := graphs[emb.GraphID]
		switch ext.Kind {
		case tgraph.Forward:
			src := emb.Nodes[ext.Src]
			forEachIncidentAfter(g, src, emb.LastPos, func(pos int32, e tgraph.Edge) {
				if e.Src != src || e.Src == e.Dst {
					return
				}
				if g.LabelOf(e.Dst) != ext.NewLabel || containsNode(emb.Nodes, e.Dst) {
					return
				}
				nodes := arena.alloc(len(emb.Nodes) + 1)
				copy(nodes, emb.Nodes)
				nodes[len(emb.Nodes)] = e.Dst
				out = append(out, Embedding{GraphID: emb.GraphID, LastPos: pos, Nodes: nodes})
			})
		case tgraph.Backward:
			dst := emb.Nodes[ext.Dst]
			forEachIncidentAfter(g, dst, emb.LastPos, func(pos int32, e tgraph.Edge) {
				if e.Dst != dst || e.Src == e.Dst {
					return
				}
				if g.LabelOf(e.Src) != ext.NewLabel || containsNode(emb.Nodes, e.Src) {
					return
				}
				nodes := arena.alloc(len(emb.Nodes) + 1)
				copy(nodes, emb.Nodes)
				nodes[len(emb.Nodes)] = e.Src
				out = append(out, Embedding{GraphID: emb.GraphID, LastPos: pos, Nodes: nodes})
			})
		default: // Inward
			src := emb.Nodes[ext.Src]
			dst := emb.Nodes[ext.Dst]
			forEachIncidentAfter(g, src, emb.LastPos, func(pos int32, e tgraph.Edge) {
				if e.Src != src || e.Dst != dst {
					return
				}
				out = append(out, Embedding{GraphID: emb.GraphID, LastPos: pos, Nodes: emb.Nodes})
			})
		}
	}
	nodeArenaPool.Put(arena)
	return out
}

func forEachIncidentAfter(g *tgraph.Graph, v tgraph.NodeID, after int32, fn func(pos int32, e tgraph.Edge)) {
	inc := g.Incident(v)
	start := sort.Search(len(inc), func(i int) bool { return inc[i] > after })
	for _, pos := range inc[start:] {
		fn(pos, g.EdgeAt(int(pos)))
	}
}

func containsNode(nodes []tgraph.NodeID, v tgraph.NodeID) bool {
	for _, n := range nodes {
		if n == v {
			return true
		}
	}
	return false
}
