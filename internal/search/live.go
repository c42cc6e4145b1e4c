package search

// This file implements the write side of the live (incrementally growing)
// temporal-graph engine for continuous monitoring: the immutable CSR indexes
// of Engine wrapped with an append-only tail plus periodic compaction, and
// an optional sliding window via EvictBefore. It holds no query code: a
// Live is a host of the shared query surface (Queries, cut.go) whose pin
// contributes one genView — base + tail as one edge sequence in global
// position order — so a Live answers every query exactly as a static Engine
// built over the equivalent edge set would (differentially tested in
// live_test.go), by running the very same matchers.
//
// Concurrency is RCU-style: all mutable state lives in an immutable
// generation value published through an atomic pointer, and the common-case
// Append publishes nothing at all — it appends into pre-sized storage and
// advances an atomic tail length. Writers (Append/EvictBefore/Compact,
// serialized by a mutex among themselves) build the next state and publish
// it; a query pins a genView — one generation plus the tail prefix
// published at capture time — and runs against it for its whole lifetime
// without taking any lock, so a long-lived StreamTemporal never blocks
// ingestion. Four disciplines make the shared storage safe:
//
//  1. Append-only slices. labels, tailArr, tailOut, and tailIn grow only on
//     the writer's latest state; published views hold len-capped headers of
//     the same backing arrays, and the writer only ever writes indexes
//     beyond every published length, so no reader can observe a torn
//     element.
//  2. Single-writer posLists. Per-node and per-label-pair tail position
//     lists are shared across generations and appended in place; an atomic
//     element count published after each element write gives readers a
//     consistent prefix. Positions are globally increasing, so a reader
//     simply stops at its view's end position and never sees entries
//     appended after its snapshot.
//  3. Publish-after-index tail counts. The atomic tail length that reveals
//     a new edge is stored only after the edge and all its posList entries
//     are written, so a view that includes an edge always finds it in every
//     index. An append that the current generation cannot fully describe —
//     a label pair new to the pair map, a node added after the generation
//     was built, a grown tail array — freezes the old generation's counter
//     and publishes a successor with a fresh one, so stale generations
//     never reveal edges their own indexes do not cover.
//  4. Copy-on-compact. Compaction never truncates shared storage in place.
//     The incremental merge path (merge.go) extends the base engine's
//     storage only in freshly allocated arrays or in owned spare capacity
//     strictly beyond every published length, and the rebuild path builds a
//     fresh base Engine outright; both hand the new generation fresh
//     (empty) tail storage and a fresh pair map, leaving every published
//     view's storage intact until the garbage collector reclaims it.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"tgminer/internal/tgraph"
)

// ErrPositionsExhausted is reported by Append when the engine has
// accumulated 2^31-1 global edge positions — the capacity of the int32
// position space the CSR and tail indexes share — and no eviction has
// freed any. Evicting old edges (EvictBefore) frees position space: at
// the bound Append reclaims it automatically with a rebasing rebuild
// compaction, so only an engine that never evicts can hit this error.
var ErrPositionsExhausted = errors.New("search: live engine exhausted its 2^31-1 edge positions (evict old edges with EvictBefore to free position space)")

// LiveOptions configures a Live engine.
type LiveOptions struct {
	// CompactEvery is the minimum tail length before automatic compaction
	// into the CSR base index during Append (default 4096; negative
	// disables automatic compaction, leaving it to explicit Compact
	// calls). Compaction normally merges the tail into the existing base
	// incrementally — O(tail + touched lists), independent of the base
	// size — so it runs as soon as the tail also reaches 1/8 of the
	// merge's per-compaction bookkeeping (node count plus extended-pair
	// count). When the merge is ineligible (no base yet, or the evicted
	// prefix has grown to half the edge array and must be reclaimed),
	// compaction falls back to a full rebuild and additionally waits
	// until the tail is at least half the live base, so rebuild sizes
	// grow geometrically and total ingestion work stays linear —
	// amortized O(1) per append — instead of quadratic in the stream
	// length.
	CompactEvery int

	// Shards is consumed by NewSharded (sharded.go): the number of
	// independent Live shards behind the cross-shard query planner
	// (0 = GOMAXPROCS, 1 = unsharded). A plain NewLive ignores it.
	Shards int

	// disableMerge forces every compaction down the full-rebuild path.
	// Test-only: the merge==rebuild differential tests replay one
	// operation sequence into engines with and without it.
	disableMerge bool
}

func (o LiveOptions) normalize() LiveOptions {
	if o.CompactEvery == 0 {
		o.CompactEvery = 4096
	}
	return o
}

// pairKey indexes tail edges by endpoint labels.
type pairKey struct{ src, dst tgraph.Label }

// posList is a single-writer multi-reader append-only list of edge
// positions. The writer appends an element and then publishes the new
// length with a release store; a reader acquires the length first and then
// the backing array, so the array it loads is always at least as long as
// the count it read and every element below that count is fully written.
// Entries are strictly increasing global positions, which lets readers of
// older views stop at their snapshot's end position.
type posList struct {
	n   atomic.Int32            // published element count
	arr atomic.Pointer[[]int32] // backing array (len == cap), grown by doubling
}

// push appends one position and returns the bytes newly retained by any
// backing-array growth (0 in the no-grow common case); the caller folds the
// delta into the engine's incremental retained-bytes counter so Stats never
// has to re-walk the lists. Writer-exclusive (callers hold the Live writer
// mutex).
//
// tglint:writer
func (p *posList) push(pos int32) int {
	n := int(p.n.Load())
	cur := p.arr.Load()
	grownBytes := 0
	if cur == nil || n == len(*cur) {
		newCap := 4
		oldCap := 0
		if cur != nil {
			oldCap = len(*cur)
			newCap = 2 * oldCap
		}
		grownBytes = 4 * (newCap - oldCap)
		grown := make([]int32, newCap)
		if cur != nil {
			copy(grown, *cur)
		}
		grown[n] = pos
		p.arr.Store(&grown)
	} else {
		(*cur)[n] = pos
	}
	p.n.Store(pos32(n + 1))
	return grownBytes
}

// view returns a consistent prefix of the list. Safe to call concurrently
// with push; the returned slice is never written again at indexes < len.
//
// tglint:snapshot
func (p *posList) view() []int32 {
	n := p.n.Load()
	if n == 0 {
		return nil
	}
	arr := p.arr.Load()
	return (*arr)[:n]
}

// capBytes reports the bytes retained by the list's backing array.
//
// tglint:snapshot
func (p *posList) capBytes() int {
	if arr := p.arr.Load(); arr != nil {
		return 4 * len(*arr)
	}
	return 0
}

// generation is one immutable snapshot of the live engine's structure: a
// compacted CSR base plus indexed tail storage, with eviction expressed as
// a floor position. The tail's published length lives outside the struct in
// an atomic counter (tailN), so the common-case Append advances the counter
// without republishing — a generation therefore describes which storage and
// indexes exist, and a genView adds the instant's published tail prefix.
// The slices are len-capped views into append-only storage shared with
// newer generations (see the file-comment disciplines); the posLists may
// contain positions beyond a view's end, which readers skip via the
// monotone position order.
type generation struct {
	base      *Engine // CSR indexes over the compacted prefix; nil until first compaction
	baseEdges int32   // edges in base: global positions [0, baseEdges)

	floor int32 // first live global position; earlier edges are evicted

	labels  []tgraph.Label // node labels; len == node count of this generation
	tailArr []tgraph.Edge  // tail backing array (len == cap); live prefix published via tailN
	// tailN publishes how much of tailArr is live. It advances only for
	// edges this generation's indexes fully describe: an append that needs
	// a new pair-map key, a new node, or a grown array freezes the counter
	// and hands its successor generation a fresh one (discipline 3), so a
	// reader of a stale generation never sees an edge it cannot resolve.
	tailN   *atomic.Int32
	tailOut []*posList           // node -> tail positions with the node as source
	tailIn  []*posList           // node -> tail positions with the node as destination
	pair    map[pairKey]*posList // label pair -> tail positions (copy-on-new-key)

	lastTime int64 // largest timestamp as of this generation's publish; -1 when empty

	// Compaction bookkeeping, carried immutably for Stats.
	compactions     int // total compactions since creation
	merges          int // of which took the incremental merge path
	lastCompactTail int // tail edges folded by the most recent compaction
}

// view captures the generation's published tail prefix. The returned
// genView is an immutable, internally consistent snapshot: every edge below
// its end is present in every index it consults. Writers (holding the
// mutex) get an exact view; readers get the latest published prefix.
//
// tglint:snapshot
func (g *generation) view() genView {
	n := g.tailN.Load()
	return genView{g: g, tail: g.tailArr[:n:n]}
}

// freshCounter seeds a new tail counter at n, for a successor generation
// whose indexes diverge from its predecessor's (discipline 3).
func freshCounter(n int32) *atomic.Int32 {
	ctr := new(atomic.Int32)
	ctr.Store(n)
	return ctr
}

// genView is one reader's consistent snapshot of a Live engine: a
// generation plus the tail prefix published when the view was captured.
// Every query runs against exactly one view, so it observes one consistent
// edge set no matter how long it runs.
type genView struct {
	g    *generation
	tail []tgraph.Edge // published prefix of g.tailArr
}

// end returns one past the last global position of this view.
func (v genView) end() int32 { return addPos(v.g.baseEdges, pos32(len(v.tail))) }

// numEdges reports the number of live (non-evicted) edges.
func (v genView) numEdges() int { return int(v.end() - v.g.floor) }

// lastTime reports the largest timestamp in the view (-1 when empty).
func (v genView) lastTime() int64 {
	if len(v.tail) > 0 {
		return v.tail[len(v.tail)-1].Time
	}
	return v.g.lastTime
}

// baseEdges returns the compacted prefix's edge array: global positions
// [0, g.baseEdges), the tail following on from there.
func (v genView) baseEdges() []tgraph.Edge {
	if v.g.base == nil {
		return nil
	}
	return v.g.base.g.Edges()
}

// edgeAt returns the edge at a global position.
func (v genView) edgeAt(pos int32) tgraph.Edge {
	if pos < v.g.baseEdges {
		return v.g.base.g.EdgeAt(int(pos))
	}
	return v.tail[pos-v.g.baseEdges]
}

// forEachEdge iterates the live (non-evicted) edges in global position
// order until fn returns false.
func (v genView) forEachEdge(fn func(tgraph.Edge) bool) {
	if v.g.base != nil && v.g.floor < v.g.baseEdges {
		for _, e := range v.g.base.g.Edges()[v.g.floor:] {
			if !fn(e) {
				return
			}
		}
	}
	tailFrom := int(v.g.floor) - int(v.g.baseEdges)
	if tailFrom < 0 {
		tailFrom = 0
	}
	for _, e := range v.tail[tailFrom:] {
		if !fn(e) {
			return
		}
	}
}

// buildGraph materializes the view's edge set (all nodes, non-evicted
// edges) as an immutable tgraph.Graph.
func (v genView) buildGraph() *tgraph.Graph {
	var b tgraph.Builder
	for _, lab := range v.g.labels {
		b.AddNode(lab)
	}
	v.forEachEdge(func(e tgraph.Edge) bool {
		_ = b.AddEdge(e.Src, e.Dst, e.Time)
		return true
	})
	gr, err := b.Finalize()
	if err != nil {
		// Unreachable: Append enforces the strict total order Finalize checks.
		panic("search: live edge set lost total order: " + err.Error())
	}
	return gr
}

// cutBefore returns the first global position whose edge time is >= t in a
// view's edge sequence, given as its base edge array and its tail.
func cutBefore(base, tail []tgraph.Edge, t int64) int32 {
	i := sort.Search(len(base), func(i int) bool { return base[i].Time >= t })
	if i == len(base) {
		i += sort.Search(len(tail), func(i int) bool { return tail[i].Time >= t })
	}
	return pos32(i)
}

// CutKey identifies a Live engine's live edge set: two equal keys read from
// the same engine — at any two instants — denote byte-identical live edge
// sets, so a query answer recorded under one key may be replayed verbatim
// whenever the key is observed again. The converse is deliberately not
// promised: a compaction changes the key without changing the edge set (a
// harmless cache miss). Soundness rests on per-epoch monotonicity: within
// one compaction epoch (equal Compactions), End grows only by appends and
// Floor only by evictions, and positions are write-once, so equal
// (Compactions, Floor, End) pins exactly one set of live positions; the
// Compactions counter disambiguates the position-space rebasing a
// reclaiming rebuild performs (no ABA).
type CutKey struct {
	Compactions int
	Floor, End  int32
}

// CutKey reports the engine's current generation-cut key (one atomic view
// capture; lock-free).
func (l *Live) CutKey() CutKey {
	v := l.snap()
	return CutKey{Compactions: v.g.compactions, Floor: v.g.floor, End: v.end()}
}

// numReaderSlots bounds the reader-accounting table. Purely observability:
// when all slots are busy additional queries run normally and simply go
// uncounted (ActiveReaders/OldestReaderLag then under-report).
const numReaderSlots = 64

// readerSlots tracks in-flight lock-free queries for Stats. Each running
// query parks its snapshot's end position in a slot (stored +1 so zero
// means free) and clears it when it finishes, so operators can see how far
// behind the oldest still-pinned snapshot is — a paused stream consumer
// holding old storage alive shows up as a growing OldestReaderLag.
type readerSlots struct {
	slot [numReaderSlots]atomic.Int64
}

// acquire parks a snapshot end and returns the slot index, or -1 when the
// table is full (the query then goes uncounted).
func (r *readerSlots) acquire(end int32) int {
	for i := range r.slot {
		if r.slot[i].CompareAndSwap(0, int64(end)+1) {
			return i
		}
	}
	return -1
}

// release frees a slot returned by acquire (no-op for -1).
func (r *readerSlots) release(i int) {
	if i >= 0 {
		r.slot[i].Store(0)
	}
}

// oldest reports the number of registered readers and the smallest parked
// snapshot end among them.
func (r *readerSlots) oldest() (count int, minEnd int32) {
	minEnd = math.MaxInt32
	for i := range r.slot {
		if s := r.slot[i].Load(); s != 0 {
			count++
			if e := int32(s) - 1; e < minEnd {
				minEnd = e
			}
		}
	}
	return count, minEnd
}

// Live is an incrementally growing temporal-graph engine. Edges append in
// strictly increasing timestamp order (the same total-order invariant
// tgraph.Builder enforces); each edge takes a global position = base size +
// tail offset. The tail keeps per-node and per-label-pair position lists;
// compaction folds the tail into the CSR Engine — normally by extending
// the existing base with the tail segment in O(tail + touched lists)
// (merge.go), falling back to a full rebuild when there is no base yet or
// evicted space must be reclaimed. EvictBefore implements a sliding window
// by advancing a floor position — queries skip evicted prefixes in O(1)
// because position order is time order — and the space is reclaimed by the
// rebuild compaction once the evicted prefix reaches half the edge array.
//
// Live is safe for concurrent use and reads are lock-free: every query
// (the embedded Queries) — including a StreamTemporal iterated over minutes
// — runs against the immutable view current when it started and never
// blocks Append/EvictBefore/Compact, which serialize among themselves on a
// writer mutex. The common-case Append allocates nothing and publishes only an
// atomic tail length; structural changes (new label pair, new node, grown
// tail storage, eviction, compaction) publish a new generation atomically.
//
// For multi-writer workloads, ShardedLive (sharded.go) runs N independent
// Live shards behind a cross-shard query planner.
type Live struct {
	Queries

	mu   sync.Mutex // serializes writers; readers never take it
	opts LiveOptions

	cur atomic.Pointer[generation]

	// retained is the incrementally maintained retained-bytes counter:
	// every mutation folds its exact storage delta in (posList/tail-array
	// growth, node additions) and every compaction rebases it to a full
	// walk of the new generation, so Stats reads it in O(1). Writer-owned:
	// mutated only under mu; readers Load it. It tracks the engine's
	// current storage — the same live-capacity accounting the walk
	// (genView.retainedBytes) performs — and the differential stats suite
	// pins the two equal after every mutation.
	retained atomic.Int64

	readers readerSlots // in-flight query accounting for Stats
}

// NewLive returns an empty live engine.
//
// tglint:ignore genaccess the constructor publishes the first generation before the engine escapes to any reader
func NewLive(opts LiveOptions) *Live {
	l := &Live{opts: opts.normalize()}
	l.cur.Store(&generation{
		tailN:    freshCounter(0),
		pair:     make(map[pairKey]*posList),
		lastTime: -1,
	})
	l.h = l
	return l
}

// gen returns the current generation; the returned value is immutable and
// remains valid (and consistent) forever.
func (l *Live) gen() *generation { return l.cur.Load() }

// snap captures the current view: the freshest consistent snapshot a query
// can run against.
func (l *Live) snap() genView { return l.gen().view() }

// pin appends the engine's current view to a cut and registers the query
// with the reader accounting.
func (l *Live) pin(c *cut) {
	v := l.snap()
	c.views = append(c.views, v)
	c.slots = append(c.slots, readerSlot{&l.readers, l.readers.acquire(v.end())})
	if len(v.g.labels) > len(c.labels) {
		c.labels = v.g.labels
	}
}

// AddNode appends a node with the given label and returns its NodeID.
// The successor generation gets a fresh tail counter so views of the
// predecessor never surface edges that reference the new node.
//
// tglint:writer
func (l *Live) AddNode(label tgraph.Label) tgraph.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	g := l.gen()
	ng := *g
	ng.labels = append(g.labels, label)
	ng.tailOut = append(g.tailOut, &posList{})
	ng.tailIn = append(g.tailIn, &posList{})
	ng.lastTime = g.view().lastTime()
	ng.tailN = freshCounter(g.tailN.Load())
	l.cur.Store(&ng)
	l.retained.Add(nodeStatsBytes)
	return tgraph.NodeID(len(ng.labels) - 1)
}

// nodeStatsBytes is the storage delta of one AddNode: a 4-byte label plus
// one pointer slot in each of tailOut and tailIn (the fresh posLists hold no
// backing array yet, so they count 0 until their first push grows one).
const nodeStatsBytes = 4 + 2*ptrBytes

// minTailCap sizes the first tail backing array; growth doubles from there
// and compaction seeds the next cycle's array at the steady-state size.
const minTailCap = 64

// newTailArr allocates a post-compaction tail backing array sized for the
// next cycle: the tail just folded is the steady-state tail length (the
// compaction schedule fires at roughly the same size every cycle), so the
// next cycle fills it without a growth republish — while a one-off giant
// tail (explicit compaction after a burst) does not permanently inflate
// every later cycle's allocation.
func newTailArr(folded int) []tgraph.Edge {
	if folded < minTailCap {
		folded = minTailCap
	}
	return make([]tgraph.Edge, folded)
}

// Append records a directed edge src -> dst at time t. Timestamps must be
// strictly increasing across appends (sequentialize concurrent events
// upstream, as tgraph.Builder.Sequentialize does for batch graphs). The
// amortized cost is O(1) and the common case allocates nothing: the edge
// lands in pre-sized tail storage and is revealed by one atomic length
// store; the tail folds into the CSR base on the geometric schedule
// described on LiveOptions.CompactEvery.
//
// tglint:writer
func (l *Live) Append(src, dst tgraph.NodeID, t int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	g := l.gen()
	if n := tgraph.NodeID(len(g.labels)); src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("search: live edge (%d,%d,%d) references unknown node (have %d nodes)", src, dst, t, n)
	}
	v := g.view() // writer-exact under the mutex
	if lt := v.lastTime(); t <= lt {
		return fmt.Errorf("search: live append out of order: t=%d not after t=%d (timestamps must be strictly increasing)", t, lt)
	}
	if int64(g.baseEdges)+int64(len(v.tail)) >= math.MaxInt32 {
		// The next edge would take global position 2^31-1, wrapping the
		// int32 position space and corrupting every posList. Compaction
		// keeps cumulative positions (the merge carries the floor, a
		// rebuild below only counts live edges), so position space only
		// returns via a rebasing rebuild over an evicted generation:
		// force one here if eviction has freed anything, and error
		// otherwise — reachable only by streams that never evict (e.g.
		// CompactEvery < 0 for 2^31 appends).
		if g.floor > 0 {
			g = rebuildGen(v)
			l.publishCompacted(g)
			v = g.view()
		}
		if int64(g.baseEdges)+int64(len(v.tail)) >= math.MaxInt32 {
			return fmt.Errorf("%w: edge (%d,%d,%d) rejected", ErrPositionsExhausted, src, dst, t)
		}
	}
	n := pos32(len(v.tail))
	pos := addPos(g.baseEdges, n)

	// Structural changes this generation's indexes cannot describe — a
	// label pair new to the pair map or a full tail array — freeze its
	// counter and publish a successor with a fresh one (discipline 3).
	k := pairKey{g.labels[src], g.labels[dst]}
	pl := g.pair[k]
	grow := int(n) == len(g.tailArr)
	if pl == nil || grow {
		ng := *g
		if grow {
			newCap := 2 * len(g.tailArr)
			if newCap < minTailCap {
				newCap = minTailCap
			}
			arr := make([]tgraph.Edge, newCap)
			copy(arr, v.tail)
			ng.tailArr = arr
			l.retained.Add(int64(edgeBytes * (newCap - len(g.tailArr))))
		}
		if pl == nil {
			// First edge with this label pair: copy-on-write the map so
			// readers holding older generations never observe a map insert.
			pl = &posList{}
			np := make(map[pairKey]*posList, len(g.pair)+1)
			for pk, pv := range g.pair {
				np[pk] = pv
			}
			np[k] = pl
			ng.pair = np
		}
		ng.tailN = freshCounter(n)
		l.cur.Store(&ng)
		g = &ng
	}

	// Write the edge and its index entries, then reveal it with the
	// counter store. The posLists are shared with published views: the new
	// position is beyond every published end, so concurrent readers skip
	// it until the store below.
	g.tailArr[n] = tgraph.Edge{Src: src, Dst: dst, Time: t}
	grown := g.tailOut[src].push(pos)
	grown += g.tailIn[dst].push(pos)
	grown += pl.push(pos)
	if grown != 0 {
		l.retained.Add(int64(grown))
	}
	g.tailN.Store(addPos(n, 1))

	// Automatic compaction schedule. The incremental merge (merge.go)
	// costs O(tail + touched lists) plus per-merge bookkeeping linear in
	// the node count and the extended-pair map — all independent of the
	// base — so once the tail clears CompactEvery it runs as soon as it
	// also covers that bookkeeping (tail >= (nodes + extended pairs)/8),
	// keeping appends amortized O(1). When the merge is ineligible — no
	// base yet, or the evicted prefix reached half the edge array and
	// must be reclaimed — the fallback rebuild costs O(live+tail), so it
	// additionally waits for tail >= live base/2 (the dead prefix is
	// free to drop and must not defer its own reclamation): rebuild
	// sizes then grow geometrically in the live set and appends stay
	// amortized O(1) either way. Tail edges are indexed just like base
	// edges, so a deferred compaction does not slow searches.
	if l.opts.CompactEvery > 0 && int(n)+1 >= l.opts.CompactEvery {
		nv := g.view()
		switch {
		case canMerge(nv) && !l.opts.disableMerge:
			if 8*len(nv.tail) >= len(g.labels)+len(g.base.pairExt) {
				l.publishCompacted(mergeGen(nv))
			}
		case int64(len(nv.tail))*2 >= int64(g.baseEdges)-int64(g.floor):
			l.publishCompacted(rebuildGen(nv))
		}
	}
	return nil
}

// EvictBefore drops every edge with timestamp < t (sliding-window
// retention). O(log E) now — it only advances the floor position — with the
// space reclaimed once the evicted prefix reaches half the edge array and
// a compaction takes the rebuild path. Nodes are retained so NodeIDs stay
// stable.
//
// tglint:writer
func (l *Live) EvictBefore(t int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	g := l.gen()
	v := g.view()
	if cut := cutBefore(v.baseEdges(), v.tail, t); cut > g.floor {
		ng := *g
		ng.floor = cut
		ng.lastTime = v.lastTime()
		ng.tailN = freshCounter(int32(len(v.tail)))
		l.cur.Store(&ng)
	}
}

// Compact folds the tail (and any nodes added since the last compaction)
// into the CSR base now instead of waiting for the CompactEvery threshold.
// Normally this is the incremental merge — the existing base is extended
// with the tail segment in O(tail + touched lists) — with the evicted
// prefix carried along; once the evicted prefix reaches half the edge
// array (or before the first compaction) it is a full rebuild instead,
// which reclaims the evicted space and rebases the floor to zero.
//
// tglint:writer
func (l *Live) Compact() {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := l.snap() // writer-exact under the mutex
	l.publishCompacted(compactGen(l.opts, v))
}

// publishCompacted publishes a freshly compacted (or rebuilt) generation
// and rebases the incremental retained-bytes counter to an exact walk of
// the new generation's storage. Compaction already does work linear in the
// folded tail (and, for rebuilds, the live set), so the O(nodes + pairs)
// walk does not change its complexity — and rebasing here keeps the
// incremental deltas drift-free across storage handoffs. Caller holds the
// writer mutex.
//
// tglint:writer
func (l *Live) publishCompacted(ng *generation) {
	l.cur.Store(ng)
	l.retained.Store(int64(ng.view().retainedBytes()))
}

// compactGen picks the compaction strategy for a view: the incremental
// merge when eligible, the reclaiming rebuild otherwise, or the generation
// unchanged when compaction would be a no-op. Caller holds the writer
// mutex.
func compactGen(opts LiveOptions, v genView) *generation {
	g := v.g
	merge := canMerge(v) && !opts.disableMerge
	if len(v.tail) == 0 {
		newNodes := g.base == nil && len(g.labels) > 0
		if g.base != nil && len(g.labels) > g.base.g.NumNodes() {
			newNodes = true
		}
		// An empty tail leaves nothing to fold: act only if there are
		// nodes to fold in, or an evicted prefix a rebuild would reclaim.
		if !newNodes && (g.floor == 0 || merge) {
			return g
		}
	}
	if merge {
		return mergeGen(v)
	}
	return rebuildGen(v)
}

// Snapshot materializes an immutable Engine over the current live edge set,
// for callers that want to run many queries against one consistent state.
// Like all reads it is lock-free; when the engine was just compacted — no
// tail edges, no evicted prefix, and no nodes added since — the base is
// returned directly with no copying.
func (l *Live) Snapshot() *Engine {
	v := l.snap()
	g := v.g
	if g.base != nil && len(v.tail) == 0 && g.floor == 0 && len(g.labels) == g.base.g.NumNodes() {
		return g.base
	}
	return NewEngine(v.buildGraph())
}

// LiveStats describes a Live engine's retention and compaction state at
// one instant (one view): how much of the edge set sits in the compacted
// CSR base versus the append-only tail, how far eviction has advanced,
// what the compactor has been doing, and how much storage the engine (and
// any slow readers) retain. All counts are edges unless stated otherwise.
//
// Every field is O(1) to produce. Nodes through LastCompactTail are carried
// by (or derived from) the pinned generation view; RetainedBytes is the
// writer-maintained incremental counter (every mutation folds its storage
// delta in, every compaction rebases it to an exact walk); only
// ActiveReaders and OldestReaderLag are derived from the fixed-size reader
// table rather than the view. Stats is therefore cheap enough to read per
// batch — tgminerd's admission control does exactly that.
//
// The JSON field names are a stable wire contract shared by tgminerd's
// /v1/statsz endpoint and examples/monitor; renaming one is a breaking
// protocol change (TestLiveStatsJSONRoundTrip pins the set).
type LiveStats struct {
	Nodes     int   `json:"nodes"`     // nodes ever added (evicted edges keep their nodes)
	BaseEdges int   `json:"baseEdges"` // edges held by the CSR base, including any evicted prefix
	TailLen   int   `json:"tailLen"`   // edges in the append-only tail awaiting compaction
	Floor     int   `json:"floor"`     // global position of the first live edge; earlier ones are evicted but not yet reclaimed
	LiveEdges int   `json:"liveEdges"` // non-evicted edges (BaseEdges + TailLen - Floor)
	FirstTime int64 `json:"firstTime"` // oldest live (non-evicted) timestamp; -1 when empty
	LastTime  int64 `json:"lastTime"`  // largest appended timestamp; -1 when empty

	Compactions     int `json:"compactions"`     // compactions since creation
	Merges          int `json:"merges"`          // of which took the incremental merge path (the rest were reclaiming rebuilds)
	LastCompactTail int `json:"lastCompactTail"` // tail edges folded by the most recent compaction

	// RetainedBytes approximates the bytes of storage the engine currently
	// keeps alive: base edge array and CSR indexes, node labels, tail
	// backing array, and tail position lists. Maintained incrementally by
	// writers (O(1) to read); under concurrent ingest it may run a
	// mutation ahead of the pinned view, exactly as the old recomputed
	// walk did (list capacities were always read live). Readers pinning
	// older generations retain their (pre-compaction) storage on top of
	// this; watch OldestReaderLag for that.
	RetainedBytes int `json:"retainedBytes"`
	// ActiveReaders counts queries currently running against some view of
	// this engine (a stream counts until its consumer finishes). Best
	// effort: at most 64 readers are tracked, further ones go uncounted.
	ActiveReaders int `json:"activeReaders"`
	// OldestReaderLag is the number of edges appended since the oldest
	// active reader's snapshot was taken (0 when idle). A large or growing
	// value means a slow or paused reader is pinning old generations —
	// and, across compactions, their pre-compaction storage — alive.
	OldestReaderLag int `json:"oldestReaderLag"`
}

// Stats reports the current view's retention and compaction state. Lock
// free and O(1): the view-derived fields are mutually consistent (one
// view), RetainedBytes reads the writer-maintained incremental counter,
// and the reader fields scan the fixed-size reader table. Cheap enough to
// call per append or per admission decision.
//
// tglint:snapshot
func (l *Live) Stats() LiveStats {
	v := l.snap()
	g := v.g
	readers, oldestEnd := l.readers.oldest()
	lag := 0
	if readers > 0 {
		if d := int(v.end() - oldestEnd); d > 0 {
			lag = d
		}
	}
	firstTime := int64(-1)
	if v.numEdges() > 0 {
		firstTime = v.edgeAt(g.floor).Time
	}
	return LiveStats{
		Nodes:           len(g.labels),
		BaseEdges:       int(g.baseEdges),
		TailLen:         len(v.tail),
		Floor:           int(g.floor),
		LiveEdges:       v.numEdges(),
		FirstTime:       firstTime,
		LastTime:        v.lastTime(),
		Compactions:     g.compactions,
		Merges:          g.merges,
		LastCompactTail: g.lastCompactTail,
		RetainedBytes:   int(l.retained.Load()),
		ActiveReaders:   readers,
		OldestReaderLag: lag,
	}
}

// retainedBytes approximates the storage the view's generation keeps
// alive. O(nodes + pairs): it walks the tail position lists. This is the
// reference accounting for Live.retained: compaction rebases the
// incremental counter to this walk, and the stats differential suite pins
// the counter byte-equal to it after every mutation — Stats itself never
// calls it.
//
// tglint:ignore genaccess capacity accounting reads len(tailArr), which is immutable per generation (only the contents are writer-owned)
func (v genView) retainedBytes() int {
	g := v.g
	b := engineRetainedBytes(g.base)
	b += 4 * len(g.labels)             // labels
	b += edgeBytes * len(g.tailArr)    // tail backing array (full capacity)
	b += 2 * ptrBytes * len(g.tailOut) // tailOut/tailIn pointer slices
	for _, pl := range g.tailOut {
		b += pl.capBytes()
	}
	for _, pl := range g.tailIn {
		b += pl.capBytes()
	}
	for _, pl := range g.pair {
		b += pl.capBytes()
	}
	return b
}

const (
	edgeBytes = 16 // tgraph.Edge: two int32 node IDs + one int64 timestamp
	ptrBytes  = 8
)

// engineRetainedBytes approximates an Engine's storage: the host graph's
// edge and label arrays plus the flat CSR (or merged-mode) indexes. Owned
// merged-mode lists count here; lists shared with the flat ancestor are
// counted once via the ancestor.
func engineRetainedBytes(e *Engine) int {
	if e == nil {
		return 0
	}
	b := edgeBytes*e.g.NumEdges() + 4*e.g.NumNodes()
	b += 4 * (len(e.outOff) + len(e.outPos) + len(e.inOff) + len(e.inPos))
	b += 4*len(e.pairPos) + 4*len(e.pairOff) + 8*len(e.pairKeys) + 8*len(e.pairSpan)
	if e.outList != nil {
		b += 2 * (ptrBytes + 2) * len(e.outList) // list headers + owned bits
		for i := range e.outList {
			if e.outOwned[i] {
				b += 4 * len(e.outList[i])
			}
			if e.inOwned[i] {
				b += 4 * len(e.inList[i])
			}
		}
	}
	for _, seg := range e.pairExt {
		if seg.owned {
			b += 4 * len(seg.pos)
		}
	}
	if e.flat != nil && e.flat != e {
		b += engineRetainedBytes(e.flat)
	}
	return b
}

// NumNodes reports the number of nodes ever added.
func (l *Live) NumNodes() int { return len(l.gen().labels) }

// NumEdges reports the number of live (non-evicted) edges.
func (l *Live) NumEdges() int { return l.snap().numEdges() }

// LastTime reports the largest appended timestamp (-1 when empty).
func (l *Live) LastTime() int64 { return l.snap().lastTime() }
