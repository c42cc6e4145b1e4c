package search

// This file defines the cut — the only thing a matcher runs on — and the
// query surface every host shares.
//
// A cut is a query's pinned snapshot of its host: one genView per shard
// (each a per-shard prefix-consistent snapshot) plus the widest node label
// table among them. A static Engine pins a one-view cut whose generation has
// the engine as base and an empty tail, a Live a one-view cut of its current
// generation, a ShardedLive one view per shard. The matchers (stream.go,
// search.go, labelset.go) see only the cut, so there is one temporal
// recursion, one non-temporal recursion and one label-set path for all three
// hosts. The number of views decides how root candidates are scheduled —
// one view runs its root loop inline on the caller's goroutine, N views fan
// out one worker per view and merge (sharded.go) — never which matcher runs.

import (
	"context"
	"iter"
	"sync"

	"tgminer/internal/gspan"
	"tgminer/internal/tgraph"
)

// host is what the query methods need from an engine: append its pinned
// view(s), and any reader-accounting registration, to a cut.
type host interface {
	pin(c *cut)
}

// cut is a query's pinned cross-shard snapshot. A node present in labels
// may be missing from an individual view (its AddNode had not reached that
// shard when the view was pinned); per-view iteration guards on the view's
// own node count.
type cut struct {
	views  []genView
	labels []tgraph.Label
	slots  []readerSlot // reader-accounting registrations to release
}

// readerSlot is one reader-accounting registration taken while pinning.
type readerSlot struct {
	r *readerSlots
	i int
}

// hasNode reports whether view i knows node n.
func (c *cut) hasNode(i int, n tgraph.NodeID) bool {
	return int(n) < len(c.views[i].g.labels)
}

// scratch is one search's pooled working state: the epoch-stamped used-node
// set, the pattern-node bindings, the per-depth cursor table and — for the
// scratch the query method leases — the pinned cut itself, so a query on a
// warmed host allocates none of them. A fan-out worker leases a scratch of
// its own and runs against the query's cut.
type scratch struct {
	cut
	used    usedSet
	mapping []tgraph.NodeID
	cur     []posCursor // depth-major: depth d owns cur[d*views : (d+1)*views]
	posUsed []int64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// pinCut leases a scratch and pins the host's current cut into it.
func pinCut(h host) *scratch {
	s := scratchPool.Get().(*scratch)
	h.pin(&s.cut)
	return s
}

// release unregisters the cut's readers, drops every reference to pinned
// storage (a pooled scratch must not keep old generations alive) and returns
// the scratch to the pool.
func (s *scratch) release() {
	for _, sl := range s.slots {
		sl.r.release(sl.i)
	}
	clear(s.views)
	clear(s.slots)
	clear(s.cur)
	s.cut = cut{views: s.views[:0], slots: s.slots[:0]}
	scratchPool.Put(s)
}

// prepare readies the scratch for one search over c: an empty used set sized
// for the cut's node table, patternNodes unbound pattern nodes, and depths
// rows of cursors, one per view.
func (s *scratch) prepare(c *cut, patternNodes, depths int) {
	s.used.reset(len(c.labels))
	s.mapping = s.mapping[:0]
	for i := 0; i < patternNodes; i++ {
		s.mapping = append(s.mapping, -1)
	}
	if n := depths * len(c.views); cap(s.cur) < n {
		s.cur = make([]posCursor, n)
	} else {
		s.cur = s.cur[:n]
	}
}

// cursors returns depth d's cursor row for a cut of n views.
func (s *scratch) cursors(d, n int) []posCursor { return s.cur[d*n : (d+1)*n] }

// outSegs returns the two position segments (base CSR, tail) of node n's
// out-edges in this view. Caller guarantees n is in range. The tail segment
// may run past the view's end; cursors stop there.
func (v genView) outSegs(n tgraph.NodeID) (base, tail []int32) {
	if v.g.base != nil && int(n) < v.g.base.g.NumNodes() {
		base = v.g.base.outAt(n)
	}
	if len(v.tail) > 0 {
		tail = v.g.tailOut[n].view()
	}
	return base, tail
}

// inSegs returns the two position segments of node n's in-edges.
func (v genView) inSegs(n tgraph.NodeID) (base, tail []int32) {
	if v.g.base != nil && int(n) < v.g.base.g.NumNodes() {
		base = v.g.base.inAt(n)
	}
	if len(v.tail) > 0 {
		tail = v.g.tailIn[n].view()
	}
	return base, tail
}

// pairSegs returns the two position segments of edges with endpoint labels
// (src, dst).
func (v genView) pairSegs(src, dst tgraph.Label) (base, tail []int32) {
	if v.g.base != nil {
		base = v.g.base.pairPositions(src, dst)
	}
	if len(v.tail) > 0 {
		if pl := v.g.pair[pairKey{src, dst}]; pl != nil {
			tail = pl.view()
		}
	}
	return base, tail
}

// posCursor pulls the live positions of one per-view index list (out, in,
// or label pair) in increasing position order: the base CSR segment chained
// with the tail segment (every tail position exceeds every base position),
// stopping at the view's end. The head edge is cached so minCursor can merge
// cursors across views in global time order.
type posCursor struct {
	shard      int // index of the view in the cut
	base, tail []int32
	bi, ti     int
	baseEdges  []tgraph.Edge // the view's base edge array: positions [0, len)
	tailEdges  []tgraph.Edge // the view's tail: positions [len(baseEdges), end)
	floor, end int32         // the view's live positions are [floor, end)
	pos        int32
	edge       tgraph.Edge
	ok         bool
}

// open points the cursor at a view's two segments without positioning it.
func (c *posCursor) open(v genView, shard int, base, tail []int32) {
	c.shard = shard
	c.base, c.tail = base, tail
	c.baseEdges, c.tailEdges = v.baseEdges(), v.tail
	c.floor, c.end = v.g.floor, v.end()
}

// seekAfter returns the index of the first element of list greater than
// after (positions are strictly increasing).
func seekAfter(list []int32, after int32) int {
	if len(list) == 0 || list[0] > after { // nothing to skip: the common root scan
		return 0
	}
	lo, hi := 1, len(list)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); list[m] > after {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// seek positions the cursor at the first position strictly greater than
// afterPos (clamped to the view's eviction floor).
func (c *posCursor) seek(afterPos int32) {
	afterPos = max(afterPos, c.floor-1)
	c.bi = seekAfter(c.base, afterPos)
	c.ti = seekAfter(c.tail, afterPos)
	c.settle()
}

// seekTime positions the cursor at the first position whose edge time is
// strictly greater than afterTime — the cross-view ordering key (position
// order equals time order within a view).
func (c *posCursor) seekTime(afterTime int64) {
	c.seek(cutBefore(c.baseEdges, c.tailEdges, afterTime+1) - 1)
}

func (c *posCursor) settle() {
	switch {
	case c.bi < len(c.base):
		c.pos = c.base[c.bi]
		c.edge = c.baseEdges[c.pos]
	case c.ti < len(c.tail) && c.tail[c.ti] < c.end:
		c.pos = c.tail[c.ti]
		c.edge = c.tailEdges[int(c.pos)-len(c.baseEdges)]
	default:
		c.ok = false
		return
	}
	c.ok = true
}

func (c *posCursor) advance() {
	if c.bi < len(c.base) {
		c.bi++
	} else {
		c.ti++
	}
	c.settle()
}

// minCursor returns the index of the live cursor with the smallest head
// timestamp, or -1 when all are exhausted. Ties (a violation of the
// global-uniqueness clock contract) break deterministically toward the
// lowest view index.
func minCursor(cs []posCursor) int {
	best := -1
	var bt int64
	for i := range cs {
		if cs[i].ok && (best == -1 || cs[i].edge.Time < bt) {
			best = i
			bt = cs[i].edge.Time
		}
	}
	return best
}

// candidates opens cs on the index lists that can hold a host edge for a
// pattern edge whose endpoints are bound to ms / md (-1 = unbound) and carry
// srcLab / dstLab, and returns the cursors to merge, still unpositioned.
// Edges are owned by their source's shard, so a bound source names exactly
// one out-list; a bound destination's in-edges and an unbound edge's
// label-pair candidates may sit on every view.
func (c *cut) candidates(cs []posCursor, ms, md tgraph.NodeID, srcLab, dstLab tgraph.Label) []posCursor {
	if ms != -1 {
		i := tgraph.NodeShard(ms, len(c.views))
		if !c.hasNode(i, ms) {
			return nil
		}
		base, tail := c.views[i].outSegs(ms)
		cs[0].open(c.views[i], i, base, tail)
		return cs[:1]
	}
	for i, v := range c.views {
		var base, tail []int32
		switch {
		case md == -1:
			base, tail = v.pairSegs(srcLab, dstLab)
		case c.hasNode(i, md):
			base, tail = v.inSegs(md)
		}
		cs[i].open(v, i, base, tail)
	}
	return cs
}

// Queries is the query surface of every host — Engine, Live and ShardedLive
// embed it — declared once: each method pins the host's current cut, runs
// the family's one matcher over it, and unpins. Queries are lock-free and
// safe for concurrent use; a query observes the one consistent edge set its
// cut pinned for its whole lifetime and never blocks a live host's writers.
type Queries struct{ h host }

// StreamTemporal yields the distinct intervals where the temporal pattern —
// optionally under Options.Constraints — embeds with edge order preserved,
// in discovery order (ascending Start), as the backtracking search finds
// them. The stream holds O(matches per root) scratch, independent of how
// many matches are yielded.
//
// Each element is (match, nil). Three terminations are possible: the stream
// simply ends (search exhausted), the final element is (zero Match, ctx.Err())
// after a cancellation, or (zero Match, ErrTruncated) when Options.Limit
// matches were yielded. Invalid constraints yield a single
// (zero Match, validation error) element. Breaking out of the range at any
// point releases the pooled scratch and the pinned cut immediately.
//
// On a live host the stream runs against the cut pinned when it started:
// Append/EvictBefore/Compact may be called from inside the consumer loop
// body, and their effects become visible to the next query, not the running
// stream.
func (q *Queries) StreamTemporal(ctx context.Context, p *tgraph.Pattern, opts Options) iter.Seq2[Match, error] {
	opts = opts.normalize()
	return func(yield func(Match, error) bool) {
		if p.NumEdges() == 0 {
			return
		}
		prog, err := compileProgram(p, opts.Constraints)
		if err != nil {
			yield(Match{}, err)
			return
		}
		s := pinCut(q.h)
		defer s.release()
		streamTemporal(ctx, s, prog, opts, yield)
	}
}

// FindTemporalContext collects StreamTemporal into a deduplicated Result in
// (Start, End) order. On cancellation it returns the matches found so far
// together with ctx.Err().
func (q *Queries) FindTemporalContext(ctx context.Context, p *tgraph.Pattern, opts Options) (Result, error) {
	return collectStream(q.StreamTemporal(ctx, p, opts))
}

// FindTemporal is the background-context form of FindTemporalContext.
func (q *Queries) FindTemporal(p *tgraph.Pattern, opts Options) Result {
	r, _ := q.FindTemporalContext(context.Background(), p, opts)
	return r
}

// FindNonTemporalContext reports the distinct intervals where the collapsed
// (non-temporal) pattern embeds regardless of edge order, bounded by the
// window. The search polls the context cooperatively (once per root
// candidate and every ctxCheckMask+1 steps) and on cancellation returns the
// distinct intervals found so far together with ctx.Err().
func (q *Queries) FindNonTemporalContext(ctx context.Context, p *gspan.Pattern, opts Options) (Result, error) {
	opts = opts.normalize()
	if p.NumEdges() == 0 {
		return Result{}, nil
	}
	// Up-front poll: the in-recursion probe is throttled, so a search over
	// a small host could otherwise finish without noticing a dead context.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s := pinCut(q.h)
	defer s.release()
	return findNonTemporal(ctx, s, p, opts)
}

// FindNonTemporal is the background-context form of FindNonTemporalContext.
func (q *Queries) FindNonTemporal(p *gspan.Pattern, opts Options) Result {
	r, _ := q.FindNonTemporalContext(context.Background(), p, opts)
	return r
}

// FindLabelSetContext reports the minimal time windows containing distinct
// nodes that cover the query label multiset (the NodeSet baseline). The
// sweep polls the context cooperatively and on cancellation returns the
// matches found so far together with ctx.Err().
func (q *Queries) FindLabelSetContext(ctx context.Context, labels []tgraph.Label, opts Options) (Result, error) {
	opts = opts.normalize()
	if len(labels) == 0 {
		return Result{}, nil
	}
	// Up-front poll: with no label events the sweep never polls, and a
	// dead context would be silently swallowed.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s := pinCut(q.h)
	defer s.release()
	return findLabelSet(ctx, &s.cut, labels, opts)
}

// FindLabelSet is the background-context form of FindLabelSetContext.
func (q *Queries) FindLabelSet(labels []tgraph.Label, opts Options) Result {
	r, _ := q.FindLabelSetContext(context.Background(), labels, opts)
	return r
}
