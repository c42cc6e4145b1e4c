package search

// This file is the temporal matcher: the one driver of the compiled step
// program (automaton.go), run over a pinned cut (cut.go). Matches flow to a
// yield callback as the search finds them, so a monitoring pipeline ranges
// over StreamTemporal directly and never pays memory proportional to the
// match count; FindTemporal(Context) is a thin collector over the stream.
//
// Timestamps are the total order the driver runs on: position order equals
// time order inside each view, and a cut of several views is the time-merged
// union of their edge sequences, so continuation candidates are drawn from
// per-view cursors merged in time order (one cursor on a one-view cut).
// Root candidates live on the view that owns their first edge; roots(i)
// walks view i's. A one-view cut runs roots(0) inline on the caller's
// goroutine; an N-view cut runs one roots(i) per worker and merges the
// workers' streams back into discovery order (sharded.go).

import (
	"context"
	"errors"
	"iter"
	"sort"
	"sync"

	"tgminer/internal/tgraph"
)

// ErrTruncated terminates a match stream whose Options.Limit was reached:
// it is yielded as the final (zero Match, ErrTruncated) element. It is only
// emitted once the search has seen a further distinct match beyond the cap,
// so a stream with exactly Limit distinct matches ends without it.
var ErrTruncated = errors.New("search: match stream truncated at Options.Limit")

// ctxCheckMask throttles context polls on the recursion hot path: the
// context is consulted once every ctxCheckMask+1 search steps (plus once per
// root candidate), bounding cancellation latency without paying a
// synchronized Err() load per explored edge.
const ctxCheckMask = 1023

// rootDedup forwards distinct match intervals to an emit callback with a
// cap. Matches found under one root (one binding of the pattern's first
// edge) all share Start — the root edge's timestamp — and roots have
// pairwise-distinct timestamps by the host's strict total edge order, so
// deduplicating End values within a root deduplicates globally while keeping
// only O(matches per root) state, independent of the total match count.
type rootDedup struct {
	emit      func(Match) bool // false stops the search (consumer break)
	limit     int
	count     int
	ends      map[int64]struct{} // End values seen under the current root
	truncated bool
	halted    bool
}

// endsPool recycles the per-root dedup maps across queries (and across
// static and live engines): a map keeps its grown bucket array, so after
// warm-up a query allocates nothing for deduplication no matter how many
// matches it yields. Maps are returned cleared.
var endsPool = sync.Pool{New: func() any { return make(map[int64]struct{}) }}

func newRootDedup(limit int, emit func(Match) bool) *rootDedup {
	return &rootDedup{emit: emit, limit: limit, ends: endsPool.Get().(map[int64]struct{})}
}

// release returns the dedup map to the pool; the rootDedup must not be used
// afterwards.
func (r *rootDedup) release() {
	clear(r.ends)
	endsPool.Put(r.ends)
	r.ends = nil
}

func (r *rootDedup) nextRoot() { clear(r.ends) }

func (r *rootDedup) add(m Match) {
	// Duplicate check first: a duplicate of an already-yielded interval is
	// never evidence of truncation, so a stream whose distinct matches
	// number exactly Limit ends clean no matter how many duplicate
	// candidates arrive after the cap. Only a distinct match beyond the
	// cap proves truncation and stops the search, which therefore runs on
	// at the cap until it completes one more match or exhausts — an exact
	// Truncated bit costs exactly the search for one further match (the
	// first completed match in any later root is distinct, since roots
	// have pairwise-distinct Starts). Callers using Limit as a hard work
	// bound rather than a result cap should bound work via ctx instead.
	if _, dup := r.ends[m.End]; dup {
		return
	}
	if r.count >= r.limit {
		r.truncated = true
		return
	}
	r.ends[m.End] = struct{}{}
	r.count++
	if !r.emit(m) {
		r.halted = true
	}
}

func (r *rootDedup) full() bool { return r.halted || r.truncated }

// runCore is the state the temporal and non-temporal matchers share: the
// cut they run on, the leased scratch (bindings, used-node set, cursor
// table), and cooperative-cancellation bookkeeping. The done flag caches
// "stop searching" (limit reached, consumer break, or context cancellation)
// so the recursion probes a plain bool instead of re-deriving it.
type runCore struct {
	c       *cut
	s       *scratch
	done    bool
	ctx     context.Context
	ctxDone <-chan struct{} // ctx.Done()
	ctxErr  error
	steps   int
}

func newRunCore(ctx context.Context, c *cut, s *scratch) runCore {
	return runCore{c: c, s: s, ctx: ctx, ctxDone: ctx.Done()}
}

// bind binds pattern nodes ps -> ge.Src and pd -> ge.Dst (ge must already
// be label-compatible), keeping the assignment injective. It reports which
// of the two it newly bound, for unbind to undo, and ok == false — with
// nothing left bound — when ge conflicts with the bindings so far.
func (r *runCore) bind(ps, pd tgraph.NodeID, ge tgraph.Edge) (boundSrc, boundDst, ok bool) {
	mapping, used := r.s.mapping, &r.s.used
	if mapping[ps] == -1 {
		if used.has(ge.Src) {
			return false, false, false
		}
		mapping[ps] = ge.Src
		used.add(ge.Src)
		boundSrc = true
	} else if mapping[ps] != ge.Src {
		return false, false, false
	}
	if ps != pd {
		if mapping[pd] == -1 && !used.has(ge.Dst) {
			mapping[pd] = ge.Dst
			used.add(ge.Dst)
			boundDst = true
		} else if mapping[pd] != ge.Dst { // bound elsewhere, or unbound (-1) with ge.Dst taken
			r.unbind(ps, pd, ge, boundSrc, false)
			return false, false, false
		}
	}
	return boundSrc, boundDst, true
}

// unbind undoes what a successful bind reported binding.
func (r *runCore) unbind(ps, pd tgraph.NodeID, ge tgraph.Edge, boundSrc, boundDst bool) {
	if boundSrc {
		r.s.mapping[ps] = -1
		r.s.used.remove(ge.Src)
	}
	if boundDst {
		r.s.mapping[pd] = -1
		r.s.used.remove(ge.Dst)
	}
}

// stepCancelled is the throttled in-recursion stop probe.
func (r *runCore) stepCancelled() bool {
	if r.done {
		return true
	}
	r.steps++
	return r.steps&ctxCheckMask == 0 && r.rootCancelled()
}

// rootCancelled polls the context (through its Done channel: cheaper than
// Err, which locks); the root loops call it once per root candidate.
func (r *runCore) rootCancelled() bool {
	if r.done {
		return true
	}
	select {
	case <-r.ctxDone:
		r.ctxErr = r.ctx.Err()
		r.done = true
		return true
	default:
		return false
	}
}

// temporalRun is one search of the compiled step program over a cut.
//
// match is the program driver: (k, rep) says "step k has matched rep
// occurrences so far". When rep satisfies the step's minimum the driver
// first tries advancing to step k+1 (so an optional or satisfied-repetition
// hop is skipped before further occurrences are scanned), then, while rep is
// below the step's maximum, scans for the next occurrence strictly later
// than the last bound edge within the step's guard interval. The guard's
// lower bound folds into the cursors' seek, and its upper bound early-exits
// the time-ordered candidate scan; both are no-ops for unconstrained steps,
// which therefore walk the plain fixed-sequence search.
type temporalRun struct {
	runCore
	prog      *program
	opts      Options
	res       *rootDedup
	startTime int64
}

// match extends a partial match whose last bound edge sits at position
// lastPos of view lastShard with time lastTime. depth is the number of host
// edges bound so far, NOT the step index: a repeated step scans at
// successive depths, so its nested scans never clobber an enclosing scan's
// cursors (the scratch sizes the table by the program's maximum occurrence
// count).
func (r *temporalRun) match(k, rep, depth, lastShard int, lastPos int32, lastTime int64) {
	if r.stepCancelled() {
		return
	}
	if k == len(r.prog.steps) {
		r.res.add(Match{Start: r.startTime, End: lastTime})
		if r.res.full() {
			r.done = true
		}
		return
	}
	st := &r.prog.steps[k]
	if rep >= st.minRep {
		r.match(k+1, 0, depth, lastShard, lastPos, lastTime)
		if r.done {
			return
		}
	}
	if rep >= st.maxRep {
		return
	}
	lo := st.loTime(r.startTime, lastTime)
	hi := st.hiTime(r.startTime, lastTime, r.opts.Window)
	if hi >= 0 && lo > hi {
		return
	}
	pe := st.pe
	ms, md := r.s.mapping[pe.Src], r.s.mapping[pe.Dst]
	cs := r.c.candidates(r.s.cursors(depth, len(r.c.views)), ms, md, st.srcLab, st.dstLab)
	for i := range cs {
		// Every candidate must be later than the last bound edge. On that
		// edge's own view "later" is "at a greater position", a seek within
		// the list; elsewhere, and whenever a guard's lower bound skips
		// ahead, it is a per-view time binary search.
		if c := &cs[i]; c.shard == lastShard && lo == lastTime+1 {
			c.seek(lastPos)
		} else {
			c.seekTime(lo - 1)
		}
	}
	for !r.done {
		i := minCursor(cs)
		if i < 0 {
			break
		}
		c := &cs[i]
		ge := c.edge
		if hi >= 0 && ge.Time > hi {
			break // merged order is global time order: nothing later fits
		}
		if (md == -1 || ge.Dst == md) && (pe.Src == pe.Dst) == (ge.Src == ge.Dst) &&
			r.c.labels[ge.Src] == st.srcLab && r.c.labels[ge.Dst] == st.dstLab {
			if bs, bd, ok := r.bind(pe.Src, pe.Dst, ge); ok {
				r.match(k, rep+1, depth+1, c.shard, c.pos, ge.Time)
				r.unbind(pe.Src, pe.Dst, ge, bs, bd)
			}
		}
		c.advance()
	}
}

// roots runs the search under every root candidate — a binding of the
// pattern's first edge — owned by view i, in time order. Matches under one
// root all share its start time and roots have pairwise-distinct times, so
// the per-root dedup in res is globally sufficient.
func (r *temporalRun) roots(i int) {
	first := &r.prog.steps[0]
	v := r.c.views[i]
	var c posCursor
	base, tail := v.pairSegs(first.srcLab, first.dstLab)
	c.open(v, i, base, tail)
	for c.seek(-1); c.ok && !r.rootCancelled(); c.advance() {
		r.res.nextRoot()
		ge := c.edge
		if (first.pe.Src == first.pe.Dst) != (ge.Src == ge.Dst) {
			continue
		}
		if bs, bd, ok := r.bind(first.pe.Src, first.pe.Dst, ge); ok {
			r.startTime = ge.Time
			r.match(0, 1, 1, i, c.pos, ge.Time)
			r.unbind(first.pe.Src, first.pe.Dst, ge, bs, bd)
		}
	}
}

// runTemporal runs view i's roots on a leased scratch, emitting each
// distinct match through emit (false stops the search), and reports whether
// a further distinct match beyond opts.Limit exists and any context error.
func runTemporal(ctx context.Context, c *cut, s *scratch, i int, prog *program, opts Options, emit func(Match) bool) (truncated bool, err error) {
	res := newRootDedup(opts.Limit, emit)
	defer res.release()
	s.prepare(c, prog.nodes, prog.maxOccurrences()+1)
	r := &temporalRun{runCore: newRunCore(ctx, c, s), prog: prog, opts: opts, res: res}
	r.roots(i)
	return res.truncated, r.ctxErr
}

// streamTemporal schedules the temporal search over the pinned cut in s: a
// one-view cut runs its roots inline on this goroutine, an N-view cut fans
// out (sharded.go). Either way the same temporalRun.match does the work.
func streamTemporal(ctx context.Context, s *scratch, prog *program, opts Options, yield func(Match, error) bool) {
	halted := false
	emit := func(m Match) bool {
		halted = !yield(m, nil)
		return !halted
	}
	var truncated bool
	var err error
	if len(s.views) == 1 {
		truncated, err = runTemporal(ctx, &s.cut, s, 0, prog, opts, emit)
	} else {
		truncated, err = fanOutTemporal(ctx, &s.cut, prog, opts, emit)
	}
	switch {
	case halted: // consumer broke out; say nothing more
	case err != nil:
		yield(Match{}, err)
	case truncated:
		yield(Match{}, ErrTruncated)
	}
}

// collectStream drains a match stream into a sorted Result, translating the
// terminal stream element into (Truncated, error).
func collectStream(seq iter.Seq2[Match, error]) (Result, error) {
	var res Result
	var err error
	for m, serr := range seq {
		switch {
		case serr == nil:
			res.Matches = append(res.Matches, m)
		case errors.Is(serr, ErrTruncated):
			res.Truncated = true
		default:
			err = serr
		}
	}
	sortMatches(res.Matches)
	return res, err
}

// sortMatches orders match intervals by (Start, End).
func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Start != ms[j].Start {
			return ms[i].Start < ms[j].Start
		}
		return ms[i].End < ms[j].End
	})
}
