package search

// This file implements ShardedLive, the multi-writer form of the live
// engine — N independent Live shards, each with its own writer mutex,
// generation chain, compaction schedule, and eviction floor — and the
// planner that schedules a query's root loop over a cut of several views.
// Edges are partitioned by their SOURCE node (tgraph.NodeShard over the
// global NodeID), so K producers whose entities hash to different shards
// append fully in parallel — the single-Live design serializes every writer
// on one mutex and caps ingest at one core no matter how many producers
// exist (BenchmarkShardedAppend).
//
// Identity. NodeIDs are global: AddNode registers every node on every
// shard under the same ID, so an edge owned by shard(src) can name a
// destination that "belongs" to any other shard and every shard resolves
// it to the same label without remapping. Only edge ownership is sharded.
//
// Ordering and consistency. Within a shard, Append enforces the usual
// strictly-increasing-timestamp total order. Across shards nothing is
// enforced at append time — that independence is the whole point — and the
// planner instead treats TIMESTAMPS as the global total order (position
// order equals time order inside each shard, so the time-merged union is
// exactly the edge sequence a single engine would hold). For queries to
// answer exactly as a single Live — the differential property tests pin
// ShardedLive(n) == Live == static Engine for all three families —
// timestamps must be globally unique, the same contract the single-writer
// engines already document ("strictly increasing across appends");
// sequentialize concurrent clocks upstream. If the contract is violated,
// cross-shard ties break deterministically by shard index and each answer
// is still well-defined, just not equal to any single-engine history.
//
// The cut. A query pins one generation per shard atomically (one atomic
// load each) — a "consistent-enough" cut: each shard contributes a prefix
// of its own append history (per-shard prefix consistency), but the cut
// carries no cross-shard barrier, so a query may observe shard A's edge at
// t=100 while missing shard B's at t=99 that was appended concurrently.
// Per-shard prefixes are exactly what independent producers can promise;
// anything stronger would reintroduce the cross-shard synchronization
// sharding exists to remove.
//
// Queries. A ShardedLive is a host of the shared query surface (Queries,
// cut.go) whose pin contributes one view per shard, so its queries run the
// same matchers as Engine's and Live's over that cut. Root candidates of a
// query live where their first edge lives, so with several views the root
// loop fans out (fanOut, below) — one worker per view, the same
// one-worker-per-core shape as the seed-level mining pool — and every worker
// matches CONTINUATION edges against the whole cut: out-edges of a bound
// node live only on its own shard (ownership is by source), while in-edges
// and label-pair candidates merge across all views in time order through
// posCursor/minCursor. Workers emit key-ordered match streams that
// mergePlan merges back into the exact sequential discovery order,
// deduplicating (temporal dedup is free: roots on different views have
// distinct start times; non-temporal intervals dedup in the merger) and
// enforcing Options.Limit globally with the same exact-Truncated semantics
// as an inline run. A one-shard ShardedLive pins a one-view cut and so runs
// inline like a plain Live.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tgminer/internal/gspan"
	"tgminer/internal/tgraph"
)

// ShardedLive is a Live engine sharded by source node for multi-writer
// ingestion. Appends to different shards proceed in parallel (per-shard
// writer mutexes); queries run lock-free against a pinned per-shard
// generation cut and answer exactly as a single Live over the time-merged
// union would, for all three query families. See the file comment for the
// consistency model.
type ShardedLive struct {
	Queries

	shards []*Live

	mu sync.Mutex // serializes AddNode's cross-shard registration

	// lastGlobal tracks the maximum timestamp ever offered to Append, for
	// best-effort duplicate detection (see Append). -1 when empty.
	lastGlobal atomic.Int64
}

// NewSharded returns an empty sharded live engine with opts.Shards shards
// (0 = GOMAXPROCS; 1 yields a single shard, whose one-view cuts run every
// query inline exactly as a plain Live's do). Each shard gets its own
// LiveOptions copy, so compaction schedules run independently.
func NewSharded(opts LiveOptions) *ShardedLive {
	n := opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	l := &ShardedLive{shards: make([]*Live, n)}
	l.lastGlobal.Store(-1) // timestamps are non-negative; 0 is a legal first tick
	for i := range l.shards {
		l.shards[i] = NewLive(opts)
	}
	l.h = l
	return l
}

// Shards reports the number of shards.
func (l *ShardedLive) Shards() int { return len(l.shards) }

// shardOf routes a source node to its owning shard.
func (l *ShardedLive) shardOf(src tgraph.NodeID) *Live {
	return l.shards[tgraph.NodeShard(src, len(l.shards))]
}

// AddNode appends a node with the given label and returns its global
// NodeID. The node registers on every shard under the same ID (the
// cross-shard identity contract), so node creation serializes across
// shards; edge appends do not.
func (l *ShardedLive) AddNode(label tgraph.Label) tgraph.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.shards[0].AddNode(label)
	for _, sh := range l.shards[1:] {
		if got := sh.AddNode(label); got != id {
			// Unreachable: AddNode holds the registration mutex and every
			// shard appends nodes in the same order.
			panic(fmt.Sprintf("search: sharded node table diverged (%d vs %d)", got, id))
		}
	}
	return id
}

// Append records a directed edge src -> dst at time t on src's shard.
// Appends to different shards run fully in parallel; timestamps must be
// strictly increasing per shard (enforced) and globally unique for exact
// single-engine query equivalence (the caller's clock contract — see the
// file comment). Cross-shard arrival order is deliberately free: writers
// with independent clocks interleave, so t may be below another shard's
// latest. Duplicates are rejected best-effort against the global maximum —
// exact for a sequential caller (restoring the out-of-order error a
// single Live would have returned for a reused tick), while racing
// writers that offer the same timestamp concurrently may both land and
// surface later (deterministic shard-index tie-breaks in queries, panic
// in Snapshot). Both endpoints must already be registered via AddNode.
func (l *ShardedLive) Append(src, dst tgraph.NodeID, t int64) error {
	if len(l.shards) > 1 { // one shard: the Live engine's own check is exact
		for {
			last := l.lastGlobal.Load()
			if t == last {
				return fmt.Errorf("search: sharded append duplicate timestamp t=%d (timestamps must be globally unique across shards)", t)
			}
			if t < last || l.lastGlobal.CompareAndSwap(last, t) {
				break
			}
		}
	}
	return l.shardOf(src).Append(src, dst, t)
}

// EvictBefore drops every edge with timestamp < t on all shards
// (sliding-window retention).
func (l *ShardedLive) EvictBefore(t int64) {
	for _, sh := range l.shards {
		sh.EvictBefore(t)
	}
}

// Compact folds every shard's tail into its CSR base now.
func (l *ShardedLive) Compact() {
	for _, sh := range l.shards {
		sh.Compact()
	}
}

// NumNodes reports the number of nodes ever added.
func (l *ShardedLive) NumNodes() int { return l.shards[0].NumNodes() }

// NumEdges reports the number of live (non-evicted) edges across shards.
func (l *ShardedLive) NumEdges() int {
	n := 0
	for _, sh := range l.shards {
		n += sh.NumEdges()
	}
	return n
}

// LastTime reports the largest appended timestamp across shards (-1 when
// empty).
func (l *ShardedLive) LastTime() int64 {
	last := int64(-1)
	for _, sh := range l.shards {
		if t := sh.LastTime(); t > last {
			last = t
		}
	}
	return last
}

// ShardStats reports each shard's retention and compaction state
// (per-shard views, pinned independently).
func (l *ShardedLive) ShardStats() []LiveStats {
	out := make([]LiveStats, len(l.shards))
	for i, sh := range l.shards {
		out[i] = sh.Stats()
	}
	return out
}

// Stats aggregates the per-shard stats: edge counts, floors (total
// evicted-but-unreclaimed edges), compaction counters, and retained bytes
// sum across shards (the node table is replicated per shard, and
// RetainedBytes honestly includes that); Nodes is the global node count,
// LastTime the global maximum. ActiveReaders and OldestReaderLag take the
// per-shard MAXIMUM, since one cross-shard query registers on every shard.
// O(shards): per-shard Stats is O(1), so aggregation is cheap enough to
// run on every ingest batch (tgminerd's admission control does).
func (l *ShardedLive) Stats() LiveStats {
	var agg LiveStats
	agg.FirstTime = -1
	agg.LastTime = -1
	for i, sh := range l.shards {
		s := sh.Stats()
		if i == 0 {
			agg.Nodes = s.Nodes
		}
		agg.BaseEdges += s.BaseEdges
		agg.TailLen += s.TailLen
		agg.Floor += s.Floor
		agg.LiveEdges += s.LiveEdges
		if s.FirstTime >= 0 && (agg.FirstTime < 0 || s.FirstTime < agg.FirstTime) {
			agg.FirstTime = s.FirstTime
		}
		if s.LastTime > agg.LastTime {
			agg.LastTime = s.LastTime
		}
		agg.Compactions += s.Compactions
		agg.Merges += s.Merges
		agg.LastCompactTail += s.LastCompactTail
		agg.RetainedBytes += s.RetainedBytes
		if s.ActiveReaders > agg.ActiveReaders {
			agg.ActiveReaders = s.ActiveReaders
		}
		if s.OldestReaderLag > agg.OldestReaderLag {
			agg.OldestReaderLag = s.OldestReaderLag
		}
	}
	return agg
}

// CutKey reports one generation-cut key per shard (see Live.CutKey): two
// equal key slices read from the same engine denote byte-identical live
// edge sets on every shard, and therefore identical answers to every query
// — the foundation of tgminerd's generation-keyed result cache. Each
// shard's key is one atomic view capture; the slice as a whole carries the
// same per-shard prefix consistency as a query's pinned cut.
func (l *ShardedLive) CutKey() []CutKey {
	out := make([]CutKey, len(l.shards))
	for i, sh := range l.shards {
		out[i] = sh.CutKey()
	}
	return out
}

// pin captures one generation per shard (an atomic load each) and registers
// the query with every shard's reader accounting.
func (l *ShardedLive) pin(c *cut) {
	for _, sh := range l.shards {
		sh.pin(c)
	}
}

// taggedMatch is one worker-emitted match plus its merge key: the time of
// the root (first-edge) candidate it was found under, which is the
// sequential discovery order across views.
type taggedMatch struct {
	key int64
	m   Match
}

// shardStream carries one worker's key-ordered match stream to the
// planner's merger. truncated and err are valid only after ch closes.
type shardStream struct {
	ch        chan taggedMatch
	truncated bool
	err       error
}

// fanOut runs work on one goroutine per view of the cut — each with a
// scratch of its own, under a context that is cancelled when fanOut returns,
// so abandoned workers (consumer break, truncation proof) stop promptly even
// mid-search with nothing to emit — and merges the workers' key-ordered
// streams through mergePlan. work(ctx, s, i, send) searches under the roots
// view i owns: send delivers one match and returns false when the worker
// should stop; work returns whether it proved truncation, and the context
// error if it was cancelled.
func fanOut(ctx context.Context, c *cut, emit func(Match) bool, work func(ctx context.Context, s *scratch, i int, send func(taggedMatch) bool) (bool, error)) (truncated bool, err error) {
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	// Workers read the caller's pooled cut: they must all have exited before
	// the caller may release it.
	defer wg.Wait()
	defer cancel()
	outs := make([]*shardStream, len(c.views))
	for i := range outs {
		// 64 matches of slack lets a worker search ahead of the merger
		// without unbounded buffering.
		out := &shardStream{ch: make(chan taggedMatch, 64)}
		outs[i] = out
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(out.ch)
			s := scratchPool.Get().(*scratch)
			defer s.release()
			out.truncated, out.err = work(wctx, s, i, func(tm taggedMatch) bool {
				select {
				case out.ch <- tm:
					return true
				case <-wctx.Done():
					return false
				}
			})
			if out.err == nil {
				// The worker may have stopped via send's Done arm (blocked on
				// a full channel) before the throttled in-search probe
				// observed the cancellation; the contract is still partial
				// results plus ctx.Err().
				out.err = wctx.Err()
			}
		}(i)
	}
	return mergePlan(outs, emit)
}

// mergePlan is the planner's reduce step: a K-way merge of the workers'
// key-ordered streams back into the exact sequential discovery order.
// emit returns false to stop the merge (consumer break, or the caller's
// limit logic proved truncation — counting distinct matches against
// Options.Limit is the caller's job, since only the caller knows whether
// merged matches can still be cross-worker duplicates). mergePlan reports
// the OR of the drained workers' truncated flags and the first error a
// drained worker reported.
func mergePlan(outs []*shardStream, emit func(Match) bool) (truncated bool, err error) {
	heads := make([]*taggedMatch, len(outs))
	open := make([]bool, len(outs))
	for i := range outs {
		open[i] = true
	}
	for {
		// Refill every missing head; record final status as streams close.
		best := -1
		for i := range outs {
			if heads[i] == nil && open[i] {
				if tm, ok := <-outs[i].ch; ok {
					t := tm
					heads[i] = &t
				} else {
					open[i] = false
					if outs[i].truncated {
						truncated = true
					}
					if outs[i].err != nil && err == nil {
						err = outs[i].err
					}
				}
			}
			if heads[i] != nil && (best == -1 || heads[i].key < heads[best].key) {
				best = i
			}
		}
		if best == -1 {
			return truncated, err
		}
		m := heads[best].m
		heads[best] = nil
		if !emit(m) {
			return truncated, err
		}
	}
}

// fanOutTemporal is the N-view schedule of the temporal search: each worker
// runs the roots its view owns against the full cut, tagging matches with
// their root time, and the merged stream is the single-view discovery order.
// Worker streams are globally distinct already (per-worker root dedup;
// roots on different views have distinct start times), so counting
// emissions against the cap is exact: the Limit+1-th merged match proves
// truncation, mirroring rootDedup's run-on discipline.
func fanOutTemporal(ctx context.Context, c *cut, prog *program, opts Options, emit func(Match) bool) (truncated bool, err error) {
	emitted := 0
	wtrunc, err := fanOut(ctx, c, func(m Match) bool {
		if emitted >= opts.Limit {
			truncated = true
			return false
		}
		emitted++
		return emit(m)
	}, func(ctx context.Context, s *scratch, i int, send func(taggedMatch) bool) (bool, error) {
		return runTemporal(ctx, c, s, i, prog, opts, func(m Match) bool {
			return send(taggedMatch{key: m.Start, m: m})
		})
	})
	return truncated || wtrunc, err
}

// fanOutNonTemporal is the N-view schedule of the non-temporal search: each
// worker searches under the roots its view owns, streaming its locally
// deduplicated matches tagged with their root's time. The merger
// re-deduplicates globally — the same interval can be discovered under
// roots on different views, and dropping a worker's later duplicate never
// changes the merged first-occurrence order — so the cap counts distinct
// intervals only, with resultSet's exact-Truncated run-on discipline.
func fanOutNonTemporal(ctx context.Context, c *cut, p *gspan.Pattern, opts Options) (Result, error) {
	rs := &resultSet{limit: opts.Limit}
	truncated, err := fanOut(ctx, c, func(m Match) bool {
		rs.add(m)
		return !rs.full()
	}, func(ctx context.Context, s *scratch, i int, send func(taggedMatch) bool) (bool, error) {
		r := newNTRun(ctx, c, s, i, p, opts)
		r.res = &resultSet{limit: opts.Limit, emit: func(m Match) bool {
			return send(taggedMatch{key: r.rootKey, m: m})
		}}
		r.match(0)
		return r.res.truncated, r.ctxErr
	})
	res := rs.finish()
	res.Truncated = res.Truncated || truncated
	return res, err
}

// Snapshot materializes an immutable Engine over the pinned cross-shard
// edge set (the time-merged union of every shard's live edges), for
// running many queries against one consistent cut. Panics if the
// global-uniqueness clock contract was violated (two shards holding the
// same timestamp cannot form the strict total order a static Engine
// requires).
func (l *ShardedLive) Snapshot() *Engine {
	if len(l.shards) == 1 {
		return l.shards[0].Snapshot()
	}
	sv := pinCut(l)
	defer sv.release()
	var b tgraph.Builder
	for _, lab := range sv.labels {
		b.AddNode(lab)
	}
	perShard := make([][]tgraph.Edge, len(sv.views))
	for i, v := range sv.views {
		es := make([]tgraph.Edge, 0, v.numEdges())
		v.forEachEdge(func(e tgraph.Edge) bool {
			es = append(es, e)
			return true
		})
		perShard[i] = es
	}
	idx := make([]int, len(perShard))
	for {
		best := -1
		for i, es := range perShard {
			if idx[i] >= len(es) {
				continue
			}
			if best == -1 || es[idx[i]].Time < perShard[best][idx[best]].Time {
				best = i
			}
		}
		if best == -1 {
			break
		}
		e := perShard[best][idx[best]]
		idx[best]++
		if err := b.AddEdge(e.Src, e.Dst, e.Time); err != nil {
			panic("search: sharded snapshot lost total time order (timestamps must be globally unique across shards): " + err.Error())
		}
	}
	g, err := b.Finalize()
	if err != nil {
		panic("search: sharded snapshot failed to finalize: " + err.Error())
	}
	return NewEngine(g)
}
