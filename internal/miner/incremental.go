package miner

// Incremental mining: a Session makes repeated mining calls over an
// evolving graph set dramatically cheaper than batch re-mining by caching
// per-seed exploration outcomes and re-exploring only the seeds whose
// supporting data changed.
//
// Like MineTopK, a Session ignores the registry prunings (Lemma 4 and
// Proposition 2) and returns the complete tie set at every worker count.
//
// # Invalidation model
//
// A seed's entire DFS subtree is a pure function of (a) the content of the
// graphs supporting it, (b) its positive/negative embedding lists, and
// (c) the frequency denominators len(pos) and len(neg): consecutive growth
// only extends occurrences within supporting graphs, and every frequency
// in the subtree reads only those graphs. A cached seed is therefore *clean* — its cached outcome replayed
// without exploration — iff its embedding-list fingerprints match the
// previous run and every supporting graph is unchanged (pointer-identical
// or tgraph.Stamp-equal) since the previous run. Any change to the
// denominators resets the whole session (every frequency shifts).
//
// # What a cached outcome can and cannot assert
//
// Exploration under upper-bound pruning visits only part of a subtree; the
// cached best is the maximum over *visited* patterns. Branches hidden by the
// upper bound are bounded by the exploring run's final F* (prunes fire
// against a running F* that never exceeds the final one), recorded as
// hiddenBelow. The pruned flag records
// whether any such hidden branch exists; when it is false the subtree was
// searched exhaustively (the structural MaxEdges cut is F*-independent)
// and the cached best, tie set, and tie count are exact.
//
// # Warm start and replay
//
// Each run seeds F* with warmF, the maximum cached best among clean seeds
// — a score provably still achieved on the current data, so the shared F*
// remains a valid lower bound of the true F* throughout and every prune
// stays sound; by the established order-independence of the search this is
// equivalent to having mined those clean seeds first. A clean seed is then
//
//   - skipped (O(1), no contribution) when its whole subtree provably
//     scores below warmF: best < warmF and either no hidden branches or
//     hiddenBelow <= warmF;
//   - injected (O(ties)) when best == warmF and its tie set is complete:
//     no hidden branches, or hiddenBelow == best (hidden scores are
//     strictly below the exploring run's final F*);
//   - re-explored otherwise — hidden branches could contain scores the
//     cache cannot bound below the new F*.
//
// If the final F* rises above warmF, injected ties are discarded by the
// shared recorder exactly as their re-discovered patterns would have been.
//
// Exploration is two-phase, dirty seeds first. warmF can fall well below
// the previous F* when the top seed's data changed, leaving most clean
// seeds unclassifiable (their hiddenBelow — the old F* — exceeds warmF).
// After the dirty seeds finish, the shared F* has usually climbed back to
// the old F* (an appended event rarely destroys the winning pattern), and
// the held-back clean seeds are classified a second time against that
// higher threshold before anything re-explores. F* only grows during a
// run, so both classifications are sound by the same argument.

import (
	"context"
	"sync"
	"time"

	"tgminer/internal/grow"
	"tgminer/internal/tgraph"
)

// SessionStats reports reuse accounting for the most recent Session run.
type SessionStats struct {
	// Rounds is the number of completed Mine calls.
	Rounds int
	// FullResets counts denominator-change resets (graph-set length changed).
	FullResets int
	// LastSeeds is the seed count of the last run.
	LastSeeds int
	// LastDirty is how many seeds had changed data (or were new) last run.
	LastDirty int
	// LastSkipped is how many clean seeds were proven unable to contribute
	// and replayed as no-ops.
	LastSkipped int
	// LastInjected is how many clean seeds replayed their cached tie sets
	// without exploration.
	LastInjected int
	// LastExplored is how many seeds were actually mined last run.
	LastExplored int
	// LastWarmStart is the F* lower bound the last run started from
	// (math.Inf(-1)-like sentinel when no clean seed existed).
	LastWarmStart float64
}

// Reused returns the number of seeds replayed from cache last run.
func (s SessionStats) Reused() int { return s.LastSkipped + s.LastInjected }

// seedCache is one seed's cached exploration outcome.
type seedCache struct {
	posFP, negFP uint64
	best         float64 // max score over visited patterns in the subtree
	pruned       bool    // an F*-dependent prune hid part of the subtree
	hiddenBelow  float64 // final F* of the exploring run; hidden scores are < this
	tieCount     int
	ties         []ScoredPattern
	tieKeys      []string
}

// Session caches per-seed exploration outcomes across Mine calls over an
// evolving graph set. See the package comment above for the invalidation
// model. Options are fixed at construction (changing them would invalidate
// every cached outcome). Methods are safe for concurrent use but runs are
// serialized; the worker pool inside a single run still parallelizes per
// Options.Parallelism. Like MineTopK, a Session ignores the registry
// prunings and returns the complete tie set at every worker count: results
// are byte-identical (Best, BestScore, TieCount) to a cold MineContext
// under ExhaustiveOptions on the same data; only Stats counters differ.
type Session struct {
	mu   sync.Mutex
	opts Options

	cache    map[grow.SeedKey]*seedCache
	posPtrs  []*tgraph.Graph
	posStamp []tgraph.Stamp
	negPtrs  []*tgraph.Graph
	negStamp []tgraph.Stamp
	haveRun  bool

	stats  SessionStats
	supBuf []int32
}

// NewSession creates an incremental mining session with fixed options.
// SubgraphPruning and SupergraphPruning are cleared on the session's copy:
// like MineTopK, a session prunes by the upper bound alone.
func NewSession(opts Options) *Session {
	opts = opts.normalize()
	opts.SubgraphPruning, opts.SupergraphPruning = false, false
	return &Session{opts: opts, cache: make(map[grow.SeedKey]*seedCache)}
}

// Stats returns reuse accounting for the most recent run.
func (ss *Session) Stats() SessionStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.stats
}

// Reset drops all cached state; the next Mine runs cold.
func (ss *Session) Reset() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.resetLocked()
}

func (ss *Session) resetLocked() {
	ss.cache = make(map[grow.SeedKey]*seedCache)
	ss.posPtrs, ss.posStamp = nil, nil
	ss.negPtrs, ss.negStamp = nil, nil
	ss.haveRun = false
}

// Mine runs an incremental mining round with a background context.
func (ss *Session) Mine(pos, neg []*tgraph.Graph) (*Result, error) {
	return ss.MineContext(context.Background(), pos, neg)
}

// seed replay classes. classExplore is the zero value: dirty and new seeds
// are explored by default, clean seeds must prove they may skip or inject.
type seedClass uint8

const (
	classExplore seedClass = iota
	classSkip
	classInject
)

// MineContext runs one incremental mining round over the current pos/neg
// sets under a context. Cancellation is cooperative at seed granularity
// exactly as in the batch MineContext: a partial Result plus ctx.Err() is
// returned and the session's caches remain those of the last complete run.
func (ss *Session) MineContext(ctx context.Context, pos, neg []*tgraph.Graph) (*Result, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if len(pos) == 0 {
		return nil, ErrNoPositiveGraphs
	}
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return &Result{BestScore: inf(), Elapsed: time.Since(start)}, err
	}

	// Denominator change: every frequency and residual integer is relative
	// to the graph-set lengths, so nothing cached survives.
	if ss.haveRun && (len(pos) != len(ss.posStamp) || len(neg) != len(ss.negStamp)) {
		ss.resetLocked()
		ss.stats.FullResets++
	}

	posClean := cleanGraphs(pos, ss.posPtrs, ss.posStamp)
	negClean := cleanGraphs(neg, ss.negPtrs, ss.negStamp)

	// Every seed is built (keep == nil): a seed's cache entry is checked by
	// its lists' fingerprints, and seedTies observes each frame against the
	// seed's own best, not against the threshold.
	seeds, _ := sortedSeeds(grow.CountSeeds(pos), neg, nil)
	keys := make([]grow.SeedKey, len(seeds))
	live := make(map[grow.SeedKey]bool, len(seeds))
	for i := range seeds {
		keys[i] = seeds[i].Key()
		live[keys[i]] = true
	}

	// Classify. First pass establishes cleanliness and warmF (the best
	// cached score among clean seeds — still achieved on current data);
	// second pass decides skip/inject/explore against warmF.
	classes := make([]seedClass, len(seeds))
	clean := make([]bool, len(seeds))
	warmF := inf()
	dirty := 0
	for i := range seeds {
		c := ss.cache[keys[i]]
		ok := c != nil &&
			c.posFP == seeds[i].Pos.Fingerprint() &&
			c.negFP == seeds[i].Neg.Fingerprint() &&
			ss.supportClean(seeds[i].Pos, posClean) &&
			ss.supportClean(seeds[i].Neg, negClean)
		clean[i] = ok
		if !ok {
			dirty++
			continue
		}
		if c.best > warmF {
			warmF = c.best
		}
	}
	skipped, injected := 0, 0
	classify := func(i int, threshold float64) {
		c := ss.cache[keys[i]]
		switch {
		case c.best < threshold && (!c.pruned || c.hiddenBelow <= threshold):
			// Everything in the subtree — visited (<= best) and hidden
			// (< hiddenBelow) — scores strictly below threshold, which never
			// exceeds the final F*.
			classes[i] = classSkip
			skipped++
		case c.best == threshold && (!c.pruned || c.hiddenBelow == c.best):
			// Tie set exact and complete at best: either the subtree was
			// searched exhaustively, or every hidden score is strictly
			// below best.
			classes[i] = classInject
			injected++
		default:
			// Hidden branches may hold scores the cache cannot bound below
			// the new F*; re-explore.
			classes[i] = classExplore
		}
	}
	for i := range seeds {
		if clean[i] {
			classify(i, warmF)
		}
	}

	// Warm-start and replay. The run is two-phase: dirty seeds are explored
	// first, because their outcomes decide how much cached work is reusable.
	// Once they finish, the shared F* has recovered everything the dirty data
	// can contribute — typically the old F*, when an ingest left the top
	// pattern intact — and clean seeds initially headed for re-exploration
	// (their warmF-relative bounds were inconclusive) are classified again
	// against the higher threshold. F* only grows during a run, so the
	// second classification is sound for exactly the same reason as the
	// first; it just skips and injects strictly more.
	sh := newShared(ss.opts.MaxResults)
	if warmF > inf() {
		sh.seedFstar(warmF)
	}
	var work []grow.Seed
	var ids []int32      // seed index of each work item
	var cleanIDs []int32 // clean seeds provisionally classified explore
	for i := range seeds {
		switch classes[i] {
		case classInject:
			c := ss.cache[keys[i]]
			sh.injectTies(c.best, c.ties, c.tieKeys, c.tieCount)
		case classExplore:
			if clean[i] {
				cleanIDs = append(cleanIDs, int32(i))
				continue
			}
			work = append(work, seeds[i])
			ids = append(ids, int32(i))
		}
	}
	capture := make([]seedOutcome, len(work))
	stats := runSeeds(ctx, pos, neg, ss.opts, sh, nil, work, capture)

	// Phase 2: reclassify the held-back clean seeds against the post-phase-1
	// F*, then explore only those still unresolved. Skipped on cancellation —
	// the partial result is returned below without touching the caches.
	if ctx.Err() == nil && len(cleanIDs) > 0 {
		var work2 []grow.Seed
		var ids2 []int32
		for _, i := range cleanIDs {
			classify(int(i), sh.fstar)
			switch classes[i] {
			case classInject:
				c := ss.cache[keys[i]]
				sh.injectTies(c.best, c.ties, c.tieKeys, c.tieCount)
			case classExplore:
				work2 = append(work2, seeds[i])
				ids2 = append(ids2, i)
			}
		}
		capture2 := make([]seedOutcome, len(work2))
		stats2 := runSeeds(ctx, pos, neg, ss.opts, sh, nil, work2, capture2)
		stats.merge(stats2)
		work = append(work, work2...)
		ids = append(ids, ids2...)
		capture = append(capture, capture2...)
	}

	res := &Result{
		Best:      sh.canonicalBest(),
		BestScore: sh.fstar,
		TieCount:  sh.tieCount,
		Stats:     stats,
		Elapsed:   time.Since(start),
	}
	if err := ctx.Err(); err != nil {
		// Cache and stamps still describe the last complete run and stay
		// authoritative.
		return res, err
	}

	// Commit: overwrite explored seeds' cache entries, drop seeds that no
	// longer occur, refresh stamps.
	for j, i := range ids {
		out := capture[j]
		ss.cache[keys[i]] = &seedCache{
			posFP:       seeds[i].Pos.Fingerprint(),
			negFP:       seeds[i].Neg.Fingerprint(),
			best:        out.best,
			pruned:      out.pruned,
			hiddenBelow: sh.fstar,
			tieCount:    out.tieCount,
			ties:        out.ties,
			tieKeys:     out.tieKeys,
		}
	}
	for k := range ss.cache {
		if !live[k] {
			delete(ss.cache, k)
		}
	}
	ss.posPtrs, ss.posStamp = snapshotStamps(pos, ss.posPtrs, ss.posStamp)
	ss.negPtrs, ss.negStamp = snapshotStamps(neg, ss.negPtrs, ss.negStamp)
	ss.haveRun = true

	ss.stats.Rounds++
	ss.stats.LastSeeds = len(seeds)
	ss.stats.LastDirty = dirty
	ss.stats.LastSkipped = skipped
	ss.stats.LastInjected = injected
	ss.stats.LastExplored = len(work)
	ss.stats.LastWarmStart = warmF
	return res, nil
}

// supportClean reports whether every graph supporting the embedding list is
// unchanged since the last complete run.
func (ss *Session) supportClean(l grow.List, clean []bool) bool {
	ss.supBuf = l.SupportGraphs(ss.supBuf[:0])
	for _, id := range ss.supBuf {
		if int(id) >= len(clean) || !clean[id] {
			return false
		}
	}
	return true
}

// cleanGraphs marks each current graph unchanged since the previous run:
// pointer-identical (the common case for immutable snapshot graphs) or
// content-equal by Stamp. With no previous run everything is dirty.
func cleanGraphs(cur []*tgraph.Graph, prevPtrs []*tgraph.Graph, prevStamp []tgraph.Stamp) []bool {
	clean := make([]bool, len(cur))
	for i, g := range cur {
		if i >= len(prevPtrs) {
			break
		}
		clean[i] = g == prevPtrs[i] || g.Stamp() == prevStamp[i]
	}
	return clean
}

// snapshotStamps records the current graph pointers and stamps, reusing the
// previous buffers.
func snapshotStamps(cur []*tgraph.Graph, ptrs []*tgraph.Graph, stamps []tgraph.Stamp) ([]*tgraph.Graph, []tgraph.Stamp) {
	ptrs = append(ptrs[:0], cur...)
	stamps = stamps[:0]
	for _, g := range cur {
		stamps = append(stamps, g.Stamp())
	}
	return ptrs, stamps
}
