// Package miner implements TGMiner, the discriminative temporal graph
// pattern miner of Zong et al. (VLDB 2015), plus the five efficiency
// baselines the paper evaluates against (Section 6.1).
//
// Given a positive and a negative set of temporal graphs, Mine performs a
// depth-first search over the T-connected pattern space using consecutive
// growth (complete and repetition-free by Theorem 1), maintaining embedding
// lists incrementally. Search branches are cut by
//
//   - the naive upper-bound condition F(freq_p(g), 0) < F* (Section 4.1),
//   - subgraph pruning (Lemma 4), and
//   - supergraph pruning (Proposition 2),
//
// with residual-graph-set equivalence tested either in O(1) through the
// integer compression of Lemma 6 or by explicit linear scan (the LinearScan
// baseline), and temporal subgraph tests delegated to a pluggable
// SubgraphTester (sequence tests, modified VF2, or graph-index join).
//
// Mining parallelizes at the seed level (Options.Parallelism): a worker pool
// shares F* and, under a registry variant, the pruning registry. Only
// MineContext builds a registry, and only when SubgraphPruning or
// SupergraphPruning is on. ExhaustiveOptions, the facade's default, gives the
// same result at every worker count; so do MineTopK and Session, which
// ignore the registry prunings. The registry variants of MineContext are
// deterministic at one worker only: with several, their tie count can differ
// between runs, because subgraph pruning (Lemma 4) is not yet sound under
// the MaxEdges cap and which registry entries exist when a branch is tested
// depends on timing.
package miner

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tgminer/internal/gindex"
	"tgminer/internal/grow"
	"tgminer/internal/residual"
	"tgminer/internal/score"
	"tgminer/internal/seqcode"
	"tgminer/internal/tgraph"
	"tgminer/internal/vf2"
)

// SubgraphTester decides temporal subgraph containment between patterns.
// Implementations: seqcode.Tester (TGMiner default), vf2.Tester (PruneVF2),
// gindex.Tester (PruneGI).
//
// Testers are not assumed safe for concurrent use: a parallel run gives
// each worker its own instance from CloneTester, so every implementation
// must provide one. There is no shared, mutex-guarded fallback.
type SubgraphTester interface {
	// Name identifies the tester in stats output.
	Name() string
	// Test reports whether g1 is a temporal subgraph of g2 (g1 ⊆t g2),
	// returning the node mapping from g1 nodes to g2 nodes when it is.
	Test(g1, g2 *tgraph.Pattern) ([]tgraph.NodeID, bool)
	// CloneTester returns a fresh instance for another worker. It must be a
	// SubgraphTester; the return type is any so tester packages can
	// implement it without importing this package.
	CloneTester() any
}

// Options configures a mining run. Zero values are completed by
// normalize(); use the named constructors (TGMinerOptions etc.) for the
// paper's algorithm variants.
type Options struct {
	// Score is the discriminative score function F (default score.LogRatio).
	Score score.Func
	// MaxEdges bounds the size of explored patterns (default 6, the paper's
	// default behavior-query size; Figure 14 sweeps it up to 45).
	MaxEdges int
	// SubgraphPruning enables Lemma 4 pruning.
	SubgraphPruning bool
	// SupergraphPruning enables Proposition 2 pruning.
	SupergraphPruning bool
	// Tester performs temporal subgraph tests (default seqcode.Tester).
	Tester SubgraphTester
	// ResidualLinear switches residual-set equivalence from the Lemma 6
	// integer comparison to an explicit linear scan (LinearScan baseline).
	ResidualLinear bool
	// MaxResults caps how many tied best patterns are retained (default
	// 512). The count of ties seen is always exact in Result.TieCount.
	MaxResults int
	// Parallelism is the number of workers mining seeds concurrently
	// (default runtime.GOMAXPROCS(0); 1 forces the classic sequential
	// search). With neither registry pruning on, and always in MineTopK and
	// Session, the result is the same at every worker count. Otherwise only
	// one worker gives a deterministic result: several can return a
	// different TieCount and best set from run to run, until subgraph pruning
	// is sound under the MaxEdges cap. Stats counters always depend on how
	// often pruning fires.
	Parallelism int
}

// TGMinerOptions is the full TGMiner configuration: both prunings, sequence
// tests, integer residual compression.
func TGMinerOptions() Options {
	return Options{SubgraphPruning: true, SupergraphPruning: true}
}

// SubPruneOptions enables only subgraph pruning (paper baseline 1).
func SubPruneOptions() Options {
	return Options{SubgraphPruning: true}
}

// SupPruneOptions enables only supergraph pruning (paper baseline 2).
func SupPruneOptions() Options {
	return Options{SupergraphPruning: true}
}

// PruneGIOptions uses all pruning but graph-index-join subgraph tests
// (paper baseline 3).
func PruneGIOptions() Options {
	return Options{SubgraphPruning: true, SupergraphPruning: true, Tester: &gindex.Tester{}}
}

// PruneVF2Options uses all pruning but modified-VF2 subgraph tests (paper
// baseline 4).
func PruneVF2Options() Options {
	return Options{SubgraphPruning: true, SupergraphPruning: true, Tester: &vf2.Tester{}}
}

// LinearScanOptions uses all pruning but linear-scan residual equivalence
// tests (paper baseline 5).
func LinearScanOptions() Options {
	return Options{SubgraphPruning: true, SupergraphPruning: true, ResidualLinear: true}
}

// ExhaustiveOptions applies only the naive upper-bound pruning of
// Section 4.1 (the unnamed exhaustive strawman the paper motivates against).
// It is the facade's and core's default: it returns the complete tie set,
// and on sysgen corpora it is faster than the registry variants.
func ExhaustiveOptions() Options {
	return Options{}
}

func (o Options) normalize() Options {
	if o.Score == nil {
		o.Score = score.LogRatio{}
	}
	if o.MaxEdges <= 0 {
		o.MaxEdges = 6
	}
	if o.Tester == nil {
		o.Tester = &seqcode.Tester{}
	}
	if o.MaxResults <= 0 {
		o.MaxResults = 512
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// ScoredPattern is a discovered pattern with its frequencies and score.
type ScoredPattern struct {
	Pattern *tgraph.Pattern
	Score   float64
	PosFreq float64
	NegFreq float64
}

// Stats aggregates search counters; Table 3 of the paper reports the
// trigger probabilities SubgraphPrunes/PatternsExplored and
// SupergraphPrunes/PatternsExplored.
//
// A child or a seed that the upper bound cuts before it is built (no
// embedding lists, no pattern; see search.dfs and mineSeeds) is counted
// exactly as its own frame would count it: in PatternsExplored and
// MaxEdgesSeen, and in UpperBoundPrunes unless it is at MaxEdges.
type Stats struct {
	PatternsExplored int64
	UpperBoundPrunes int64
	SubgraphTests    int64
	ResidualEqTests  int64
	SubgraphPrunes   int64
	SupergraphPrunes int64
	RegistrySize     int64
	MaxEdgesSeen     int
}

// SubgraphTriggerRate returns the empirical probability that subgraph
// pruning fires while processing a pattern.
func (s Stats) SubgraphTriggerRate() float64 {
	if s.PatternsExplored == 0 {
		return 0
	}
	return float64(s.SubgraphPrunes) / float64(s.PatternsExplored)
}

// SupergraphTriggerRate returns the empirical probability that supergraph
// pruning fires while processing a pattern.
func (s Stats) SupergraphTriggerRate() float64 {
	if s.PatternsExplored == 0 {
		return 0
	}
	return float64(s.SupergraphPrunes) / float64(s.PatternsExplored)
}

// Result is the outcome of a mining run.
type Result struct {
	// Best holds the patterns achieving BestScore (up to MaxResults).
	Best []ScoredPattern
	// BestScore is F*.
	BestScore float64
	// TieCount is the exact number of patterns that achieved BestScore,
	// even when Best was capped.
	TieCount int
	Stats    Stats
	Elapsed  time.Duration
}

// ErrNoPositiveGraphs is returned when the positive set is empty.
var ErrNoPositiveGraphs = errors.New("miner: positive graph set is empty")

// Mine runs the discriminative pattern search over pos and neg. It is a
// compatibility wrapper over MineContext with a background (non-cancellable)
// context.
func Mine(pos, neg []*tgraph.Graph, opts Options) (*Result, error) {
	return MineContext(context.Background(), pos, neg, opts)
}

// MineContext runs the discriminative pattern search over pos and neg under
// a context.
//
// When opts.Parallelism > 1, seeds are fanned out to a worker pool sharing
// one F* (published through atomic float bits for lock-free pruning reads)
// and, when a registry pruning is on, one sharded pruning registry. Pruning
// with a stale, lower F* merely prunes less, but which registry entries a
// branch is tested against depends on timing, so under a registry variant
// TieCount and the best set are only guaranteed repeatable at one worker
// (see Options.Parallelism). Best is canonicalized (sorted by pattern key)
// so runs are byte-for-byte comparable.
//
// Cancellation is cooperative at seed granularity: workers poll ctx between
// seeds, so a cancel takes effect within at most one seed's branch per
// worker and never interrupts a branch midway. On cancellation MineContext
// returns ctx.Err() together with a non-nil partial Result covering exactly
// the seeds fully explored before the cancel — each seed's branch is either
// wholly mined or untouched, so the partial result is a sound lower bound
// (BestScore <= the complete F*, Best patterns are genuine).
func MineContext(ctx context.Context, pos, neg []*tgraph.Graph, opts Options) (*Result, error) {
	if len(pos) == 0 {
		return nil, ErrNoPositiveGraphs
	}
	opts = opts.normalize()
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return &Result{BestScore: inf(), Elapsed: time.Since(start)}, err
	}
	sh := newShared(opts.MaxResults)
	var reg *registry
	if opts.SubgraphPruning || opts.SupergraphPruning {
		reg = newRegistry(opts.ResidualLinear, maxRegistry)
	}
	stats := mineSeeds(ctx, pos, neg, opts, sh, reg)
	if reg != nil {
		stats.RegistrySize = reg.size()
	}
	res := &Result{
		Best:      sh.canonicalBest(),
		BestScore: sh.fstar,
		TieCount:  sh.tieCount,
		Stats:     stats,
		Elapsed:   time.Since(start),
	}
	return res, ctx.Err()
}

func inf() float64 { return -1e308 }

// maxRegistry caps the number of completed branches the registry retains for
// pruning lookups; exceeding it only forgoes pruning opportunities.
const maxRegistry = 1 << 20

// sortedSeeds builds the single-edge seeds of counts whose support keep
// accepts against neg (grow.SeedCounts.Build), ordered high-positive-support,
// low-negative-support first, then by key; dropped counts the rest. The
// threshold reaches its ceiling as soon as a maximally frequent,
// zero-negative pattern is found, after which the upper-bound condition
// kills every lower-support branch on sight and the subgraph/supergraph
// conditions can cut redundant frequent-but-undiscriminative branches — the
// "find discriminative patterns early to prune early" strategy the paper
// cites from leap search [30]. Ordering only affects speed: the
// searched-or-pruned set of maximum-score patterns is unchanged.
func sortedSeeds(counts *grow.SeedCounts, neg []*tgraph.Graph, keep func(support int) bool) (seeds []grow.Seed, dropped int) {
	type ranked struct {
		seed     grow.Seed
		pos, neg int
	}
	seeds, dropped = counts.Build(neg, keep)
	rs := make([]ranked, len(seeds))
	for i, s := range seeds {
		rs[i] = ranked{seed: s, pos: s.Pos.SupportCount(), neg: s.Neg.SupportCount()}
	}
	slices.SortStableFunc(rs, func(a, b ranked) int {
		return cmp.Or(cmp.Compare(b.pos, a.pos), cmp.Compare(a.neg, b.neg))
	})
	for i := range rs {
		seeds[i] = rs[i].seed
	}
	return seeds, dropped
}

// mineSeeds mines every seed of pos against neg into sk: the seed pool of
// MineContext and MineTopKContext.
//
// With a registry, every seed is built and run. Without one the upper bound
// alone cuts, and a seed it cuts is never built. The seeds of the largest positive support are built and mined
// first; they are the first in seed order, and on sysgen corpora they lift
// the threshold to the score ceiling. Then the threshold t is read once, and
// only the other seeds with !(ub[c] < t) are built, in one more call. Each
// remaining seed's frame would have been cut at entry, since the threshold
// never falls and its score is at most its bound, so skipped counts it as
// that frame would. The rule reads each seed's own bound, so it assumes
// nothing about how UpperBound varies with the support. The built seeds keep
// their order, so at one worker the exploration order and every Stats
// counter are those of building every seed; at more, the workers meet once
// between the two steps.
func mineSeeds(ctx context.Context, pos, neg []*tgraph.Graph, opts Options, sk sink, reg *registry) Stats {
	counts := grow.CountSeeds(pos)
	if reg != nil {
		// keep == nil: register runs even in a frame the upper bound cuts.
		seeds, _ := sortedSeeds(counts, neg, nil)
		return runSeeds(ctx, pos, neg, opts, sk, reg, seeds, nil)
	}
	top := counts.MaxSupport()
	first, _ := sortedSeeds(counts, neg, func(c int) bool { return c == top })
	stats := runSeeds(ctx, pos, neg, opts, sk, nil, first, nil)
	if ctx.Err() != nil {
		return stats
	}
	ub, t := upperBounds(opts.Score, len(pos)), sk.threshold()
	rest, dropped := sortedSeeds(counts, neg, func(c int) bool { return c != top && !(ub[c] < t) })
	if n := dropped - len(first); n > 0 {
		cut := search{opts: opts}
		cut.skipped(1, n)
		stats.merge(cut.stats)
	}
	if len(rest) > 0 {
		stats.merge(runSeeds(ctx, pos, neg, opts, sk, nil, rest, nil))
	}
	return stats
}

// poolSize clamps the configured parallelism to the available work.
func poolSize(parallelism, work int) int {
	if parallelism > work && work > 0 {
		parallelism = work
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return parallelism
}

// seedOutcome summarizes one fully explored seed subtree for session
// caching: the best score found, whether any F*-dependent prune cut part of
// the subtree (when false, best is the exact subtree maximum and the tie
// capture is complete), and the seed-local ties at best (count exact,
// patterns capped at the smallest-MaxResults canonical keys, mirroring the
// global retention rule).
type seedOutcome struct {
	best     float64
	pruned   bool
	tieCount int
	ties     []ScoredPattern
	tieKeys  []string
}

// runSeeds drives the seed-level worker pool shared by MineContext,
// MineTopKContext and Session.Mine: every worker runs the one dfs, feeding
// sk. When capture is non-nil (session mode), the subtree outcome of work[i]
// is stored in capture[i]. reg is nil unless the options enable a registry
// pruning; only then are subgraph tests run, so only then does each worker
// get its own tester. Workers poll ctx between seeds, so each seed's branch
// is either wholly mined or untouched.
func runSeeds(ctx context.Context, pos, neg []*tgraph.Graph, opts Options, sk sink, reg *registry, work []grow.Seed, capture []seedOutcome) Stats {
	workers := poolSize(opts.Parallelism, len(work))
	var testers []SubgraphTester
	if reg != nil {
		testers = testersFor(opts.Tester, workers)
	}
	searches := make([]*search, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wopts := opts
		if testers != nil {
			wopts.Tester = testers[w]
		}
		s := &search{pos: pos, neg: neg, opts: wopts, sink: sk, reg: reg}
		if capture != nil {
			s.cap = &seedTies{}
			s.cap.list.max = opts.MaxResults
		} else if reg == nil {
			s.ub = upperBounds(opts.Score, len(pos))
		}
		searches[w] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(work) {
					return
				}
				if s.cap != nil {
					s.cap.reset()
				}
				best, pruned := s.dfs(work[i].Pattern, work[i].Pos, work[i].Neg)
				if capture != nil {
					s.cap.flush()
					capture[i] = seedOutcome{
						best:     best,
						pruned:   pruned,
						tieCount: s.cap.count,
						ties:     append([]ScoredPattern(nil), s.cap.list.pats...),
						tieKeys:  append([]string(nil), s.cap.list.keys...),
					}
				}
			}
		}()
	}
	wg.Wait()
	var stats Stats
	for _, s := range searches {
		stats.merge(s.stats)
	}
	return stats
}

// merge accumulates counters from a per-worker Stats.
func (s *Stats) merge(o Stats) {
	s.PatternsExplored += o.PatternsExplored
	s.UpperBoundPrunes += o.UpperBoundPrunes
	s.SubgraphTests += o.SubgraphTests
	s.ResidualEqTests += o.ResidualEqTests
	s.SubgraphPrunes += o.SubgraphPrunes
	s.SupergraphPrunes += o.SupergraphPrunes
	if o.MaxEdgesSeen > s.MaxEdgesSeen {
		s.MaxEdgesSeen = o.MaxEdgesSeen
	}
}

// testersFor returns one temporal-subgraph tester per worker. Testers carry
// per-instance state (at minimum stats counters), so sharing one instance
// across workers would race: worker 0 keeps the caller's instance, so
// single-worker runs accumulate its stats exactly as before, and every other
// worker tests on its own clone.
func testersFor(t SubgraphTester, workers int) []SubgraphTester {
	out := make([]SubgraphTester, workers)
	out[0] = t
	for w := 1; w < workers; w++ {
		out[w] = t.CloneTester().(SubgraphTester)
	}
	return out
}

// tieList is a tie set capped at max patterns, deterministically retaining
// the smallest canonical keys. Used (under their owners' synchronization)
// by the global shared best set and by the per-seed capture of incremental
// sessions, so both apply the identical overflow rule and a replayed seed
// reproduces the batch retention byte for byte.
type tieList struct {
	pats    []ScoredPattern
	keys    []string // canonical keys parallel to pats
	maxKeyI int      // index of the largest key once full; -1 = unknown
	max     int
}

// replace resets the list to hold exactly one pattern.
func (t *tieList) replace(sp ScoredPattern, key string) {
	t.pats = append(t.pats[:0], sp)
	t.keys = append(t.keys[:0], key)
	t.maxKeyI = -1
}

// clear empties the list.
func (t *tieList) clear() {
	t.pats, t.keys, t.maxKeyI = t.pats[:0], t.keys[:0], -1
}

// add inserts a tie. When the list is at cap, the pattern with the largest
// retained key is displaced iff the new key is smaller — a deterministic
// rule, so the retained subset is identical across worker counts and
// interleavings. The common reject path stays O(1): the index of the
// largest retained key is cached and rescanned only after a replacement
// invalidates it.
func (t *tieList) add(sp ScoredPattern, key string) {
	if len(t.pats) < t.max {
		t.pats = append(t.pats, sp)
		t.keys = append(t.keys, key)
		t.maxKeyI = -1
		return
	}
	if t.maxKeyI < 0 {
		t.maxKeyI = 0
		for i := 1; i < len(t.keys); i++ {
			if t.keys[i] > t.keys[t.maxKeyI] {
				t.maxKeyI = i
			}
		}
	}
	if key < t.keys[t.maxKeyI] {
		t.pats[t.maxKeyI] = sp
		t.keys[t.maxKeyI] = key
		t.maxKeyI = -1
	}
}

// sink is what the DFS reports to and prunes against: threshold is a recent
// lower bound on the score a pattern must reach to matter, non-decreasing
// over a run (so a stale read only under-prunes), and consider offers every
// visited pattern. Branches whose upper bound falls strictly below the
// threshold are cut; strictly, because a descendant scoring exactly the
// threshold still ties F* or can win a top-K tie-break. shared (F* and its
// tie set) and sharedTopK (the K best) are the two implementations.
type sink interface {
	threshold() float64
	consider(p *tgraph.Pattern, sc, x, y float64)
}

// shared is the cross-worker state of the maximum search: F* and the tied
// best set. F* is additionally published as atomic float bits so the hot
// pruning paths can read it without taking the mutex; it is monotonically
// non-decreasing, so a stale read can only under-prune, never cut a
// surviving branch.
type shared struct {
	fstarBits atomic.Uint64

	mu       sync.Mutex
	fstar    float64 // authoritative, guarded by mu
	ties     tieList
	tieCount int
}

func newShared(maxResults int) *shared {
	sh := &shared{fstar: inf()}
	sh.ties.max = maxResults
	sh.fstarBits.Store(math.Float64bits(sh.fstar))
	return sh
}

// threshold returns a recent lower bound on F* without locking.
func (sh *shared) threshold() float64 {
	return math.Float64frombits(sh.fstarBits.Load())
}

// seedFstar warm-starts F* to f before any worker runs, with an (initially)
// empty best set. Only sound when f is a score actually achieved by some
// pattern on the data about to be mined — incremental sessions guarantee
// that by seeding with the best cached score among clean seeds, whose
// patterns provably still exist with that exact score. Must not be called
// concurrently with workers.
func (sh *shared) seedFstar(f float64) {
	sh.fstar = f
	sh.fstarBits.Store(math.Float64bits(f))
}

// consider updates F* and the tied best set. When the tie set overflows
// maxResults, the patterns with the smallest canonical keys are retained.
func (sh *shared) consider(p *tgraph.Pattern, sc, x, y float64) {
	if sc < sh.threshold() {
		return // stale reads only under-filter; re-checked under the lock
	}
	// Canonicalize outside the lock: Key() allocates and walks the pattern,
	// and every surviving call needs it, so keep workers from serializing on
	// it. A racing F* raise can waste at most this one computation.
	key := p.Key()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case sc > sh.fstar:
		sh.fstar = sc
		sh.fstarBits.Store(math.Float64bits(sc))
		sh.ties.replace(ScoredPattern{Pattern: p, Score: sc, PosFreq: x, NegFreq: y}, key)
		sh.tieCount = 1
	case sc == sh.fstar:
		sh.tieCount++
		sh.ties.add(ScoredPattern{Pattern: p, Score: sc, PosFreq: x, NegFreq: y}, key)
	}
}

// injectTies replays a clean seed's cached tie set (count exact, patterns
// capped at the smallest maxResults keys) into the shared state without
// re-exploring the seed. Ties whose score has been overtaken by a higher
// F* contribute nothing, exactly as their re-discovered patterns would
// have been dropped by consider.
func (sh *shared) injectTies(score float64, pats []ScoredPattern, keys []string, count int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case score < sh.fstar || count == 0:
		return
	case score > sh.fstar:
		// Unreachable from Session (injection happens at score == warm F*),
		// but keep the invariant "ties hold patterns scoring fstar" anyway.
		sh.fstar = score
		sh.fstarBits.Store(math.Float64bits(score))
		sh.ties.clear()
		sh.tieCount = 0
	}
	sh.tieCount += count
	for i := range pats {
		sh.ties.add(pats[i], keys[i])
	}
}

// canonicalBest returns the best set sorted by canonical pattern key, the
// deterministic order shared by sequential and parallel runs.
func (sh *shared) canonicalBest() []ScoredPattern {
	sort.Sort(&byKey{sp: sh.ties.pats, keys: sh.ties.keys})
	return sh.ties.pats
}

// byKey sorts the best set and its key cache in lockstep.
type byKey struct {
	sp   []ScoredPattern
	keys []string
}

func (b *byKey) Len() int           { return len(b.sp) }
func (b *byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b *byKey) Swap(i, j int) {
	b.sp[i], b.sp[j] = b.sp[j], b.sp[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// search is the per-worker DFS context.
type search struct {
	pos, neg []*tgraph.Graph
	opts     Options
	sink     sink
	reg      *registry // nil unless a registry pruning is on
	stats    Stats
	// cap, when non-nil (session mode), captures the current seed's local
	// tie set so a later run can replay the seed without re-exploring it.
	cap *seedTies
	// ub, when non-nil, is Score.UpperBound by positive support count:
	// ub[c] is the bound of a pattern held by c of the len(pos) graphs. It
	// is set when there is neither a registry nor a session capture, and
	// then dfs cuts children before building them.
	ub []float64
	// setFree recycles residual.Set backing arrays across dfs frames (LIFO,
	// worker-local, so no synchronization). Only valid in integer-compression
	// mode: linear mode retains the sets inside registry entries.
	setFree []residual.Set
}

// seedTies tracks the running best score within one seed's subtree and the
// ties at it, under the same capped smallest-keys retention as the global
// best set so replay reproduces batch retention exactly. Worker-local.
type seedTies struct {
	best  float64
	count int
	pend  []ScoredPattern // ties awaiting canonical keys
	list  tieList
}

func (t *seedTies) reset() {
	t.best = inf()
	t.count = 0
	t.pend = t.pend[:0]
	t.list.clear()
}

// observe records a visited pattern against the seed's running best.
// Canonical keys are deferred: ties at a momentary best that a later,
// higher score wipes never pay for canonicalization. Keys are computed only
// when the capped retention rule actually needs them — the list reaching
// MaxResults — or when the seed finishes (flush), which yields the same
// retained subset as eager keying.
func (t *seedTies) observe(p *tgraph.Pattern, sc, x, y float64) {
	if sc < t.best {
		return
	}
	if sc > t.best {
		t.best = sc
		t.count = 0
		t.pend = t.pend[:0]
		t.list.clear()
	}
	t.count++
	sp := ScoredPattern{Pattern: p, Score: sc, PosFreq: x, NegFreq: y}
	if len(t.pend)+len(t.list.pats) < t.list.max {
		t.pend = append(t.pend, sp)
		return
	}
	t.flush()
	t.list.add(sp, p.Key())
}

// flush keys every pending tie into the capped list.
func (t *seedTies) flush() {
	for i := range t.pend {
		t.list.add(t.pend[i], t.pend[i].Pattern.Key())
	}
	t.pend = t.pend[:0]
}

// upperBounds tabulates f.UpperBound over every positive support count c =
// 0..total, computing x exactly as List.Frequency does so each value is
// bit-identical to the bound a child's own frame would compute.
func upperBounds(f score.Func, total int) []float64 {
	ub := make([]float64, total+1)
	for c := range ub {
		ub[c] = f.UpperBound(float64(c) / float64(total))
	}
	return ub
}

// getSet pops a recycled residual-set buffer, or nil for a fresh one.
func (s *search) getSet() residual.Set {
	if n := len(s.setFree); n > 0 {
		b := s.setFree[n-1]
		s.setFree = s.setFree[:n-1]
		return b
	}
	return nil
}

// putSet returns a residual-set buffer to the freelist. Callers must not
// retain the set afterwards.
func (s *search) putSet(b residual.Set) {
	if cap(b) > 0 {
		s.setFree = append(s.setFree, b[:0])
	}
}

// dfs explores the branch rooted at p, returning the best score seen in the
// branch (p included) and whether any threshold-dependent prune (upper
// bound, subgraph, or supergraph) cut part of the subtree. The MaxEdges cut
// is structural — independent of the threshold — so it does not set the
// flag: a subtree finished without threshold-dependent prunes has been
// searched exhaustively within the configured pattern-size bound, and its
// returned best is exact.
//
// With s.ub set (no registry, no session capture), a child whose upper
// bound is below the threshold is never built: Children drops it by its
// support, or the child loop skips it before Ext.Apply and the negative
// Extend, re-reading the threshold because earlier siblings can raise it.
// Its own frame would have pruned it on the same condition (the threshold
// never falls) without reporting a score the sink keeps (its score is at
// most its bound), so skipped counts it as that frame would. The cut cannot
// apply otherwise: a session's seedTies observes every visited pattern
// against the seed's own best, not against the threshold, and register
// reads the child's negative residual set.
func (s *search) dfs(p *tgraph.Pattern, posE, negE grow.List) (float64, bool) {
	s.stats.PatternsExplored++
	if n := p.NumEdges(); n > s.stats.MaxEdgesSeen {
		s.stats.MaxEdgesSeen = n
	}
	x := posE.Frequency(len(s.pos))
	y := negE.Frequency(len(s.neg))
	sc := s.opts.Score.Score(x, y)
	s.sink.consider(p, sc, x, y)
	if s.cap != nil {
		s.cap.observe(p, sc, x, y)
	}
	branchBest := sc
	pruned := false

	// Residual sets and their integers feed only the registry's prunings and
	// registrations, so the upper-bound-only search never builds them.
	useReg := s.opts.SubgraphPruning || s.opts.SupergraphPruning
	var resPos residual.Set
	var iPos int64
	if useReg {
		resPos = posE.ResidualSetInto(s.getSet())
		iPos = resPos.I(s.pos)
	}

	// Negative residual sets are only needed by supergraph pruning and its
	// registration; computed at most once per pattern, and only when a
	// candidate actually requires comparison.
	var resNeg residual.Set
	var iNeg int64
	haveNeg := false
	negSet := func() (residual.Set, int64) {
		if !haveNeg {
			resNeg = negE.ResidualSetInto(s.getSet())
			iNeg = resNeg.I(s.neg)
			haveNeg = true
		}
		return resNeg, iNeg
	}

	prune := false
	switch {
	case p.NumEdges() >= s.opts.MaxEdges:
		prune = true
	case s.opts.Score.UpperBound(x) < s.sink.threshold():
		s.stats.UpperBoundPrunes++
		prune, pruned = true, true
	default:
		if s.opts.SubgraphPruning && s.subgraphPrune(p, resPos, iPos) {
			s.stats.SubgraphPrunes++
			prune, pruned = true, true
		}
		if !prune && s.opts.SupergraphPruning {
			if s.supergraphPrune(p, resPos, iPos, negSet) {
				s.stats.SupergraphPrunes++
				prune, pruned = true, true
			}
		}
	}

	if !prune {
		var keep func(support int) bool
		if s.ub != nil {
			t := s.sink.threshold()
			keep = func(c int) bool { return !(s.ub[c] < t) }
		}
		childEdges := p.NumEdges() + 1
		exts, lists, dropped := grow.Children(p, s.pos, posE, keep)
		if dropped > 0 {
			pruned = s.skipped(childEdges, dropped) || pruned
		}
		for i, ext := range exts {
			childPos := lists[i]
			lists[i] = nil // held by the child's frame only, so it dies with it
			if s.ub != nil && s.ub[childPos.SupportCount()] < s.sink.threshold() {
				pruned = s.skipped(childEdges, 1) || pruned
				continue
			}
			childNeg := grow.Extend(ext, s.neg, negE)
			b, pr := s.dfs(ext.Apply(p), childPos, childNeg)
			if b > branchBest {
				branchBest = b
			}
			pruned = pruned || pr
		}
	}

	if useReg {
		s.register(p, resPos, iPos, negSet, branchBest)
	}
	// In integer mode nothing past this point references the sets (registry
	// entries keep only iPos/iNeg), so their buffers recycle into the
	// freelist; linear mode stores them in the entry and must not.
	if !s.opts.ResidualLinear {
		s.putSet(resPos)
		if haveNeg {
			s.putSet(resNeg)
		}
	}
	return branchBest, pruned
}

// skipped counts n children of the given size that the upper bound cut
// before they were built, as their own frames would have counted them, and
// reports whether the cut depends on the threshold: a child at MaxEdges is
// cut by the size cap first, which is structural.
func (s *search) skipped(edges, n int) bool {
	s.stats.PatternsExplored += int64(n)
	if edges > s.stats.MaxEdgesSeen {
		s.stats.MaxEdgesSeen = edges
	}
	if edges >= s.opts.MaxEdges {
		return false
	}
	s.stats.UpperBoundPrunes += int64(n)
	return true
}

// subgraphPrune implements Lemma 4: prune p when some earlier-discovered
// pattern g1 with a fully explored, sub-F* branch (a) is a temporal
// supergraph of p, (b) has the same positive residual graph set, and (c)
// has no extra node whose label appears in p's positive residual label set.
func (s *search) subgraphPrune(p *tgraph.Pattern, resPos residual.Set, iPos int64) bool {
	fstar := s.sink.threshold()
	for _, cand := range s.reg.candidates(iPos) {
		if cand.branchBest >= fstar {
			continue
		}
		if cand.edges < p.NumEdges() || cand.nodes < p.NumNodes() {
			continue
		}
		s.stats.ResidualEqTests++
		if s.opts.ResidualLinear {
			if !residual.EqualLinear(resPos, cand.resPos, s.pos) {
				continue
			}
		}
		// In integer mode, I(Gp,·) equality holds by bucket construction;
		// by Lemma 6 that is residual-set equality once the subgraph
		// relation (verified next) holds.
		s.stats.SubgraphTests++
		mapping, ok := s.opts.Tester.Test(p, cand.pat)
		if !ok {
			continue
		}
		if extra := extraLabels(cand.pat, mapping); len(extra) > 0 {
			if labelsTouchResiduals(resPos, extra, s.pos) {
				continue
			}
		}
		return true
	}
	return false
}

// supergraphPrune implements Proposition 2: prune p when some
// earlier-discovered pattern g1 with a sub-F* branch is a temporal subgraph
// of p with identical positive and negative residual sets and the same node
// count. negSet lazily supplies p's negative residual set.
func (s *search) supergraphPrune(p *tgraph.Pattern, resPos residual.Set, iPos int64, negSet func() (residual.Set, int64)) bool {
	fstar := s.sink.threshold()
	for _, cand := range s.reg.candidates(iPos) {
		if cand.branchBest >= fstar {
			continue
		}
		if cand.edges > p.NumEdges() || cand.nodes != p.NumNodes() {
			continue
		}
		resNeg, iNeg := negSet()
		s.stats.ResidualEqTests += 2
		if s.opts.ResidualLinear {
			if !residual.EqualLinear(resPos, cand.resPos, s.pos) {
				continue
			}
			if !residual.EqualLinear(resNeg, cand.resNeg, s.neg) {
				continue
			}
		} else if cand.iNeg != iNeg {
			continue
		}
		s.stats.SubgraphTests++
		if _, ok := s.opts.Tester.Test(cand.pat, p); !ok {
			continue
		}
		return true
	}
	return false
}

// extraLabels returns the labels of g1 nodes that are not images of the
// mapped subpattern's nodes (the set L_{g1\g2} of Lemma 4).
func extraLabels(g1 *tgraph.Pattern, mapping []tgraph.NodeID) []tgraph.Label {
	image := make([]bool, g1.NumNodes())
	for _, v := range mapping {
		if v >= 0 {
			image[v] = true
		}
	}
	var out []tgraph.Label
	for v := 0; v < g1.NumNodes(); v++ {
		if !image[v] {
			out = append(out, g1.LabelOf(tgraph.NodeID(v)))
		}
	}
	return out
}

// labelsTouchResiduals reports whether any of the labels occurs in any
// residual graph of the set (i.e., L(Gp, g2) ∩ labels ≠ ∅).
func labelsTouchResiduals(set residual.Set, labels []tgraph.Label, graphs []*tgraph.Graph) bool {
	for _, ref := range set {
		if residual.LabelsIntersectSuffix(ref, labels, graphs) {
			return true
		}
	}
	return false
}

// register adds a completed branch to the pruning registry.
func (s *search) register(p *tgraph.Pattern, resPos residual.Set, iPos int64, negSet func() (residual.Set, int64), branchBest float64) {
	if s.reg.full() {
		return
	}
	e := &entry{
		pat:        p,
		nodes:      p.NumNodes(),
		edges:      p.NumEdges(),
		iPos:       iPos,
		branchBest: branchBest,
	}
	if s.opts.SupergraphPruning {
		resNeg, iNeg := negSet()
		e.iNeg = iNeg
		if s.opts.ResidualLinear {
			e.resNeg = resNeg
		}
	}
	if s.opts.ResidualLinear {
		e.resPos = resPos
	}
	s.reg.add(e)
}

// entry is one completed branch in the pruning registry.
type entry struct {
	pat        *tgraph.Pattern
	nodes      int
	edges      int
	iPos       int64
	iNeg       int64
	branchBest float64
	resPos     residual.Set // only in linear mode
	resNeg     residual.Set // only in linear mode
}

// regShardCount is the number of registry shards; a power of two so the
// multiply-shift in shardOf reduces by taking the top log2(regShardCount)
// bits. 64 shards keep write contention negligible even at high worker
// counts while costing only ~64 mutexes of memory.
const regShardCount = 64

// regShard is one lock-striped slice of the registry. Reads vastly outnumber
// writes (every explored pattern probes candidates, only completed branches
// register), hence the RWMutex.
type regShard struct {
	mu     sync.RWMutex
	byIPos map[int64][]*entry
	all    []*entry // linear mode only (shard 0)
}

// registry indexes completed branches, sharded by a hash of I(Gp, ·) so
// concurrent workers rarely contend. In integer mode entries are bucketed by
// I(Gp, g), so candidate discovery touches only residual-set-equal patterns;
// in linear mode every candidate is compared by scanning (all entries live
// in shard 0), which is the cost the LinearScan baseline demonstrates.
//
// Entries are immutable once added and bucket slices only ever grow, so
// candidates can return a slice-header snapshot taken under RLock and let
// callers iterate lock-free: appends never mutate the snapshotted prefix.
type registry struct {
	linear bool
	max    int
	count  atomic.Int64
	shards [regShardCount]regShard
}

func newRegistry(linear bool, max int) *registry {
	r := &registry{linear: linear, max: max}
	if !linear {
		for i := range r.shards {
			r.shards[i].byIPos = make(map[int64][]*entry)
		}
	}
	return r
}

// shardOf maps an iPos to its shard by Fibonacci hashing; iPos values are
// small correlated integers, so multiplicative mixing beats masking.
func shardOf(iPos int64) int {
	return int((uint64(iPos) * 0x9E3779B97F4A7C15) >> (64 - 6)) // log2(regShardCount) = 6
}

// full reports whether the maxRegistry cap is reached. Checked lock-free;
// under races a handful of entries past the cap may slip in, which only
// keeps a few extra pruning opportunities.
func (r *registry) full() bool {
	return r.count.Load() >= int64(r.max)
}

func (r *registry) size() int64 { return r.count.Load() }

func (r *registry) add(e *entry) {
	r.count.Add(1)
	if r.linear {
		sh := &r.shards[0]
		sh.mu.Lock()
		sh.all = append(sh.all, e)
		sh.mu.Unlock()
		return
	}
	sh := &r.shards[shardOf(e.iPos)]
	sh.mu.Lock()
	sh.byIPos[e.iPos] = append(sh.byIPos[e.iPos], e)
	sh.mu.Unlock()
}

func (r *registry) candidates(iPos int64) []*entry {
	if r.linear {
		sh := &r.shards[0]
		sh.mu.RLock()
		s := sh.all
		sh.mu.RUnlock()
		return s
	}
	sh := &r.shards[shardOf(iPos)]
	sh.mu.RLock()
	s := sh.byIPos[iPos]
	sh.mu.RUnlock()
	return s
}

// String renders stats compactly for logs.
func (s Stats) String() string {
	return fmt.Sprintf("patterns=%d ubPrunes=%d subPrunes=%d supPrunes=%d subTests=%d resEqTests=%d maxEdges=%d",
		s.PatternsExplored, s.UpperBoundPrunes, s.SubgraphPrunes, s.SupergraphPrunes,
		s.SubgraphTests, s.ResidualEqTests, s.MaxEdgesSeen)
}
