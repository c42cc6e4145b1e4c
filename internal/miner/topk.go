package miner

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tgminer/internal/tgraph"
)

// TopKResult is the outcome of MineTopK.
type TopKResult struct {
	// Patterns holds the K highest-scoring distinct patterns, best first
	// (ties broken by fewer edges, then canonical key).
	Patterns []ScoredPattern
	// Threshold is the score of the K-th retained pattern (the final
	// pruning bound).
	Threshold float64
	Stats     Stats
	Elapsed   time.Duration
}

// MineTopK returns the K highest-scoring T-connected temporal patterns
// rather than only the tied maximum. It is a compatibility wrapper over
// MineTopKContext with a background context.
func MineTopK(pos, neg []*tgraph.Graph, k int, opts Options) (*TopKResult, error) {
	return MineTopKContext(context.Background(), pos, neg, k, opts)
}

// MineTopKContext extends the paper's Problem 1 to a ranked shortlist: the K
// best patterns under the total order (score desc, fewer edges, canonical
// key). It runs the same seed pool and DFS as MineContext with a sharedTopK
// sink, so branches are cut by the upper-bound condition against the
// current K-th best score.
//
// Subgraph/supergraph pruning are switched off on the search's copy of
// opts: Lemma 4 and Proposition 2 only guarantee that the *maximum*-score
// patterns survive branch cuts, so a top-K search with them enabled could
// lose lower-ranked results. Only the (exact) upper-bound condition is used:
// UB(x) < the K-th score implies no descendant can displace any retained
// pattern.
//
// Like MineContext, seeds fan out to opts.Parallelism workers sharing the
// K-th-best threshold through atomic float bits. A stale (lower) threshold
// only under-prunes and the top-K search consults no pruning registry, so
// the worker count does not change the shortlist;
// TestMineTopKParallelEquivalence checks this on three small sysgen corpora.
// Cancellation is cooperative at seed granularity and returns the partial
// shortlist together with ctx.Err().
func MineTopKContext(ctx context.Context, pos, neg []*tgraph.Graph, k int, opts Options) (*TopKResult, error) {
	if len(pos) == 0 {
		return nil, ErrNoPositiveGraphs
	}
	if k <= 0 {
		k = 10
	}
	opts = opts.normalize()
	opts.SubgraphPruning, opts.SupergraphPruning = false, false
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return &TopKResult{Threshold: inf(), Elapsed: time.Since(start)}, err
	}
	sh := newSharedTopK(k)
	stats := mineSeeds(ctx, pos, neg, opts, sh, nil)
	return &TopKResult{
		Patterns:  sh.ranked(),
		Threshold: sh.threshold(),
		Stats:     stats,
		Elapsed:   time.Since(start),
	}, ctx.Err()
}

// sharedTopK is the cross-worker shortlist: the K best patterns under
// lessScored, kept sorted. The K-th score is additionally published as
// atomic float bits (inf() while the list is not yet full) so the hot
// pruning and insertion fast paths read it without the mutex; it is
// monotonically non-decreasing, so a stale read can only under-prune.
type sharedTopK struct {
	k       int
	thrBits atomic.Uint64

	mu   sync.Mutex
	heap []ScoredPattern // sorted ascending by lessScored (best first)
}

func newSharedTopK(k int) *sharedTopK {
	sh := &sharedTopK{k: k}
	sh.thrBits.Store(math.Float64bits(inf()))
	return sh
}

// threshold returns a recent lower bound on the K-th best score, or inf()
// while fewer than K patterns have been retained.
func (sh *sharedTopK) threshold() float64 {
	return math.Float64frombits(sh.thrBits.Load())
}

// consider inserts the pattern when it beats the current K-th entry under
// the total order. Insertion is order-independent: the final list is the
// minimum K of lessScored over all considered patterns, regardless of
// arrival order, so parallel runs equal sequential runs exactly.
func (sh *sharedTopK) consider(p *tgraph.Pattern, sc, x, y float64) {
	if sc < sh.threshold() {
		return // strictly below the K-th score: can never displace
	}
	sp := ScoredPattern{Pattern: p, Score: sc, PosFreq: x, NegFreq: y}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.heap) == sh.k && !lessScored(sp, sh.heap[sh.k-1]) {
		return
	}
	pos := sort.Search(len(sh.heap), func(i int) bool {
		return lessScored(sp, sh.heap[i])
	})
	sh.heap = append(sh.heap, ScoredPattern{})
	copy(sh.heap[pos+1:], sh.heap[pos:])
	sh.heap[pos] = sp
	if len(sh.heap) > sh.k {
		sh.heap = sh.heap[:sh.k]
	}
	if len(sh.heap) == sh.k {
		sh.thrBits.Store(math.Float64bits(sh.heap[sh.k-1].Score))
	}
}

// ranked returns the shortlist, best first.
func (sh *sharedTopK) ranked() []ScoredPattern {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.heap
}

// lessScored orders a before b when a scores higher (ties: fewer edges,
// then canonical key).
func lessScored(a, b ScoredPattern) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	ae, be := a.Pattern.NumEdges(), b.Pattern.NumEdges()
	if ae != be {
		return ae < be
	}
	return a.Pattern.Key() < b.Pattern.Key()
}
