package tgminer

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"tgminer/internal/core"
	"tgminer/internal/gspan"
	"tgminer/internal/miner"
	"tgminer/internal/nodeset"
	"tgminer/internal/rank"
	"tgminer/internal/score"
)

// Algorithm selects a mining algorithm variant (Section 6.1 of the paper).
type Algorithm string

// Mining algorithm variants. TGMiner is the paper's full algorithm and the
// others its efficiency baselines, exposed for ablation studies. Exhaustive,
// upper-bound pruning only, is the default: it returns the complete tie set
// at every worker count, which the registry variants do not yet (subgraph
// pruning is unsound under the MaxEdges cap).
const (
	AlgoTGMiner    Algorithm = "tgminer"
	AlgoSubPrune   Algorithm = "subprune"
	AlgoSupPrune   Algorithm = "supprune"
	AlgoPruneGI    Algorithm = "prunegi"
	AlgoPruneVF2   Algorithm = "prunevf2"
	AlgoLinearScan Algorithm = "linearscan"
	AlgoExhaustive Algorithm = "exhaustive"
)

func (a Algorithm) options() (miner.Options, error) {
	switch a {
	case AlgoTGMiner:
		return miner.TGMinerOptions(), nil
	case AlgoSubPrune:
		return miner.SubPruneOptions(), nil
	case AlgoSupPrune:
		return miner.SupPruneOptions(), nil
	case AlgoPruneGI:
		return miner.PruneGIOptions(), nil
	case AlgoPruneVF2:
		return miner.PruneVF2Options(), nil
	case AlgoLinearScan:
		return miner.LinearScanOptions(), nil
	case AlgoExhaustive, "":
		return miner.ExhaustiveOptions(), nil
	default:
		return miner.Options{}, fmt.Errorf("tgminer: unknown algorithm %q", a)
	}
}

// MineOptions configures Mine.
type MineOptions struct {
	// Algorithm selects the variant (default AlgoExhaustive, the naive
	// upper bound of Section 4.1 alone). The default returns every
	// maximum-score pattern; AlgoTGMiner and the other registry variants can
	// miss some in Mine, because subgraph pruning is not yet sound under the
	// MaxEdges cap. MineSession and MineTopK, like the default, ignore the
	// registry prunings and return the complete tie set at every worker
	// count.
	Algorithm Algorithm
	// ScoreFunc names the discriminative score function: "log-ratio"
	// (default), "g-test", or "info-gain".
	ScoreFunc string
	// MaxEdges bounds pattern size (default 6).
	MaxEdges int
	// MaxResults caps retained tied best patterns (default 512). When the
	// tie count exceeds the cap, the patterns with the smallest canonical
	// keys are kept, so the retained subset is deterministic.
	MaxResults int
	// Parallelism is the number of workers mining seeds concurrently
	// (default runtime.GOMAXPROCS(0); 1 forces the sequential search). The
	// default algorithm returns the same BestScore, TieCount and Best at
	// every worker count, and so do MineSession and MineTopK under every
	// algorithm. In Mine the registry variants (every algorithm but
	// AlgoExhaustive) are deterministic only at one worker: with several
	// they can return a different TieCount and best set from run to run.
	// Stats counters can vary with the worker count for every algorithm.
	Parallelism int
}

// MinedPattern is a discovered pattern with its statistics: Pattern, Score,
// PosFreq and NegFreq.
type MinedPattern = miner.ScoredPattern

// MineStats are search counters (see the paper's Table 3).
type MineStats = miner.Stats

// MineResult is the outcome of Mine.
type MineResult struct {
	// Best holds the maximum-score patterns (ties), up to MaxResults.
	Best []MinedPattern
	// BestScore is F*.
	BestScore float64
	// TieCount is the exact number of maximum-score patterns found.
	TieCount int
	// Stats are the search counters.
	Stats MineStats
}

// Mine finds the most discriminative T-connected temporal patterns
// distinguishing pos from neg. It is a compatibility wrapper over
// MineContext with a background (non-cancellable) context.
func Mine(pos, neg []*Graph, opts MineOptions) (*MineResult, error) {
	return MineContext(context.Background(), pos, neg, opts)
}

// MineContext is Mine under a context: cancel it or give it a deadline and
// the seed-level worker pool stops cooperatively (within at most one seed's
// branch per worker). On cancellation the partial MineResult mined so far is
// returned together with ctx.Err(); each seed's branch is either wholly
// explored or untouched, so partial results are sound lower bounds.
func MineContext(ctx context.Context, pos, neg []*Graph, opts MineOptions) (*MineResult, error) {
	mo, err := opts.minerOptions()
	if err != nil {
		return nil, err
	}
	res, err := miner.MineContext(ctx, pos, neg, mo)
	return mineResult(res), err
}

// mineResult lifts a miner result onto the facade type; nil stays nil.
func mineResult(res *miner.Result) *MineResult {
	if res == nil {
		return nil
	}
	return &MineResult{Best: res.Best, BestScore: res.BestScore, TieCount: res.TieCount, Stats: res.Stats}
}

// minerOptions lowers MineOptions onto the internal miner configuration.
func (opts MineOptions) minerOptions() (miner.Options, error) {
	mo, err := opts.Algorithm.options()
	if err != nil {
		return miner.Options{}, err
	}
	if opts.ScoreFunc != "" {
		f, err := score.ByName(opts.ScoreFunc)
		if err != nil {
			return miner.Options{}, err
		}
		mo.Score = f
	}
	if opts.MaxEdges > 0 {
		mo.MaxEdges = opts.MaxEdges
	}
	if opts.MaxResults > 0 {
		mo.MaxResults = opts.MaxResults
	}
	if opts.Parallelism > 0 {
		mo.Parallelism = opts.Parallelism
	}
	return mo, nil
}

// MineSessionStats reports seed-reuse accounting for the most recent
// session round: dirty/skipped/injected/explored seed counts and the
// warm-start F*.
type MineSessionStats = miner.SessionStats

// DriftKind classifies a drift alert between consecutive session rounds.
type DriftKind string

// Drift alert kinds.
const (
	// DriftNewPattern: a pattern entered the tied best set this round.
	DriftNewPattern DriftKind = "new-pattern"
	// DriftDroppedPattern: a pattern left the tied best set this round.
	DriftDroppedPattern DriftKind = "dropped-pattern"
	// DriftSupportDecay: a retained best pattern's positive support fell.
	DriftSupportDecay DriftKind = "support-decay"
	// DriftScoreShift: the best score F* itself moved.
	DriftScoreShift DriftKind = "score-shift"
)

// DriftAlert describes one change in the mined best set between two
// consecutive session rounds — the signal a continuous-monitoring deployment
// watches: behavior queries appearing, disappearing, or losing support as
// the live graphs evolve.
type DriftAlert struct {
	Kind DriftKind
	// Key is the canonical key of the pattern concerned (empty for
	// DriftScoreShift, which concerns F* itself).
	Key string
	// Pattern is the pattern concerned (the new, dropped, or decayed one);
	// nil for DriftScoreShift.
	Pattern *Pattern
	// Before and After hold the changing quantity: positive support for
	// DriftSupportDecay, F* for DriftScoreShift, and the pattern's score
	// for DriftNewPattern (Before 0) and DriftDroppedPattern (After 0).
	Before, After float64
}

// MineSession mines repeatedly over an evolving graph set, making warm
// re-mines dramatically cheaper than batch Mine calls by caching per-seed
// exploration outcomes between rounds.
//
// A seed (a single-edge pattern and its embedding lists) is re-explored
// only when *dirty*: some graph supporting it changed content, its
// embedding lists changed, or its cached outcome cannot be proven
// complete under the new threshold. Clean seeds replay their cached
// contribution in O(1), and the previous round's surviving best score
// warm-starts the shared pruning threshold before any worker runs — which
// is safe because that score is still achieved on the current data, so the
// threshold stays a valid lower bound of the true F* and can only
// under-prune. Like MineTopK, a session ignores the registry prunings and
// returns the complete tie set at every worker count: results are
// byte-identical (Best, BestScore, TieCount) to a cold Mine under the
// default algorithm over the same data, whichever Algorithm the session was
// built with; only Stats counters differ. See internal/miner's incremental
// documentation for the full invalidation model and its proof obligations.
//
// Options are fixed at construction. Methods are safe for concurrent use;
// rounds serialize, and each round parallelizes internally per
// MineOptions.Parallelism.
type MineSession struct {
	mu    sync.Mutex
	ses   *miner.Session
	prev  *MineResult
	drift []DriftAlert
}

// NewMineSession creates a continuous-mining session with fixed options.
// Like MineTopK, the session ignores the registry prunings of
// opts.Algorithm and prunes by the upper bound alone.
func NewMineSession(opts MineOptions) (*MineSession, error) {
	mo, err := opts.minerOptions()
	if err != nil {
		return nil, err
	}
	return &MineSession{ses: miner.NewSession(mo)}, nil
}

// Mine runs one session round with a background context.
func (s *MineSession) Mine(pos, neg []*Graph) (*MineResult, error) {
	return s.MineContext(context.Background(), pos, neg)
}

// MineContext runs one session round over the current graph sets. Graphs
// are matched to the previous round positionally: index i of pos (and neg)
// should be the same evolving graph each round — unchanged graphs are
// recognized by pointer or content stamp, changed ones dirty exactly the
// seeds they support. Cancellation has MineContext semantics (partial
// result + ctx.Err()); a cancelled round leaves the session caches as of
// the last complete round, and drift is not updated.
func (s *MineSession) MineContext(ctx context.Context, pos, neg []*Graph) (*MineResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.ses.MineContext(ctx, pos, neg)
	out := mineResult(res)
	if out == nil {
		return nil, err
	}
	if err == nil {
		s.drift = driftAlerts(s.prev, out)
		s.prev = out
	}
	return out, err
}

// MineLive runs one session round over live engines with a background
// context.
func (s *MineSession) MineLive(pos, neg []*LiveEngine) (*MineResult, error) {
	return s.MineLiveContext(context.Background(), pos, neg)
}

// MineLiveContext runs one session round treating each LiveEngine as one
// evolving temporal graph: engine i's current edge set (captured via
// MineSnapshot's cached generation cut) is graph i of the corpus. Engines
// that ingested nothing since the previous round reuse both their snapshot
// and every cached seed outcome they support.
func (s *MineSession) MineLiveContext(ctx context.Context, pos, neg []*LiveEngine) (*MineResult, error) {
	pg := make([]*Graph, len(pos))
	for i, le := range pos {
		pg[i] = le.MineSnapshot()
	}
	ng := make([]*Graph, len(neg))
	for i, le := range neg {
		ng[i] = le.MineSnapshot()
	}
	return s.MineContext(ctx, pg, ng)
}

// Stats returns reuse accounting for the most recent complete round.
func (s *MineSession) Stats() MineSessionStats {
	return s.ses.Stats()
}

// Drift returns the alerts comparing the last complete round's best set
// with the round before it (nil after the first round).
func (s *MineSession) Drift() []DriftAlert {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drift
}

// driftAlerts diffs two consecutive rounds' best sets.
func driftAlerts(prev, cur *MineResult) []DriftAlert {
	if prev == nil {
		return nil
	}
	var alerts []DriftAlert
	if prev.BestScore != cur.BestScore {
		alerts = append(alerts, DriftAlert{
			Kind: DriftScoreShift, Before: prev.BestScore, After: cur.BestScore,
		})
	}
	old := make(map[string]MinedPattern, len(prev.Best))
	for _, mp := range prev.Best {
		old[mp.Pattern.Key()] = mp
	}
	seen := make(map[string]bool, len(cur.Best))
	for _, mp := range cur.Best {
		k := mp.Pattern.Key()
		seen[k] = true
		before, ok := old[k]
		switch {
		case !ok:
			alerts = append(alerts, DriftAlert{
				Kind: DriftNewPattern, Key: k, Pattern: mp.Pattern, After: mp.Score,
			})
		case mp.PosFreq < before.PosFreq:
			alerts = append(alerts, DriftAlert{
				Kind: DriftSupportDecay, Key: k, Pattern: mp.Pattern,
				Before: before.PosFreq, After: mp.PosFreq,
			})
		}
	}
	for k, mp := range old {
		if !seen[k] {
			alerts = append(alerts, DriftAlert{
				Kind: DriftDroppedPattern, Key: k, Pattern: mp.Pattern, Before: mp.Score,
			})
		}
	}
	sort.Slice(alerts, func(i, j int) bool {
		if alerts[i].Kind != alerts[j].Kind {
			return alerts[i].Kind < alerts[j].Kind
		}
		return alerts[i].Key < alerts[j].Key
	})
	return alerts
}

// TopKResult is the outcome of MineTopK.
type TopKResult struct {
	// Patterns are the K highest-scoring distinct patterns, best first.
	Patterns []MinedPattern
	// Threshold is the K-th best score (the final pruning bound).
	Threshold float64
	Stats     MineStats
}

// MineTopK returns the K highest-scoring T-connected temporal patterns, a
// ranked shortlist rather than the paper's tied-maximum set. Exact: only
// upper-bound pruning is applied (the subgraph/supergraph prunings preserve
// just the maximum, so they are disabled here; see internal/miner). It is a
// compatibility wrapper over MineTopKContext with a background context.
func MineTopK(pos, neg []*Graph, k int, opts MineOptions) (*TopKResult, error) {
	return MineTopKContext(context.Background(), pos, neg, k, opts)
}

// MineTopKContext is MineTopK under a context. Like MineContext, the search
// parallelizes over seeds (MineOptions.Parallelism workers sharing the
// K-th-best threshold atomically) and returns the identical shortlist at
// every worker count; cancellation returns the partial shortlist together
// with ctx.Err().
func MineTopKContext(ctx context.Context, pos, neg []*Graph, k int, opts MineOptions) (*TopKResult, error) {
	mo, err := opts.minerOptions()
	if err != nil {
		return nil, err
	}
	res, err := miner.MineTopKContext(ctx, pos, neg, k, mo)
	if res == nil {
		return nil, err
	}
	return &TopKResult{Patterns: res.Patterns, Threshold: res.Threshold, Stats: res.Stats}, err
}

// Interest is the Appendix M domain-knowledge ranking function.
type Interest = rank.Interest

// NewInterest builds the ranking function over training graphs. Labels
// whose names contain any blacklist substring score zero; nil uses the
// paper's default blacklist.
func NewInterest(graphs []*Graph, dict *Dict, blacklistSubstrings []string) *Interest {
	return rank.NewInterest(graphs, dict, blacklistSubstrings)
}

// QueryOptions configures DiscoverQueries.
type QueryOptions struct {
	// QuerySize is the number of edges per query (default 6).
	QuerySize int
	// TopK is the number of queries returned (default 5).
	TopK int
	// Algorithm selects the mining variant (default AlgoExhaustive; see
	// MineOptions.Algorithm).
	Algorithm Algorithm
	// Interest ranks tied patterns; optional.
	Interest *Interest
	// Parallelism is the number of mining workers (default
	// runtime.GOMAXPROCS(0)). The default algorithm gives the same queries
	// at every worker count. The registry variants are deterministic only
	// at one worker; with several, their tie sets, and so the ranked
	// queries, can differ from run to run (see MineOptions.Parallelism).
	Parallelism int
}

// BehaviorQueries is the result of query discovery.
type BehaviorQueries struct {
	// Queries are the top-k behavior queries, best first.
	Queries []*Pattern
	// BestScore is the maximum discriminative score.
	BestScore float64
	// Stats are the mining counters.
	Stats MineStats
}

// DiscoverQueries runs the full pipeline of the paper's Figure 2: mine,
// rank ties by interest, return the top-k behavior queries. It is a
// compatibility wrapper over DiscoverQueriesContext with a background
// context.
func DiscoverQueries(pos, neg []*Graph, opts QueryOptions) (*BehaviorQueries, error) {
	return DiscoverQueriesContext(context.Background(), pos, neg, opts)
}

// DiscoverQueriesContext is DiscoverQueries under a context. A cancelled or
// expired context stops mining at seed granularity; the queries built from
// the partial mining result are returned together with ctx.Err(), so a
// deadline-bounded discovery still yields usable (if possibly sub-optimal)
// behavior queries.
func DiscoverQueriesContext(ctx context.Context, pos, neg []*Graph, opts QueryOptions) (*BehaviorQueries, error) {
	mo, err := opts.Algorithm.options()
	if err != nil {
		return nil, err
	}
	if opts.Parallelism > 0 {
		mo.Parallelism = opts.Parallelism
	}
	bq, err := core.DiscoverQueriesContext(ctx, pos, neg, core.QueryConfig{
		QuerySize: opts.QuerySize,
		TopK:      opts.TopK,
		Miner:     &mo,
		Interest:  opts.Interest,
	})
	if bq == nil {
		return nil, err
	}
	return &BehaviorQueries{Queries: bq.Queries, BestScore: bq.BestScore, Stats: bq.Mining.Stats}, err
}

// NonTemporalPattern is a collapsed (order-free) graph pattern, the query
// type of the paper's Ntemp baseline.
type NonTemporalPattern = gspan.Pattern

// NonTemporalPatternFromGraph collapses a temporal graph into an order-free
// query pattern: timestamps are dropped and parallel edges merge. The Ntemp
// counterpart of PatternFromGraph, for writing non-temporal queries by hand
// (build the shape with a GraphBuilder sharing the engine's Dict, then
// collapse) instead of mining them.
func NonTemporalPatternFromGraph(g *Graph) *NonTemporalPattern {
	return gspan.PatternFromTemporal(g)
}

// DiscoverNonTemporalQueries runs the Ntemp baseline pipeline.
func DiscoverNonTemporalQueries(pos, neg []*Graph, opts QueryOptions) ([]*NonTemporalPattern, error) {
	nq, err := core.DiscoverNonTemporalQueries(pos, neg, core.QueryConfig{
		QuerySize: opts.QuerySize,
		TopK:      opts.TopK,
		Interest:  opts.Interest,
	})
	if err != nil {
		return nil, err
	}
	return nq.Queries, nil
}

// LabelSetQuery is a NodeSet baseline query: a label multiset.
type LabelSetQuery = nodeset.Query

// DiscoverLabelSetQuery runs the NodeSet baseline pipeline.
func DiscoverLabelSetQuery(pos, neg []*Graph, opts QueryOptions) (*LabelSetQuery, error) {
	return core.DiscoverNodeSetQuery(pos, neg, core.QueryConfig{
		QuerySize: opts.QuerySize,
		TopK:      opts.TopK,
	}, opts.Interest)
}
