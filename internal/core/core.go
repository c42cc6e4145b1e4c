// Package core wires the TGMiner behavior-query discovery pipeline of
// Figure 2 in the paper: from a behavior's positive temporal graphs and the
// background negative set, mine the maximally discriminative patterns,
// rank ties with domain knowledge (Appendix M), and emit the top-k behavior
// queries; plus the equivalent pipelines for the paper's two effectiveness
// baselines (Ntemp and NodeSet) and the query evaluation harness.
package core

import (
	"context"
	"fmt"

	"tgminer/internal/gspan"
	"tgminer/internal/miner"
	"tgminer/internal/nodeset"
	"tgminer/internal/rank"
	"tgminer/internal/search"
	"tgminer/internal/tgraph"
)

// QueryConfig controls query discovery.
type QueryConfig struct {
	// QuerySize is the number of edges per behavior query (default 6,
	// Figure 11 sweeps 1..10). Mining explores patterns up to this size.
	QuerySize int
	// TopK is the number of queries built from the tied best patterns
	// (default 5, per Appendix M).
	TopK int
	// Miner configures the mining algorithm (default ExhaustiveOptions: the
	// upper bound alone, which returns the complete tie set at every worker
	// count).
	Miner *miner.Options
	// Interest ranks tied patterns; required for deterministic top-k
	// selection. If nil, ranking falls back to pattern keys.
	Interest *rank.Interest
}

func (c QueryConfig) normalize() QueryConfig {
	if c.QuerySize <= 0 {
		c.QuerySize = 6
	}
	if c.TopK <= 0 {
		c.TopK = 5
	}
	if c.Miner == nil {
		o := miner.ExhaustiveOptions()
		c.Miner = &o
	}
	return c
}

// BehaviorQueries is the discovery outcome for one behavior.
type BehaviorQueries struct {
	// Queries are the top-k temporal graph pattern queries, best first.
	Queries []*tgraph.Pattern
	// BestScore is the maximum discriminative score F*.
	BestScore float64
	// Mining is the raw mining result (stats, ties).
	Mining *miner.Result
}

// DiscoverQueries runs the full TGMiner pipeline for one behavior. It is a
// compatibility wrapper over DiscoverQueriesContext with a background
// context.
func DiscoverQueries(pos, neg []*tgraph.Graph, cfg QueryConfig) (*BehaviorQueries, error) {
	return DiscoverQueriesContext(context.Background(), pos, neg, cfg)
}

// DiscoverQueriesContext runs the full TGMiner pipeline for one behavior
// under a context. On cancellation it returns ctx.Err() together with a
// non-nil BehaviorQueries built from the partial mining result — possibly
// with zero Queries if no seed completed before the cancel. The result is
// nil only when mining itself failed (e.g. an empty positive set).
func DiscoverQueriesContext(ctx context.Context, pos, neg []*tgraph.Graph, cfg QueryConfig) (*BehaviorQueries, error) {
	cfg = cfg.normalize()
	opts := *cfg.Miner
	opts.MaxEdges = cfg.QuerySize
	res, err := miner.MineContext(ctx, pos, neg, opts)
	if res == nil {
		// A real mining failure (e.g. empty positive set), as opposed to a
		// cancellation, which yields a partial result alongside ctx.Err().
		return nil, fmt.Errorf("core: mining failed: %w", err)
	}
	return buildQueries(res, cfg), err
}

// buildQueries ranks the mined tie set into the top-k behavior queries.
func buildQueries(res *miner.Result, cfg QueryConfig) *BehaviorQueries {
	cands := make([]*tgraph.Pattern, 0, len(res.Best))
	// Fix the query size: prefer tied patterns with exactly QuerySize edges
	// (the paper evaluates fixed-size queries), falling back to all ties.
	for _, sp := range res.Best {
		if sp.Pattern.NumEdges() == cfg.QuerySize {
			cands = append(cands, sp.Pattern)
		}
	}
	if len(cands) == 0 {
		for _, sp := range res.Best {
			cands = append(cands, sp.Pattern)
		}
	}
	var top []*tgraph.Pattern
	if cfg.Interest != nil {
		top = cfg.Interest.TopK(cands, cfg.TopK)
	} else {
		// res.Best is sorted by canonical key and cands keeps its order, so
		// the k smallest keys come first.
		top = cands[:min(cfg.TopK, len(cands))]
	}
	return &BehaviorQueries{Queries: top, BestScore: res.BestScore, Mining: res}
}

// NonTemporalQueries is the Ntemp pipeline outcome.
type NonTemporalQueries struct {
	Queries   []*gspan.Pattern
	BestScore float64
	Mining    *gspan.Result
}

// DiscoverNonTemporalQueries runs the Ntemp baseline pipeline: collapse
// temporal information, mine discriminative non-temporal patterns, rank
// ties by the same interest score.
func DiscoverNonTemporalQueries(pos, neg []*tgraph.Graph, cfg QueryConfig) (*NonTemporalQueries, error) {
	cfg = cfg.normalize()
	posN := make([]*gspan.Graph, len(pos))
	for i, g := range pos {
		posN[i] = gspan.FromTemporal(g)
	}
	negN := make([]*gspan.Graph, len(neg))
	for i, g := range neg {
		negN[i] = gspan.FromTemporal(g)
	}
	res, err := gspan.Mine(posN, negN, gspan.Options{MaxEdges: cfg.QuerySize})
	if err != nil {
		return nil, fmt.Errorf("core: ntemp mining failed: %w", err)
	}
	cands := make([]*gspan.Pattern, 0, len(res.Best))
	for _, sp := range res.Best {
		if sp.Pattern.NumEdges() == cfg.QuerySize {
			cands = append(cands, sp.Pattern)
		}
	}
	if len(cands) == 0 {
		for _, sp := range res.Best {
			cands = append(cands, sp.Pattern)
		}
	}
	ranked := rankNonTemporal(cands, cfg.Interest)
	if len(ranked) > cfg.TopK {
		ranked = ranked[:cfg.TopK]
	}
	return &NonTemporalQueries{Queries: ranked, BestScore: res.BestScore, Mining: res}, nil
}

func rankNonTemporal(cands []*gspan.Pattern, in *rank.Interest) []*gspan.Pattern {
	type scored struct {
		p *gspan.Pattern
		s float64
	}
	ss := make([]scored, len(cands))
	for i, p := range cands {
		var s float64
		if in != nil {
			for _, l := range p.Labels {
				s += in.LabelScore(l)
			}
		}
		ss[i] = scored{p: p, s: s}
	}
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].s > ss[j-1].s; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
	out := make([]*gspan.Pattern, len(ss))
	for i := range ss {
		out[i] = ss[i].p
	}
	return out
}

// DiscoverNodeSetQuery runs the NodeSet baseline: top-k discriminative
// labels under the same score function.
func DiscoverNodeSetQuery(pos, neg []*tgraph.Graph, cfg QueryConfig, in *rank.Interest) (*nodeset.Query, error) {
	cfg = cfg.normalize()
	return nodeset.Mine(pos, neg, nodeset.Options{K: cfg.QuerySize, Interest: in})
}

// Evaluator scores behavior queries against an indexed test graph.
type Evaluator struct {
	Engine *search.Engine
	// Window bounds match spans (the longest observed behavior lifetime).
	Window int64
	// Limit caps matches per query (default from search.Options).
	Limit int
}

// EvalTemporal runs each temporal query, unions the matches (the paper
// evaluates the union of its top-5 queries), and scores them.
func (ev *Evaluator) EvalTemporal(queries []*tgraph.Pattern, truth []search.Interval) search.Metrics {
	results := make([]search.Result, len(queries))
	for i, q := range queries {
		results[i] = ev.Engine.FindTemporal(q, search.Options{Window: ev.Window, Limit: ev.Limit})
	}
	return search.Evaluate(search.Union(results...).Matches, truth)
}

// EvalNonTemporal is the Ntemp counterpart of EvalTemporal.
func (ev *Evaluator) EvalNonTemporal(queries []*gspan.Pattern, truth []search.Interval) search.Metrics {
	results := make([]search.Result, len(queries))
	for i, q := range queries {
		results[i] = ev.Engine.FindNonTemporal(q, search.Options{Window: ev.Window, Limit: ev.Limit})
	}
	return search.Evaluate(search.Union(results...).Matches, truth)
}

// EvalNodeSet scores a NodeSet query.
func (ev *Evaluator) EvalNodeSet(q *nodeset.Query, truth []search.Interval) search.Metrics {
	res := ev.Engine.FindLabelSet(q.Labels, search.Options{Window: ev.Window, Limit: ev.Limit})
	return search.Evaluate(res.Matches, truth)
}
