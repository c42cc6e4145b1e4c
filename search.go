package tgminer

import (
	"context"
	"iter"

	"tgminer/internal/search"
)

// ErrTruncated terminates a match stream whose SearchOptions.Limit was
// reached: the final stream element is (zero Match, ErrTruncated). Further
// matches may exist in the host graph.
var ErrTruncated = search.ErrTruncated

// Match is one identified behavior instance: the time interval spanned by a
// query match.
type Match = search.Match

// Interval is a ground-truth occurrence interval.
type Interval = search.Interval

// Metrics are precision/recall statistics per the paper's Section 6.2.
type Metrics = search.Metrics

// TemporalConstraints attaches per-hop temporal constraints to a temporal
// behavior query: time windows relative to the match start, min/max gaps to
// the previous hop, optional hops, and bounded Kleene repetition. Hops[i]
// constrains pattern edge i; a nil value (or empty Hops) is the plain
// order-preserving semantics. The pattern + constraints compile into an
// automaton program that every engine (static, live, sharded) drives, with
// the guards pruning the indexed search rather than post-filtering. Use
// Validate to check a constraint set against a pattern's edge count before
// running.
type TemporalConstraints = search.Constraints

// HopConstraint is one hop's constraint fields; see TemporalConstraints.
// The paper's cybersecurity rule "B follows A within 30 seconds" is
// HopConstraint{MaxGap: 30} on B's hop.
type HopConstraint = search.HopConstraint

// SearchOptions bounds a query run.
//
// Window is the maximum time span of a match (the paper uses the longest
// observed behavior duration; 0 = unbounded).
//
// Limit caps distinct matches returned (default 100000). The Truncated flag
// is exact — it is set only when a further distinct match genuinely exists
// beyond the cap, which the search runs on to establish; use a context
// deadline, not Limit, as a hard work bound.
//
// Constraints attaches per-hop temporal constraints to TEMPORAL queries
// (FindTemporal*, Stream); nil is unconstrained. Non-temporal and label-set
// queries ignore it. Invalid constraints surface as the stream's terminal
// error (FindTemporalContext returns it; the background-context
// FindTemporal silently returns no matches — use
// TemporalConstraints.Validate up front when that matters).
type SearchOptions = search.Options

// SearchResult is a query outcome: deduplicated match intervals in
// (Start, End) order, and whether a further distinct match exists beyond
// SearchOptions.Limit.
type SearchResult = search.Result

// Engine indexes one large temporal graph for behavior-query evaluation.
// Its query methods are those of queries.
type Engine struct{ queries }

// NewEngine indexes the host graph.
func NewEngine(g *Graph) *Engine { return newEngine(search.NewEngine(g)) }

func newEngine(e *search.Engine) *Engine { return &Engine{queries{&e.Queries}} }

// queries is the query surface Engine and LiveEngine share — all three
// query families, each pinned to one consistent snapshot of its host for the
// whole run. The *Context forms poll the context cooperatively and on
// cancellation return the matches found so far together with ctx.Err(); the
// plain forms run under a background context.
type queries struct{ q *search.Queries }

// FindTemporal evaluates a temporal behavior query (order-preserving).
// Callers that need cancellation, deadlines, or constant-memory consumption
// should use FindTemporalContext or Stream.
func (s queries) FindTemporal(p *Pattern, opts SearchOptions) SearchResult {
	return s.q.FindTemporal(p, opts)
}

// FindTemporalContext evaluates a temporal behavior query under a context,
// collecting the match stream into a deduplicated, (Start, End)-sorted
// result.
func (s queries) FindTemporalContext(ctx context.Context, p *Pattern, opts SearchOptions) (SearchResult, error) {
	return s.q.FindTemporalContext(ctx, p, opts)
}

// Stream evaluates a temporal behavior query and yields each distinct match
// interval as the backtracking search discovers it (ascending Start), with
// scratch memory independent of the match count — the form a monitoring
// pipeline over a continuously growing graph wants.
//
// Every regular element is (match, nil). The stream either ends silently
// (search exhausted), or its final element carries a non-nil error:
// ctx.Err() after cancellation, or ErrTruncated once SearchOptions.Limit
// matches were yielded. Breaking out of the range loop at any point is safe
// and releases the pooled scratch immediately.
//
// On a LiveEngine the stream runs lock-free against the per-shard snapshot
// cut pinned when it started: it sees one consistent edge set no matter how
// long the consumer takes, appends are never blocked by a slow (or paused)
// consumer, and mutating the engine from inside the loop body is safe —
// evict-as-you-alert needs no Snapshot detour:
//
//	for m, err := range le.Stream(ctx, q, opts) {
//		if err != nil { break }
//		alert(m); le.EvictBefore(m.End) // visible to the next query
//	}
//
// The yield order is the same at every shard count.
func (s queries) Stream(ctx context.Context, p *Pattern, opts SearchOptions) iter.Seq2[Match, error] {
	return s.q.StreamTemporal(ctx, p, opts)
}

// FindNonTemporal evaluates an Ntemp query (order-free).
func (s queries) FindNonTemporal(p *NonTemporalPattern, opts SearchOptions) SearchResult {
	return s.q.FindNonTemporal(p, opts)
}

// FindNonTemporalContext evaluates an Ntemp query (order-free) under a
// context.
func (s queries) FindNonTemporalContext(ctx context.Context, p *NonTemporalPattern, opts SearchOptions) (SearchResult, error) {
	return s.q.FindNonTemporalContext(ctx, p, opts)
}

// FindLabelSet evaluates a NodeSet query (label multiset within window).
func (s queries) FindLabelSet(q *LabelSetQuery, opts SearchOptions) SearchResult {
	return s.q.FindLabelSet(q.Labels, opts)
}

// FindLabelSetContext evaluates a NodeSet query under a context.
func (s queries) FindLabelSetContext(ctx context.Context, q *LabelSetQuery, opts SearchOptions) (SearchResult, error) {
	return s.q.FindLabelSetContext(ctx, q.Labels, opts)
}

// UnionMatches merges match sets, deduplicating intervals (the paper
// evaluates the union of its top-5 queries).
func UnionMatches(results ...SearchResult) SearchResult { return search.Union(results...) }

// Evaluate scores matches against ground-truth intervals: a match is
// correct when fully contained in a truth interval; an instance is
// discovered when it contains a correct match.
func Evaluate(matches []Match, truth []Interval) Metrics {
	return search.Evaluate(matches, truth)
}
