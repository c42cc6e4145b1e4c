package core

import (
	"slices"
	"testing"

	"tgminer/internal/miner"
	"tgminer/internal/rank"
	"tgminer/internal/search"
	"tgminer/internal/sysgen"
	"tgminer/internal/tgraph"
)

// pipelineFixture generates a small corpus + timeline shared by the
// integration tests.
type pipelineFixture struct {
	ds       *sysgen.Dataset
	tl       *sysgen.Timeline
	engine   *search.Engine
	interest *rank.Interest
}

func newFixture(t *testing.T, behaviors []string) *pipelineFixture {
	t.Helper()
	cfg := sysgen.Config{
		Scale: 0.3, GraphsPerBehavior: 10, BackgroundGraphs: 20, Seed: 101,
		Behaviors: behaviors,
	}
	ds := sysgen.Generate(cfg)
	tl := sysgen.GenerateTimeline(sysgen.TimelineConfig{
		Instances: 30, Scale: 0.3, Seed: 202, Behaviors: behaviors, Corruption: 0.1,
	}, ds.Dict)
	var all []*tgraph.Graph
	for _, b := range ds.Behaviors {
		all = append(all, b.Graphs...)
	}
	all = append(all, ds.Background...)
	return &pipelineFixture{
		ds:       ds,
		tl:       tl,
		engine:   search.NewEngine(tl.Graph),
		interest: rank.NewInterest(all, ds.Dict, nil),
	}
}

func truthOf(tl *sysgen.Timeline, behavior string) []search.Interval {
	var out []search.Interval
	for _, inst := range tl.Truth {
		if inst.Behavior == behavior {
			out = append(out, search.Interval{Start: inst.Start, End: inst.End})
		}
	}
	return out
}

func TestEndToEndPipelineAccuracy(t *testing.T) {
	behaviors := []string{"bzip2-decompress", "wget-download"}
	fx := newFixture(t, behaviors)
	ev := &Evaluator{Engine: fx.engine, Window: fx.tl.Window}

	for _, name := range behaviors {
		pos := fx.ds.ByName(name)
		bq, err := DiscoverQueries(pos, fx.ds.Background, QueryConfig{
			QuerySize: 4, TopK: 5, Interest: fx.interest,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(bq.Queries) == 0 {
			t.Fatalf("%s: no queries discovered", name)
		}
		for _, q := range bq.Queries {
			if q.NumEdges() > 4 {
				t.Errorf("%s: query has %d edges, max 4", name, q.NumEdges())
			}
		}
		m := ev.EvalTemporal(bq.Queries, truthOf(fx.tl, name))
		if m.Precision() < 0.8 {
			t.Errorf("%s: TGMiner precision = %.2f, want >= 0.8 (metrics %+v)", name, m.Precision(), m)
		}
		if m.Recall() < 0.7 {
			t.Errorf("%s: TGMiner recall = %.2f, want >= 0.7 (metrics %+v)", name, m.Recall(), m)
		}
	}
}

func TestTemporalBeatsNonTemporalOnConfusionPair(t *testing.T) {
	// scp-download vs ssh-login share non-temporal structure; temporal
	// queries must be strictly more precise on scp-download.
	behaviors := []string{"scp-download", "ssh-login"}
	fx := newFixture(t, behaviors)
	ev := &Evaluator{Engine: fx.engine, Window: fx.tl.Window}
	name := "scp-download"
	pos := fx.ds.ByName(name)
	truth := truthOf(fx.tl, name)

	bq, err := DiscoverQueries(pos, fx.ds.Background, QueryConfig{QuerySize: 5, TopK: 5, Interest: fx.interest})
	if err != nil {
		t.Fatal(err)
	}
	tm := ev.EvalTemporal(bq.Queries, truth)

	nq, err := DiscoverNonTemporalQueries(pos, fx.ds.Background, QueryConfig{QuerySize: 5, TopK: 5, Interest: fx.interest})
	if err != nil {
		t.Fatal(err)
	}
	nm := ev.EvalNonTemporal(nq.Queries, truth)

	if tm.Precision() < nm.Precision() {
		t.Errorf("temporal precision %.3f < non-temporal %.3f on confusion pair",
			tm.Precision(), nm.Precision())
	}
	if tm.Precision() < 0.75 {
		t.Errorf("temporal precision %.3f too low (metrics %+v)", tm.Precision(), tm)
	}
}

func TestNodeSetPipeline(t *testing.T) {
	behaviors := []string{"gzip-decompress"}
	fx := newFixture(t, behaviors)
	ev := &Evaluator{Engine: fx.engine, Window: fx.tl.Window}
	pos := fx.ds.ByName("gzip-decompress")
	q, err := DiscoverNodeSetQuery(pos, fx.ds.Background, QueryConfig{QuerySize: 4}, fx.interest)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Labels) != 4 {
		t.Fatalf("query labels = %d, want 4", len(q.Labels))
	}
	m := ev.EvalNodeSet(q, truthOf(fx.tl, "gzip-decompress"))
	// NodeSet is fragile: with only 10 training graphs, unstable noise
	// labels tie with footprint labels at frequency 1 and dilute the query
	// (the same failure mode behind the paper's low NodeSet recall on
	// several behaviors). Require only that the pipeline produces some
	// correct discoveries at this scale.
	if m.Recall() < 0.25 {
		t.Errorf("NodeSet recall = %.2f, want >= 0.25 (%+v)", m.Recall(), m)
	}
	if m.Identified > 0 && m.Precision() < 0.5 {
		t.Errorf("NodeSet precision = %.2f, want >= 0.5 (%+v)", m.Precision(), m)
	}
}

func TestDiscoverQueriesCustomMiner(t *testing.T) {
	fx := newFixture(t, []string{"bzip2-decompress"})
	opts := miner.SubPruneOptions()
	pos := fx.ds.ByName("bzip2-decompress")
	bq, err := DiscoverQueries(pos, fx.ds.Background, QueryConfig{
		QuerySize: 3, TopK: 2, Miner: &opts, Interest: fx.interest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bq.Queries) == 0 || len(bq.Queries) > 2 {
		t.Errorf("queries = %d, want 1..2", len(bq.Queries))
	}
	if bq.Mining.Stats.PatternsExplored == 0 {
		t.Errorf("no mining stats propagated")
	}
}

func TestDiscoverQueriesNoInterestFallback(t *testing.T) {
	fx := newFixture(t, []string{"gzip-decompress"})
	pos := fx.ds.ByName("gzip-decompress")
	bq, err := DiscoverQueries(pos, fx.ds.Background, QueryConfig{QuerySize: 3, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(bq.Queries) == 0 {
		t.Errorf("no queries without interest ranking")
	}
}

// TestNoInterestTakesSmallestKeys pins the ranking without Interest: the
// queries are the first k candidates (the ties of exactly QuerySize edges)
// in canonical key order.
func TestNoInterestTakesSmallestKeys(t *testing.T) {
	fx := newFixture(t, []string{"gzip-decompress"})
	pos := fx.ds.ByName("gzip-decompress")
	const size, k = 3, 3
	bq, err := DiscoverQueries(pos, fx.ds.Background, QueryConfig{QuerySize: size, TopK: k})
	if err != nil {
		t.Fatal(err)
	}
	var cands []string
	for _, sp := range bq.Mining.Best {
		if sp.Pattern.NumEdges() == size {
			cands = append(cands, sp.Pattern.Key())
		}
	}
	if len(cands) <= k {
		t.Fatalf("%d candidates of %d edges; the test needs more than %d", len(cands), size, k)
	}
	slices.Sort(cands)
	got := make([]string, len(bq.Queries))
	for i, q := range bq.Queries {
		got[i] = q.Key()
	}
	if !slices.Equal(got, cands[:k]) {
		t.Errorf("queries %q, want the %d smallest candidate keys %q", got, k, cands[:k])
	}
}
