package main

import (
	"fmt"
	"math"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the metrics of an untraced run, in print order. Every
// workload runs every stage, so every workload reports all of them; the
// workload decides the shape of the inputs (workloads.go).
//
// Every timing carries the widest bound the contract allows. Ten runs of
// one binary on ten seeds, on the shared 2-core host this was sized on,
// spread (quartile distance over median) 3-13%, about half of it from the
// inputs (mine_alloc_mb is an exact function of the seed and spreads 6-9%)
// and the rest from the host; a bound has to stand well clear of that, or it
// rejects changes at random. The accuracy and bytes-per-edge metrics are exact
// functions of the seed and are bounded by how far they move between seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mine_cold_s", "s", "lower", 0.25},
	{"mine_warm_round_ms", "ms", "lower", 0.25},
	{"mine_alloc_mb", "MB", "lower", 0.25},
	{"query_precision", "ratio", "higher", 0.10},
	{"query_recall", "ratio", "higher", 0.10},
	{"ingest_events_per_s", "1/s", "higher", 0.25},
	{"ingest_batch_p50_ms", "ms", "lower", 0.25},
	{"ingest_batch_p95_ms", "ms", "lower", 0.25},
	{"ingest_bytes_per_edge", "B", "lower", 0.12},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"query_matches_per_s", "1/s", "higher", 0.25},
	{"query_cached_p50_ms", "ms", "lower", 0.25},
	{"mixed_query_p95_ms", "ms", "lower", 0.25},
	{"mixed_ingest_p95_ms", "ms", "lower", 0.25},
}

// perLayer lists the metrics of a traced run, named <module>.<name> after
// the layer whose public entry point the probe calls.
var perLayer = []metricDef{
	// grow: seed enumeration and first-level growth over every seed.
	{Name: "grow.seeds_ms", Unit: "ms", Better: "lower"},
	{Name: "grow.seeds_count", Unit: "count", Better: "lower"},
	{Name: "grow.extensions_ms", Unit: "ms", Better: "lower"},
	{Name: "grow.extend_ms", Unit: "ms", Better: "lower"},
	{Name: "grow.embeddings", Unit: "count", Better: "lower"},
	// seqcode / residual / rank over the mined tie sets.
	{Name: "seqcode.test_ns", Unit: "ns", Better: "lower"},
	{Name: "seqcode.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "residual.set_ns", Unit: "ns", Better: "lower"},
	{Name: "rank.topk_ms", Unit: "ms", Better: "lower"},
	// miner: one cold pass at 1 and at `workers` workers, its counters, and
	// the warm session's reuse.
	{Name: "miner.mine_p1_s", Unit: "s", Better: "lower"},
	{Name: "miner.mine_pn_s", Unit: "s", Better: "lower"},
	{Name: "miner.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "miner.patterns_explored", Unit: "count", Better: "lower"},
	{Name: "miner.ub_prunes", Unit: "count", Better: "higher"},
	{Name: "miner.subgraph_prunes", Unit: "count", Better: "higher"},
	{Name: "miner.supergraph_prunes", Unit: "count", Better: "higher"},
	{Name: "miner.subgraph_tests", Unit: "count", Better: "lower"},
	{Name: "miner.residual_eq_tests", Unit: "count", Better: "lower"},
	{Name: "miner.registry_size", Unit: "count", Better: "lower"},
	{Name: "miner.prune_per_test", Unit: "ratio", Better: "higher"},
	{Name: "miner.session_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "miner.session_dirty_seeds", Unit: "count", Better: "lower"},
	// the set-up path.
	{Name: "dataset.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "tgraph.finalize_ms", Unit: "ms", Better: "lower"},
	{Name: "sysgen.generate_s", Unit: "s", Better: "lower"},
	// serve, write side.
	{Name: "serve.decode_events_ns_per_ev", Unit: "ns", Better: "lower"},
	{Name: "serve.handler_ingest_us_per_ev", Unit: "us", Better: "lower"},
	{Name: "serve.transport_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "serve.ingest_rejected", Unit: "count", Better: "lower"},
	{Name: "serve.pressure_evictions", Unit: "count", Better: "lower"},
	// tgminer facade.
	{Name: "tgminer.live_append_ns_per_ev", Unit: "ns", Better: "lower"},
	{Name: "tgminer.namemap_ns_per_ev", Unit: "ns", Better: "lower"},
	// search, write side.
	{Name: "search.sharded_append_ns_per_ev", Unit: "ns", Better: "lower"},
	{Name: "search.live_append_ns_per_ev", Unit: "ns", Better: "lower"},
	{Name: "search.route_ns_per_ev", Unit: "ns", Better: "lower"},
	{Name: "search.append_p99_us", Unit: "us", Better: "lower"},
	{Name: "search.append_max_ms", Unit: "ms", Better: "lower"},
	{Name: "search.compactions", Unit: "count", Better: "lower"},
	{Name: "search.merges", Unit: "count", Better: "higher"},
	{Name: "search.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "search.evict_us", Unit: "us", Better: "lower"},
	{Name: "search.retained_bytes_per_edge", Unit: "B", Better: "lower"},
	{Name: "search.append_writers_speedup", Unit: "ratio", Better: "higher"},
	// serve, read side.
	{Name: "serve.decode_query_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_query_us", Unit: "us", Better: "lower"},
	{Name: "serve.cached_reply_ns_per_match", Unit: "ns", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.query_errors", Unit: "count", Better: "lower"},
	// search, read side: the same graph and query on three hosts.
	{Name: "search.engine_find_us.temporal", Unit: "us", Better: "lower"},
	{Name: "search.engine_find_us.constrained", Unit: "us", Better: "lower"},
	{Name: "search.engine_find_us.ntemp", Unit: "us", Better: "lower"},
	{Name: "search.engine_find_us.nodeset", Unit: "us", Better: "lower"},
	{Name: "search.live_find_us.temporal", Unit: "us", Better: "lower"},
	{Name: "search.live_find_us.constrained", Unit: "us", Better: "lower"},
	{Name: "search.live_find_us.ntemp", Unit: "us", Better: "lower"},
	{Name: "search.live_find_us.nodeset", Unit: "us", Better: "lower"},
	{Name: "search.sharded_find_us.temporal", Unit: "us", Better: "lower"},
	{Name: "search.sharded_find_us.constrained", Unit: "us", Better: "lower"},
	{Name: "search.sharded_find_us.ntemp", Unit: "us", Better: "lower"},
	{Name: "search.sharded_find_us.nodeset", Unit: "us", Better: "lower"},
	{Name: "search.merge_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "search.first_match_us", Unit: "us", Better: "lower"},
	{Name: "search.matches_per_query", Unit: "count", Better: "lower"},
	{Name: "search.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "search.newengine_ms", Unit: "ms", Better: "lower"},
	// harness: what tracing costs, whether the open loop kept its schedule,
	// and the tails too noisy to bound.
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "gen_late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest_batch_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "mixed_query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "mixed_ingest_p99_ms", Unit: "ms", Better: "lower"},
}

// metricValue is one reported number, in the shape of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics against a fixed list of definitions:
// setting an unknown name, setting a name twice or leaving one unset is a
// bug in the harness, and a value that is not finite fails the run.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metricValue, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			if _, dup := m.values[name]; dup {
				panic("tgbench: metric set twice: " + name)
			}
			m.values[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("tgbench: metric not in BENCHMARK.json: " + name)
}

// check reports the first metric that is missing or not a finite number.
func (m *metricSet) check() error {
	for _, d := range m.defs {
		v, ok := m.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v.Value)
		}
	}
	return nil
}
