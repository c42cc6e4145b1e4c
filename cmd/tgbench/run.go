package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"tgminer"
	"tgminer/internal/gspan"
	"tgminer/internal/serve"
	"tgminer/internal/tgraph"
)

// hostRecord is what a number is only comparable under: the host shape, the
// toolchain, the revision and the explicit parallelism of the run.
type hostRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Revision   string `json:"revision"`
	Shards     int    `json:"shards"`
	Workers    int    `json:"workers"`
	Clients    int    `json:"clients"`
}

func hostOf(cfg config) hostRecord {
	h := hostRecord{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: "unknown", Shards: cfg.Shards, Workers: cfg.Workers, Clients: cfg.Clients,
	}
	// `go build` stamps the revision; `go run` and a checkout without .git
	// do not, and the record then says so.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

// runRecord is one run's full result: what -record appends to a file and
// -compare reads back.
type runRecord struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Seconds  float64                `json:"seconds"`
	Scale    string                 `json:"scale"`
	Trace    bool                   `json:"trace"`
	Host     hostRecord             `json:"host"`
	Correct  bool                   `json:"correct"`
	Ops      int                    `json:"attempted"`
	Failed   int                    `json:"failed"`
	Metrics  map[string]metricValue `json:"metrics"`
	// Samples is how many measurements stand behind each stage's numbers;
	// PhaseSeconds how long each measured phase ran.
	Samples      map[string]int     `json:"samples"`
	PhaseSeconds map[string]float64 `json:"phaseSeconds"`
	// Layers is the traced run's table by span name: how many spans, their
	// summed duration, and the part not covered by the spans they caused.
	Layers map[string]layerTime `json:"layers,omitempty"`
	Errors []string             `json:"errors,omitempty"`
}

// boxed is the time one slice of a time-boxed stage with the given share of
// -seconds runs for.
func (c config) boxed(share float64, cycles int) time.Duration {
	if c.Trace {
		share *= tracedShare
	}
	return time.Duration(share * c.Seconds * float64(time.Second) / float64(cycles))
}

// collect empties the heap before a slice is measured. Twice, because what a
// sync.Pool holds (the closed server's buffers and generations) survives one
// collection.
func collect() {
	runtime.GC()
	runtime.GC()
}

// setUpReps is how often an untraced run sets up: setup_s is the median.
const setUpReps = 5

// tracedShare shrinks the time-boxed stages of a traced run, which spends
// the rest of its seconds replaying inputs against single layers.
const tracedShare = 0.4

// run executes one workload once and returns its record. An untraced run
// reports the end-to-end metrics; a traced run records spans around every
// request and every layer probe and reports the per-layer metrics.
func run(ctx context.Context, cfg config) (*runRecord, error) {
	sz, err := sizesFor(cfg.Workload, cfg.Scale)
	if err != nil {
		return nil, err
	}
	rec := &runRecord{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Scale: cfg.Scale, Trace: cfg.Trace,
		Host: hostOf(cfg), Samples: map[string]int{}, PhaseSeconds: map[string]float64{},
	}
	defs, reps := endToEnd, setUpReps
	var tr *tracer
	if cfg.Trace {
		// The probes repeat every stage layer by layer; two slices of each
		// to hang their spans under are enough, and one set-up, one replay.
		defs, reps, tr = perLayer, 1, newTracer()
		sz.Cycles, sz.IngestReplays = min(sz.Cycles, 2), 1
	}
	m := newMetricSet(defs)

	sc, setupS, err := setUpTimed(cfg, sz, reps)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rec.Samples["setup"] = len(setupS)

	mr, err := sc.mineWarmUp(ctx)
	if err != nil {
		return nil, fmt.Errorf("mine stage: %w", err)
	}
	qs, err := sc.querySet(ctx, mr)
	if err != nil {
		return nil, fmt.Errorf("query set: %w", err)
	}
	rec.Samples["query_set"] = len(qs)

	// First half: mining, slice by slice. The sessions' caches are well over
	// a hundred megabytes; they are dropped before anything is served,
	// because the tails of a served request follow the size of the heap the
	// collector has to mark (the mixed stage's ingest p95 reads 7 ms beside
	// 100 MB and 25 ms beside 240 MB), and a server does not share its
	// process with a miner. The heap is collected before every slice of
	// every stage for the same reason.
	for cycle := 0; cycle < sz.Cycles; cycle++ {
		collect()
		sc.coldSlice(ctx, tr, mr, cfg.boxed(sz.MineShare, sz.Cycles))
		sc.warmSlice(ctx, mr, (cycle+1)*sz.WarmRounds/sz.Cycles-cycle*sz.WarmRounds/sz.Cycles)
	}
	mr.large, mr.states = nil, [2][]*tgraph.Graph{}

	// Second half: serving. Slices of the mixed stream alternate with the
	// timeline replays, each into a fresh server that then answers its
	// share of the query slices and is closed before the stream resumes
	// (the last one stays up for the layer probes), so that every stage is
	// measured in pieces spread over the half and none beside another's heap.
	mixed, err := sc.newMixedStage(tr)
	if err != nil {
		return nil, fmt.Errorf("mixed stage: %w", err)
	}
	defer mixed.close()
	var sv *served
	var replays []*ingestResult
	var ir ingestResult    // every replay's samples and operations
	var qr, cr queryResult // every slice's
	var qSlices, cSlices []*queryResult
	slices := sz.IngestReplays * sz.QuerySlices
	for cycle := 0; cycle < sz.Cycles; cycle++ {
		collect()
		mixed.slice(cfg.sliceBatches(sz))
		if (cycle+1)*sz.IngestReplays/sz.Cycles == cycle*sz.IngestReplays/sz.Cycles {
			continue
		}
		sv = newServed(cfg.Shards, serve.Watermarks{})
		collect()
		one := sc.ingestStage(tr, sv)
		replays = append(replays, one)
		ir.add(one.ops)
		ir.batchMs = append(ir.batchMs, one.batchMs...)
		ir.wall += one.wall
		collect()
		for k := 0; k < sz.QuerySlices; k++ {
			for _, st := range []struct {
				share  float64
				cached bool
				all    *queryResult
				slices *[]*queryResult
			}{{sz.QueryShare, false, &qr, &qSlices}, {sz.CachedShare, true, &cr, &cSlices}} {
				one := sc.queryStage(tr, sv, qs, cfg.boxed(st.share, slices), st.cached)
				*st.slices = append(*st.slices, one)
				st.all.add(one.ops)
				st.all.latMs = append(st.all.latMs, one.latMs...)
				st.all.matches += one.matches
				st.all.wall += one.wall
			}
		}
		if len(replays) < sz.IngestReplays {
			sv.close()
			sv = nil
		}
	}
	defer sv.close()
	xr, err := mixed.finish(ctx)
	if err != nil {
		return nil, fmt.Errorf("mixed stage: %w", err)
	}
	rec.Samples["ingest"], rec.PhaseSeconds["ingest"] = len(ir.batchMs), ir.wall.Seconds()
	rec.Samples["mine_cold"], rec.Samples["mine_warm"] = len(mr.coldS), len(mr.warmMs)
	rec.PhaseSeconds["mine_cold"], rec.PhaseSeconds["mine_warm"] = sum(mr.coldS), sum(mr.warmMs)/1000
	rec.Samples["mixed_ingest"], rec.Samples["mixed_query"] = len(xr.ingestMs), len(xr.queryMs)
	rec.PhaseSeconds["mixed"] = xr.wall.Seconds()
	rec.Samples["query"], rec.PhaseSeconds["query"] = len(qr.latMs), qr.wall.Seconds()
	rec.Samples["query_cached"], rec.PhaseSeconds["query_cached"] = len(cr.latMs), cr.wall.Seconds()

	var all ops
	for _, o := range []ops{mr.ops, ir.ops, qr.ops, cr.ops, xr.ops} {
		all.add(o)
	}

	if !cfg.Trace {
		// A stage's number is the median over its slices (replays, passes,
		// rounds) of the slice's own number.
		over := func(n int, f func(i int) float64) float64 {
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = f(i)
			}
			return median(vs)
		}
		m.set("setup_s", median(setupS))
		m.set("mine_cold_s", median(mr.coldS))
		m.set("mine_warm_round_ms", median(mr.warmMs))
		m.set("mine_alloc_mb", median(mr.allocMB))
		m.set("query_precision", mr.precision)
		m.set("query_recall", mr.recall)
		m.set("ingest_events_per_s", over(len(replays), func(i int) float64 { return float64(replays[i].events) / replays[i].wall.Seconds() }))
		m.set("ingest_batch_p50_ms", over(len(replays), func(i int) float64 { return median(replays[i].batchMs) }))
		m.set("ingest_batch_p95_ms", over(len(replays), func(i int) float64 { return quantile(replays[i].batchMs, 0.95) }))
		m.set("ingest_bytes_per_edge", replays[0].bytesPerEdge)
		m.set("query_p50_ms", over(len(qSlices), func(i int) float64 { return median(qSlices[i].latMs) }))
		m.set("query_p95_ms", over(len(qSlices), func(i int) float64 { return quantile(qSlices[i].latMs, 0.95) }))
		m.set("query_matches_per_s", over(len(qSlices), func(i int) float64 { return float64(qSlices[i].matches) / qSlices[i].wall.Seconds() }))
		m.set("query_cached_p50_ms", over(len(cSlices), func(i int) float64 { return median(cSlices[i].latMs) }))
		m.set("mixed_query_p95_ms", over(len(xr.sliceQueryMs), func(i int) float64 { return quantile(xr.sliceQueryMs[i], 0.95) }))
		m.set("mixed_ingest_p95_ms", sc.perSecondP95(xr.ingestMs))
	} else {
		p := &prober{sc: sc, tr: tr, m: m}
		if err := p.all(ctx, mr, qs, sv, &ir, &qr, xr); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		all.add(p.ops)
		rec.Samples["spans"] = len(tr.spans)
		rec.Layers = tr.layers()
		if cfg.OutDir != "" {
			path := filepath.Join(cfg.OutDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.Workload, cfg.Seed))
			if err := tr.writeFile(path); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := m.check(); err != nil {
		return nil, err
	}
	rec.Metrics = m.values
	rec.Ops, rec.Failed, rec.Errors = all.attempted, all.failed, all.errs
	rec.Correct = all.failed == 0
	return rec, nil
}

// querySet turns the mined queries into the replayed set, per behaviour:
// each top-k temporal query plain and with a maxGap constraint on every hop
// after the first, its order-free collapse as an ntemp query (distinct
// collapses only), and the behaviour's discovered label-set query. Every
// query gets its reference answer from the static engine over the timeline.
//
// The ntemp queries are collapses of the mined temporal queries rather than
// gspan-mined ones: gspan discovery over the corpus costs 3-12 s a run and
// would measure nothing this benchmark reports.
func (sc *scenario) querySet(ctx context.Context, mr *mineResult) ([]*query, error) {
	dict, window := sc.ds.Dict, sc.tl.Window
	var qs []*query
	for _, b := range sc.ds.Behaviors {
		seen := map[string]bool{}
		for _, p := range mr.mined[b.Spec.Name] {
			qs = append(qs, temporalQuery(dict, p, window, 0, 0), temporalQuery(dict, p, window, 0, window/2))
			nt := gspan.PatternFromTemporal(p.AsGraph())
			if key := fmt.Sprint(nt.Labels, nt.E); !seen[key] {
				seen[key] = true
				qs = append(qs, ntempQuery(dict, nt, window, 0))
			}
		}
		lq, err := tgminer.DiscoverLabelSetQuery(b.Graphs, sc.ds.Background, tgminer.QueryOptions{
			QuerySize: querySize, Interest: sc.interest,
		})
		if err != nil {
			return nil, fmt.Errorf("label-set query of %s: %w", b.Spec.Name, err)
		}
		qs = append(qs, nodesetQuery(dict, lq.Labels, window, 0))
	}
	for _, q := range qs {
		if err := q.encode(); err != nil {
			return nil, err
		}
		if err := q.setReference(ctx, sc.ref); err != nil {
			return nil, err
		}
	}
	return qs, nil
}
