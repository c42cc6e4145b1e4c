package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"tgminer"
	"tgminer/internal/dataset"
	"tgminer/internal/experiments"
	"tgminer/internal/grow"
	"tgminer/internal/miner"
	"tgminer/internal/residual"
	"tgminer/internal/search"
	"tgminer/internal/seqcode"
	"tgminer/internal/serve"
	"tgminer/internal/sysgen"
	"tgminer/internal/tgraph"
)

// prober is the traced pass's second half: it replays the run's own
// generated inputs against one layer's public entry point at a time, each
// call inside a span, and derives the per-layer metrics. A probe that can
// check its output does (the three query hosts must agree, the replayed
// ranking must reproduce the end-to-end queries), and a disagreement is a
// failed operation like any other.
type prober struct {
	ops
	sc *scenario
	tr *tracer
	m  *metricSet
}

// timed runs fn inside a span and returns the span's ID and duration.
func (p *prober) timed(name string, parent, request int, fn func()) (int, time.Duration) {
	id := p.tr.begin(name, parent, request)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.tr.end(id)
	return id, d
}

func (p *prober) all(ctx context.Context, mr *mineResult, qs []*query, sv *served, ir *ingestResult, qr *queryResult, xr *mixedResult) error {
	if err := p.mining(ctx, mr); err != nil {
		return fmt.Errorf("mining: %w", err)
	}
	if err := p.setUpPath(); err != nil {
		return fmt.Errorf("set-up path: %w", err)
	}
	tw, err := p.ingest(ctx)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	defer tw.close()
	if err := p.queries(ctx, tw, qs); err != nil {
		return fmt.Errorf("queries: %w", err)
	}

	// Counts read at the servers' own boundary, after the end-to-end stages.
	st, err := sv.statsz()
	if err != nil {
		return err
	}
	p.m.set("serve.ingest_rejected", float64(st.Server.IngestRejected+xr.stats.Server.IngestRejected))
	p.m.set("serve.pressure_evictions", float64(xr.stats.Server.PressureEvictions))
	p.m.set("serve.cache_hit_ratio", st.Server.CacheHitRate)
	p.m.set("serve.query_errors", float64(st.Server.QueryErrors+xr.stats.Server.QueryErrors))

	// The harness itself: tails too noisy to bound, the open loop's
	// lateness, and what recording a span per request costs: the same two
	// query rounds untraced and traced, five times over, fastest against
	// fastest (the rounds take 50 ms, so anything but the minimum is host
	// noise).
	p.m.set("query_p99_ms", quantile(qr.latMs, 0.99))
	p.m.set("ingest_batch_p99_ms", quantile(ir.batchMs, 0.99))
	p.m.set("mixed_query_p99_ms", quantile(xr.queryMs, 0.99))
	p.m.set("mixed_ingest_p99_ms", quantile(xr.ingestMs, 0.99))
	p.m.set("gen_late_p95_ms", p.sc.perSecondP95(xr.lateMs))
	var offS, onS []float64
	for i := 0; i < 5; i++ {
		off := p.sc.queryStage(nil, sv, qs, 0, false)
		on := p.sc.queryStage(p.tr, sv, qs, 0, false)
		p.add(off.ops)
		p.add(on.ops)
		offS, onS = append(offS, off.wall.Seconds()), append(onS, on.wall.Seconds())
	}
	p.m.set("trace_overhead_pct", 100*(slices.Min(onS)/slices.Min(offS)-1))
	return nil
}

// mining replays each behaviour's discovery layer by layer under its
// core.discover span: grow.Seeds, one sequential and one parallel
// MineContext, first-level growth over every seed, the tie ranking, and the
// subgraph and residual tests over what was mined.
func (p *prober) mining(ctx context.Context, mr *mineResult) error {
	ds := p.sc.ds
	var seedsD, extsD, extendD, p1D, pnD, topkD, testD, resD time.Duration
	var nSeeds, nEmb, tests, hits, resSets int
	var stats miner.Stats
	var tester seqcode.Tester
	var resBuf residual.Set
	var resSum int64
	for bi, b := range ds.Behaviors {
		parent := mr.discoverSpans[bi]
		pos, neg := b.Graphs, ds.Background

		var seeds []grow.Seed
		_, d := p.timed("grow.seeds", parent, bi, func() { seeds = grow.Seeds(pos, neg) })
		seedsD += d
		nSeeds += len(seeds)

		opts := miner.TGMinerOptions()
		opts.MaxEdges, opts.Parallelism = querySize, 1
		var res *miner.Result
		var err error
		mineID, d := p.timed("miner.mine", parent, bi, func() { res, err = miner.MineContext(ctx, pos, neg, opts) })
		if err != nil {
			return err
		}
		p1D += d
		addMinerStats(&stats, res.Stats)
		opts.Parallelism = p.sc.cfg.Workers
		t0 := time.Now()
		if _, err := miner.MineContext(ctx, pos, neg, opts); err != nil {
			return err
		}
		pnD += time.Since(t0)

		// First-level growth is part of what miner.mine did, so its spans
		// hang under it.
		exts := make([][]grow.Ext, len(seeds))
		_, d = p.timed("grow.extensions", mineID, bi, func() {
			for i, s := range seeds {
				exts[i] = grow.Extensions(s.Pattern, pos, s.Pos)
			}
		})
		extsD += d
		_, d = p.timed("grow.extend", mineID, bi, func() {
			for i, s := range seeds {
				for _, x := range exts[i] {
					nEmb += len(grow.Extend(x, pos, s.Pos))
				}
			}
		})
		extendD += d

		// The ranking, replayed on the sequential run's tie set, must pick
		// the run's queries (which a sequential discovery mined).
		var cands []*tgraph.Pattern
		for _, sp := range res.Best {
			if sp.Pattern.NumEdges() == querySize {
				cands = append(cands, sp.Pattern)
			}
		}
		if len(cands) == 0 {
			for _, sp := range res.Best {
				cands = append(cands, sp.Pattern)
			}
		}
		var top []*tgraph.Pattern
		_, d = p.timed("rank.topk", parent, bi, func() { top = p.sc.interest.TopK(cands, queryTopK) })
		topkD += d
		if keys, want := patternKeys(top), patternKeys(mr.mined[b.Spec.Name]); !slices.Equal(keys, want) {
			p.fail("replayed ranking of %s picks %d queries that differ from the end-to-end run's %d", b.Spec.Name, len(keys), len(want))
		} else {
			p.ok()
		}

		best := res.Best[:min(len(res.Best), 24)]
		t0 = time.Now()
		for i := range best {
			for j := range best {
				if i != j {
					if _, ok := tester.Test(best[i].Pattern, best[j].Pattern); ok {
						hits++
					}
					tests++
				}
			}
		}
		testD += time.Since(t0)

		t0 = time.Now()
		for _, s := range seeds {
			resBuf = s.Pos.ResidualSetInto(resBuf)
			resSum += resBuf.I(pos)
			resBuf = s.Neg.ResidualSetInto(resBuf)
			resSum += resBuf.I(neg)
			resSets += 2
		}
		resD += time.Since(t0)
	}
	if resSum < 0 {
		return fmt.Errorf("residual sizes sum to %d", resSum)
	}
	m := p.m
	m.set("grow.seeds_ms", ms(seedsD))
	m.set("grow.seeds_count", float64(nSeeds))
	m.set("grow.extensions_ms", ms(extsD))
	m.set("grow.extend_ms", ms(extendD))
	m.set("grow.embeddings", float64(nEmb))
	m.set("seqcode.test_ns", ratio(float64(testD), float64(tests)))
	m.set("seqcode.hit_ratio", ratio(float64(hits), float64(tests)))
	m.set("residual.set_ns", ratio(float64(resD), float64(resSets)))
	m.set("rank.topk_ms", ms(topkD))
	m.set("miner.mine_p1_s", p1D.Seconds())
	m.set("miner.mine_pn_s", pnD.Seconds())
	m.set("miner.par_speedup", ratio(p1D.Seconds(), pnD.Seconds()))
	m.set("miner.patterns_explored", float64(stats.PatternsExplored))
	m.set("miner.ub_prunes", float64(stats.UpperBoundPrunes))
	m.set("miner.subgraph_prunes", float64(stats.SubgraphPrunes))
	m.set("miner.supergraph_prunes", float64(stats.SupergraphPrunes))
	m.set("miner.subgraph_tests", float64(stats.SubgraphTests))
	m.set("miner.residual_eq_tests", float64(stats.ResidualEqTests))
	m.set("miner.registry_size", float64(stats.RegistrySize))
	m.set("miner.prune_per_test", ratio(float64(stats.SubgraphPrunes+stats.SupergraphPrunes), float64(stats.SubgraphTests)))
	m.set("miner.session_reuse_ratio", ratio(float64(mr.sessionReused), float64(mr.sessionSeeds)))
	m.set("miner.session_dirty_seeds", float64(mr.sessionDirty))
	return nil
}

func addMinerStats(dst *miner.Stats, s miner.Stats) {
	dst.PatternsExplored += s.PatternsExplored
	dst.UpperBoundPrunes += s.UpperBoundPrunes
	dst.SubgraphTests += s.SubgraphTests
	dst.ResidualEqTests += s.ResidualEqTests
	dst.SubgraphPrunes += s.SubgraphPrunes
	dst.SupergraphPrunes += s.SupergraphPrunes
	dst.RegistrySize += s.RegistrySize
}

func patternKeys(ps []*tgraph.Pattern) []string {
	keys := make([]string, len(ps))
	for i, p := range ps {
		keys[i] = p.Key()
	}
	return keys
}

// setUpPath times the layers set-up spends its time in.
func (p *prober) setUpPath() error {
	sc := p.sc
	corpus := sc.sz.Corpus
	corpus.Seed = sc.cfg.Seed
	_, d := p.timed("sysgen.generate", -1, 0, func() { sysgen.Generate(corpus) })
	p.m.set("sysgen.generate_s", d.Seconds())

	c := &dataset.Corpus{Dict: sc.ds.Dict}
	for _, b := range sc.ds.Behaviors {
		for i, g := range b.Graphs {
			c.Add(fmt.Sprintf("%s-%d", b.Spec.Name, i), g)
		}
	}
	for i, g := range sc.ds.Background {
		c.Add(fmt.Sprintf("background-%d", i), g)
	}
	var text bytes.Buffer
	if err := dataset.Write(&text, c); err != nil {
		return err
	}
	var back *dataset.Corpus
	var err error
	_, d = p.timed("dataset.read", -1, 0, func() { back, err = dataset.Read(bytes.NewReader(text.Bytes()), nil) })
	if err != nil {
		return err
	}
	if len(back.Graphs) != len(c.Graphs) {
		p.fail("dataset.Read returned %d graphs of %d written", len(back.Graphs), len(c.Graphs))
	} else {
		p.ok()
	}
	p.m.set("dataset.read_mb_per_s", float64(text.Len())/1e6/d.Seconds())

	g := sc.tl.Graph
	var b tgraph.Builder
	for _, l := range g.Labels() {
		b.AddNode(l)
	}
	for _, e := range g.Edges() {
		if err := b.AddEdge(e.Src, e.Dst, e.Time); err != nil {
			return err
		}
	}
	_, d = p.timed("tgraph.finalize", -1, 0, func() { _, err = b.Finalize() })
	if err != nil {
		return err
	}
	p.m.set("tgraph.finalize_ms", ms(d))
	_, d = p.timed("search.newengine", -1, 0, func() { search.NewEngine(g) })
	p.m.set("search.newengine_ms", ms(d))
	return nil
}

// twins are the instances the write-side replay leaves loaded with the same
// timeline prefix, one per layer; the read-side probes query them.
type twins struct {
	http, handler *served
	sharded       *search.ShardedLive
	live          *search.Live
	engine        *search.Engine
}

func (t *twins) close() {
	t.http.close()
	t.handler.close()
}

// appendOp is one timeline event with its entity names already resolved the
// way the facade would: IDs in first-touch order, source before destination.
type appendOp struct {
	src, dst           tgraph.NodeID
	srcNew, dstNew     bool
	srcLabel, dstLabel tgraph.Label
	t                  int64
}

func appendPlan(events []serve.Event, dict *tgraph.Dict) []appendOp {
	ids := map[string]tgraph.NodeID{}
	resolve := func(name string) (tgraph.NodeID, bool) {
		v, ok := ids[name]
		if !ok {
			v = tgraph.NodeID(len(ids))
			ids[name] = v
		}
		return v, !ok
	}
	plan := make([]appendOp, len(events))
	for i, ev := range events {
		op := appendOp{t: ev.Time, srcLabel: dict.Lookup(ev.SrcLabel), dstLabel: dict.Lookup(ev.DstLabel)}
		op.src, op.srcNew = resolve(ev.Src)
		op.dst, op.dstNew = resolve(ev.Dst)
		plan[i] = op
	}
	return plan
}

// appender is what search.Live and search.ShardedLive share on the write
// side.
type appender interface {
	AddNode(label tgraph.Label) tgraph.NodeID
	Append(src, dst tgraph.NodeID, t int64) error
}

func replay(host appender, plan []appendOp) error {
	for _, op := range plan {
		if op.srcNew {
			host.AddNode(op.srcLabel)
		}
		if op.dstNew {
			host.AddNode(op.dstLabel)
		}
		if err := host.Append(op.src, op.dst, op.t); err != nil {
			return err
		}
	}
	return nil
}

// handle calls the server's handler directly: no socket, no transport.
func handle(sv *served, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	sv.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// ingest replays the first ProbeEvents timeline events batch by batch
// through every write-side layer, each on its own twin so all of them see
// the same growing state: the HTTP round trip, the handler without a socket,
// the decode alone, the facade, the sharded engine with pre-resolved IDs and
// a single Live. Two more Lives take per-call latencies (the compaction
// pause seen from outside) and explicit compactions and an eviction.
func (p *prober) ingest(ctx context.Context) (*twins, error) {
	sc, sz := p.sc, p.sc.sz
	// Whole batches only, so every request body is one set-up encoded.
	n := min(sz.ProbeEvents, len(sc.events)) / ingestBatch * ingestBatch
	events := sc.events[:n]
	plan := appendPlan(events, sc.ds.Dict)
	shards := sc.cfg.Shards

	tw := &twins{
		http: newServed(shards, serve.Watermarks{}), handler: newServed(shards, serve.Watermarks{}),
		sharded: search.NewSharded(search.LiveOptions{Shards: shards}),
		live:    search.NewLive(search.LiveOptions{}),
	}
	facade := tgminer.NewLiveEngine(nil, tgminer.LiveOptions{Shards: shards})
	perCall := search.NewLive(search.LiveOptions{})
	manual := search.NewLive(search.LiveOptions{CompactEvery: -1})

	// Per-batch nanoseconds per event of each layer. The metrics are
	// medians over batches: every twin compacts in the same batches, a
	// compacting batch costs ten times a plain one, and whichever twin
	// happens to trigger a collection pays for it, so totals (and above all
	// differences of totals) are mostly noise. The pauses have their own
	// metrics below.
	var transportNs, handlerNs, decodeNs, facadeNs, namemapNs, shardedNs, routeNs, liveNs []float64
	perEvent := func(d time.Duration) float64 { return float64(d) / float64(ingestBatch) }
	var callUs, compactMs []float64
	var buf bytes.Buffer
	fail := func(err error) (*twins, error) {
		tw.close()
		return nil, err
	}
	for lo := 0; lo < n; lo += ingestBatch {
		hi := lo + ingestBatch
		body, evs, steps := sc.batches[lo/ingestBatch], events[lo:hi], plan[lo:hi]
		req := p.tr.newRequest()
		var err error

		root, rtD := p.timed("http.roundtrip", -1, req, func() { _, err = tw.http.ingest(body, len(evs), &buf) })
		if err != nil {
			return fail(err)
		}
		var rec *httptest.ResponseRecorder
		hid, d := p.timed("serve.handler", root, req, func() { rec = handle(tw.handler, "/v1/events", body) })
		if rec.Code != http.StatusOK {
			return fail(fmt.Errorf("handler replay: status %d: %s", rec.Code, rec.Body))
		}
		handlerNs = append(handlerNs, perEvent(d))
		transportNs = append(transportNs, float64(rtD-d))
		_, d = p.timed("serve.decode", hid, req, func() { err = strictUnmarshal(body, &serve.IngestRequest{}) })
		if err != nil {
			return fail(err)
		}
		decodeNs = append(decodeNs, perEvent(d))
		fid, facadeD := p.timed("tgminer.live_append", hid, req, func() {
			for _, ev := range evs {
				facade.NodeWithLabel(ev.Src, ev.SrcLabel)
				facade.NodeWithLabel(ev.Dst, ev.DstLabel)
				if err = facade.Append(ev.Src, ev.Dst, ev.Time); err != nil {
					return
				}
			}
		})
		if err != nil {
			return fail(err)
		}
		sid, shardedD := p.timed("search.sharded_append", fid, req, func() { err = replay(tw.sharded, steps) })
		if err != nil {
			return fail(err)
		}
		_, liveD := p.timed("search.live_append", sid, req, func() { err = replay(tw.live, steps) })
		if err != nil {
			return fail(err)
		}
		facadeNs, namemapNs = append(facadeNs, perEvent(facadeD)), append(namemapNs, perEvent(facadeD-shardedD))
		shardedNs, routeNs = append(shardedNs, perEvent(shardedD)), append(routeNs, perEvent(shardedD-liveD))
		liveNs = append(liveNs, perEvent(liveD))

		// One clock read per call: each append is charged the interval
		// since the previous one returned.
		prev := time.Now()
		for _, op := range steps {
			if err := replay(perCall, []appendOp{op}); err != nil {
				return fail(err)
			}
			now := time.Now()
			callUs = append(callUs, us(now.Sub(prev)))
			prev = now
		}
		if err := replay(manual, steps); err != nil {
			return fail(err)
		}
		if hi%4096 == 0 || hi == n {
			_, d := p.timed("search.compact", -1, req, manual.Compact)
			compactMs = append(compactMs, ms(d))
		}
	}
	_, evictD := p.timed("search.evict", -1, 0, func() { manual.EvictBefore(events[n/4].Time) })

	// Every twin must now hold the same edges.
	for name, got := range map[string]int{
		"http": tw.http.eng.NumEdges(), "handler": tw.handler.eng.NumEdges(), "facade": facade.NumEdges(),
		"sharded": tw.sharded.NumEdges(), "live": tw.live.NumEdges(), "per-call": perCall.NumEdges(),
	} {
		if got != n {
			p.fail("%s twin holds %d edges after replaying %d", name, got, n)
		} else {
			p.ok()
		}
	}
	var err error
	if tw.engine, err = staticEngine(events, sc.ds.Dict); err != nil {
		return fail(err)
	}

	m := p.m
	m.set("serve.decode_events_ns_per_ev", median(decodeNs))
	m.set("serve.handler_ingest_us_per_ev", median(handlerNs)/1000)
	m.set("serve.transport_us_per_batch", median(transportNs)/1000)
	m.set("tgminer.live_append_ns_per_ev", median(facadeNs))
	m.set("tgminer.namemap_ns_per_ev", median(namemapNs))
	m.set("search.sharded_append_ns_per_ev", median(shardedNs))
	m.set("search.live_append_ns_per_ev", median(liveNs))
	m.set("search.route_ns_per_ev", median(routeNs))
	m.set("search.append_p99_us", quantile(callUs, 0.99))
	m.set("search.append_max_ms", slices.Max(callUs)/1000)
	st := perCall.Stats()
	m.set("search.compactions", float64(st.Compactions))
	m.set("search.merges", float64(st.Merges))
	m.set("search.compact_ms", median(compactMs))
	m.set("search.evict_us", us(evictD))
	m.set("search.retained_bytes_per_edge", ratio(float64(st.RetainedBytes), float64(st.LiveEdges)))

	// Multi-writer scaling on the scheme of experiments.ShardedIngest: one
	// writer per shard on `shards` shards against one writer on one.
	si, err := experiments.ShardedIngest(ctx, []int{1, shards}, 16*sz.ProbeEvents)
	if err != nil {
		return fail(err)
	}
	m.set("search.append_writers_speedup", ratio(si.Rate[1], si.Rate[0]))
	return tw, nil
}

// queries runs up to ProbeQueries queries, spread evenly over the four
// families, against the twins: the same compiled query in process on the
// static engine, a single Live and the sharded engine (which must agree),
// then as a request through the handler without a socket, uncached and as a
// cache hit, and over HTTP as the root span.
func (p *prober) queries(ctx context.Context, tw *twins, qs []*query) error {
	perFamily := max(p.sc.sz.ProbeQueries/len(families), 1)
	taken := map[string]int{}
	hosts := []struct {
		name string
		host finder
	}{{"engine", tw.engine}, {"live", tw.live}, {"sharded", tw.sharded}}
	findD := map[string]time.Duration{} // "<host>.<family>"
	var decodeD, handlerD, cachedD, firstD, snapD time.Duration
	var n, matches, cachedMatches, firsts int
	var buf bytes.Buffer
	for _, q := range qs {
		if taken[q.Family] == perFamily {
			continue
		}
		taken[q.Family]++
		n++
		req := p.tr.newRequest()

		// The root: the request over HTTP, its answer checked against the
		// static engine over the same prefix.
		var err error
		root, _ := p.timed("http.roundtrip", -1, req, func() { err = tw.http.query(q, q.bodyNoCache, &buf) })
		if err != nil {
			return err
		}
		want, err := q.find(ctx, tw.engine)
		if err != nil {
			return err
		}
		sorted := sortedMatches(want.Matches)
		rep, err := parseReply(buf.Bytes())
		if err == nil && !slices.Equal(sortedMatches(rep.matches), sorted) {
			err = fmt.Errorf("%d matches, static engine says %d", len(rep.matches), len(sorted))
		}
		if err != nil {
			p.fail("probe %s query over HTTP: %v", q.Family, err)
		} else {
			p.ok()
		}
		matches += len(sorted)

		var rec *httptest.ResponseRecorder
		hid, d := p.timed("serve.handler", root, req, func() { rec = handle(tw.handler, q.Path, q.bodyNoCache) })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler replay: status %d: %s", rec.Code, rec.Body)
		}
		handlerD += d
		_, d = p.timed("serve.decode_query", hid, req, func() { err = strictUnmarshal(q.bodyNoCache, &serve.QueryRequest{}) })
		if err != nil {
			return err
		}
		decodeD += d

		// One untimed call warms each host's pooled scratch; the second is
		// the measurement.
		for _, h := range hosts {
			if _, err := q.find(ctx, h.host); err != nil {
				return err
			}
			var res search.Result
			_, d := p.timed("search."+h.name+"_find", hid, req, func() { res, err = q.find(ctx, h.host) })
			if err != nil {
				return err
			}
			findD[h.name+"."+q.Family] += d
			if !slices.Equal(sortedMatches(res.Matches), sorted) || res.Truncated != want.Truncated {
				p.fail("%s query on %s host: %d matches, static engine says %d", q.Family, h.name, len(res.Matches), len(sorted))
			} else {
				p.ok()
			}
		}

		// The first cached request fills the cache, the second is the hit.
		handle(tw.handler, q.Path, q.bodyCache)
		_, d = p.timed("serve.cached_reply", root, req, func() { rec = handle(tw.handler, q.Path, q.bodyCache) })
		if rep, err := parseReply(rec.Body.Bytes()); err != nil || !rep.done.Cached {
			p.fail("probe %s query did not hit the cache (%v)", q.Family, err)
		} else {
			p.ok()
			cachedD += d
			cachedMatches += len(rep.matches)
		}

		if q.pattern != nil && len(sorted) > 0 {
			t0 := time.Now()
			for _, err := range tw.engine.StreamTemporal(ctx, q.pattern, q.opts) {
				if err != nil {
					return err
				}
				break
			}
			firstD += time.Since(t0)
			firsts++
		}
	}
	_, snapD = p.timed("search.snapshot", -1, 0, func() { tw.sharded.Snapshot() })

	m := p.m
	var liveAll, shardedAll time.Duration
	for _, fam := range families {
		k := float64(max(taken[fam], 1))
		for _, h := range hosts {
			m.set("search."+h.name+"_find_us."+fam, us(findD[h.name+"."+fam])/k)
		}
		liveAll += findD["live."+fam]
		shardedAll += findD["sharded."+fam]
	}
	m.set("search.merge_overhead_ratio", ratio(float64(shardedAll), float64(liveAll)))
	m.set("search.first_match_us", ratio(us(firstD), float64(firsts)))
	m.set("search.matches_per_query", ratio(float64(matches), float64(n)))
	m.set("search.snapshot_ms", ms(snapD))
	m.set("serve.decode_query_us", ratio(us(decodeD), float64(n)))
	m.set("serve.handler_query_us", ratio(us(handlerD), float64(n)))
	m.set("serve.cached_reply_ns_per_match", ratio(float64(cachedD), float64(cachedMatches)))
	return nil
}
