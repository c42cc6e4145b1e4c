// Benchmarks regenerating every table and figure of the TGMiner paper
// (Section 6) at a scaled-down size, plus micro-benchmarks and ablations
// for the design choices called out in DESIGN.md. Run:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN / BenchmarkFigureN corresponds to the same-numbered
// exhibit in the paper; cmd/experiments prints the full rendered output.
package tgminer

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"tgminer/internal/experiments"
	"tgminer/internal/miner"
	"tgminer/internal/seqcode"
	"tgminer/internal/tgraph"
	"tgminer/internal/vf2"
)

// benchScale is smaller than experiments.Quick so the whole bench suite
// stays fast; drivers and data paths are identical.
func benchScale() experiments.Scale {
	s := experiments.Quick()
	s.Name = "bench"
	s.GraphsPerBehavior = 8
	s.BackgroundGraphs = 24
	s.TestInstances = 36
	s.MaxPatternEdges = 6
	return s
}

var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnvVal = experiments.NewEnv(benchScale())
		benchEnvVal.Timeline() // include index build outside timed loops
		benchEnvVal.Interest()
	})
	return benchEnvVal
}

func BenchmarkTable1TrainingData(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(env)
		if len(res.Rows) == 0 {
			b.Fatal("empty table 1")
		}
	}
}

func BenchmarkTable2QueryAccuracy(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		prec, _ := res.Averages()
		if prec[2] == 0 {
			b.Fatal("degenerate TGMiner precision")
		}
	}
}

func BenchmarkTable3PruningTriggers(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(context.Background(), env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10Patterns(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(context.Background(), env, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11QuerySize(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(context.Background(), env, []int{2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12TrainingAmount(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure12(context.Background(), env, []float64{0.5, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure13Mining* times one full mining run per algorithm over the
// paper's size classes (the content of Figure 13's bar charts).
func benchmarkMiningAlgo(b *testing.B, algo Algorithm, behavior string) {
	env := benchEnv(b)
	pos := env.Data.ByName(behavior)
	if pos == nil {
		b.Fatalf("behavior %s missing", behavior)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Parallelism pinned to 1: Figure 13 compares algorithms on the
		// paper's single-threaded search; BenchmarkMineParallel sweeps
		// worker counts explicitly.
		res, err := Mine(pos, env.Data.Background, MineOptions{
			Algorithm: algo, MaxEdges: benchScale().MaxPatternEdges, Parallelism: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.TieCount == 0 {
			b.Fatal("no patterns")
		}
	}
}

func BenchmarkFigure13MiningSmallTGMiner(b *testing.B) {
	benchmarkMiningAlgo(b, AlgoTGMiner, "bzip2-decompress")
}
func BenchmarkFigure13MiningSmallPruneGI(b *testing.B) {
	benchmarkMiningAlgo(b, AlgoPruneGI, "bzip2-decompress")
}
func BenchmarkFigure13MiningSmallSubPrune(b *testing.B) {
	benchmarkMiningAlgo(b, AlgoSubPrune, "bzip2-decompress")
}
func BenchmarkFigure13MiningSmallLinearScan(b *testing.B) {
	benchmarkMiningAlgo(b, AlgoLinearScan, "bzip2-decompress")
}
func BenchmarkFigure13MiningSmallPruneVF2(b *testing.B) {
	benchmarkMiningAlgo(b, AlgoPruneVF2, "bzip2-decompress")
}
func BenchmarkFigure13MiningSmallSupPrune(b *testing.B) {
	benchmarkMiningAlgo(b, AlgoSupPrune, "bzip2-decompress")
}

func BenchmarkFigure13MiningMediumTGMiner(b *testing.B) {
	benchmarkMiningAlgo(b, AlgoTGMiner, "ssh-login")
}
func BenchmarkFigure13MiningMediumPruneVF2(b *testing.B) {
	benchmarkMiningAlgo(b, AlgoPruneVF2, "ssh-login")
}
func BenchmarkFigure13MiningLargeTGMiner(b *testing.B) {
	benchmarkMiningAlgo(b, AlgoTGMiner, "sshd-login")
}
func BenchmarkFigure13MiningLargePruneVF2(b *testing.B) {
	benchmarkMiningAlgo(b, AlgoPruneVF2, "sshd-login")
}

// BenchmarkMineParallel sweeps Options.Parallelism over the bench-scale
// workload. It measures wall clock only: the result is deterministic at one
// worker, and with several the default's tie count can vary from run to run
// (see MineOptions.Parallelism).
// On a single-core host the worker pool adds scheduling overhead but no
// speedup — record BENCH trajectories on multi-core hardware.
func BenchmarkMineParallel(b *testing.B) {
	env := benchEnv(b)
	pos := env.Data.ByName("sshd-login")
	if pos == nil {
		b.Fatal("behavior sshd-login missing")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Mine(pos, env.Data.Background, MineOptions{
					MaxEdges: benchScale().MaxPatternEdges, Parallelism: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.TieCount == 0 {
					b.Fatal("no patterns")
				}
			}
		})
	}
}

func BenchmarkFigure14MaxPatternSize(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure14(context.Background(), env, []int{2, 4, 6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure15TrainingScaling(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure15(context.Background(), env, []float64{0.5, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure16Synthetic(b *testing.B) {
	env := benchEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure16(context.Background(), env, []int{2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks and ablations --------------------------------------

// randomishPatternPair builds a (sub, super) pattern pair for subgraph-test
// benchmarks.
func patternPair(edges int) (*tgraph.Pattern, *tgraph.Pattern) {
	sub := tgraph.SingleEdgePattern(0, 1, false)
	for sub.NumEdges() < edges {
		sub = sub.GrowForward(tgraph.NodeID(sub.NumNodes()-1), tgraph.Label(sub.NumNodes()%3))
	}
	super := sub
	for i := 0; i < edges; i++ {
		super = super.GrowForward(tgraph.NodeID(i%super.NumNodes()), tgraph.Label(i%3))
	}
	return sub, super
}

// BenchmarkSubgraphTestSeqcode vs VF2 is the ablation behind Section 4.3:
// sequence-encoded tests against the modified-VF2 baseline.
func BenchmarkSubgraphTestSeqcode(b *testing.B) {
	sub, super := patternPair(10)
	var tester seqcode.Tester
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tester.Test(sub, super); !ok {
			b.Fatal("embed failed")
		}
	}
}

func BenchmarkSubgraphTestVF2(b *testing.B) {
	sub, super := patternPair(10)
	var tester vf2.Tester
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tester.Test(sub, super); !ok {
			b.Fatal("embed failed")
		}
	}
}

// adversarialMissPair builds a test that must FAIL, on a label-ambiguous
// host: the sub pattern needs a final edge label the host lacks, which the
// sequence encoding rejects via its O(n) label-sequence pre-test while
// plain state-space search backtracks over combinatorially many partial
// embeddings first. Mining workloads are dominated by such misses.
func adversarialMissPair(k, m int) (*tgraph.Pattern, *tgraph.Pattern) {
	// sub: k parallel A->B edges between distinct same-label nodes, then
	// one A->C edge. Labels: A=0, B=1, C=2.
	sub := tgraph.SingleEdgePattern(0, 1, false)
	for sub.NumEdges() < k {
		sub = sub.GrowBackward(0, 1) // new A -> the B node
	}
	sub = sub.GrowForward(0, 2) // A -> C (label 2 absent from host)
	// host: m A->B edges among distinct same-label nodes; no C at all.
	super := tgraph.SingleEdgePattern(0, 1, false)
	for super.NumEdges() < m {
		super = super.GrowBackward(0, 1)
	}
	return sub, super
}

func BenchmarkSubgraphTestMissSeqcode(b *testing.B) {
	sub, super := adversarialMissPair(8, 18)
	var tester seqcode.Tester
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tester.Test(sub, super); ok {
			b.Fatal("impossible embed succeeded")
		}
	}
}

func BenchmarkSubgraphTestMissVF2(b *testing.B) {
	sub, super := adversarialMissPair(8, 18)
	var tester vf2.Tester
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tester.Test(sub, super); ok {
			b.Fatal("impossible embed succeeded")
		}
	}
}

// BenchmarkResidualEquivalence ablates Lemma 6: integer comparison vs
// linear scan, measured end-to-end through mining configs.
func BenchmarkResidualEquivalenceInteger(b *testing.B) {
	env := benchEnv(b)
	pos := env.Data.ByName("ftp-download")
	opts := miner.TGMinerOptions()
	opts.MaxEdges = 5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := miner.Mine(pos, env.Data.Background, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResidualEquivalenceLinearScan(b *testing.B) {
	env := benchEnv(b)
	pos := env.Data.ByName("ftp-download")
	opts := miner.LinearScanOptions()
	opts.MaxEdges = 5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := miner.Mine(pos, env.Data.Background, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTemporalSearch measures behavior-query evaluation over the test
// timeline (the paper's online search step, delegated to [38]).
func BenchmarkTemporalSearch(b *testing.B) {
	env := benchEnv(b)
	tl, _ := env.Timeline()
	pos := env.Data.ByName("wget-download")
	bq, err := DiscoverQueries(pos, env.Data.Background, QueryOptions{
		QuerySize: 4, TopK: 1, Interest: env.Interest(),
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(tl.Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eng.FindTemporal(bq.Queries[0], SearchOptions{Window: tl.Window})
		if len(res.Matches) == 0 {
			b.Fatal("no matches")
		}
	}
}

// buildStreamHost builds a host whose A->B, B->C chain repeats `pairs`
// times, so the 2-edge query A->B,B->C has ~pairs^2/2 distinct matches —
// the knob BenchmarkStreamTemporal turns to show stream memory does not
// scale with match count.
func buildStreamHost(b *testing.B, pairs int) (*Engine, *Pattern) {
	b.Helper()
	dict := NewDict()
	gb := NewGraphBuilder(dict)
	t := int64(0)
	for i := 0; i < pairs; i++ {
		if err := gb.AddEvent("a", "b", t); err != nil {
			b.Fatal(err)
		}
		t++
		if err := gb.AddEvent("b", "c", t); err != nil {
			b.Fatal(err)
		}
		t++
	}
	g, err := gb.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	pb := NewGraphBuilder(dict)
	_ = pb.AddEvent("a", "b", 0)
	_ = pb.AddEvent("b", "c", 1)
	pg, err := pb.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	return NewEngine(g), PatternFromGraph(pg)
}

// BenchmarkStreamTemporal measures Engine.Stream across match counts
// spanning two orders of magnitude. The acceptance property of the v2
// streaming API is that allocs/op stay flat as matches grow (the stream
// holds O(matches per root) scratch, no match buffer); contrast with
// BenchmarkFindTemporalCollect, whose result slice necessarily scales.
func BenchmarkStreamTemporal(b *testing.B) {
	for _, pairs := range []int{8, 32, 128} {
		eng, p := buildStreamHost(b, pairs)
		matches := len(eng.FindTemporal(p, SearchOptions{}).Matches)
		b.Run(fmt.Sprintf("matches=%d", matches), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				for _, err := range eng.Stream(context.Background(), p, SearchOptions{}) {
					if err != nil {
						b.Fatal(err)
					}
					n++
				}
				if n != matches {
					b.Fatalf("streamed %d matches, want %d", n, matches)
				}
			}
		})
	}
}

// BenchmarkLiveAppendUnderStreams measures LiveEngine append throughput
// while 0, 1, or 4 goroutines continuously range StreamTemporal against the
// same engine. This is the acceptance benchmark for lock-free live reads: a
// lock-based engine serializes appends behind every in-flight stream, so
// throughput collapses as consumers are added; with immutable generation
// snapshots appends are independent of the number (and speed) of readers.
func BenchmarkLiveAppendUnderStreams(b *testing.B) {
	for _, streams := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			dict := NewDict()
			live := NewLiveEngine(dict, LiveOptions{})
			t := int64(0)
			emit := func() {
				t++
				if err := live.Append("a", "b", t); err != nil {
					b.Fatal(err)
				}
			}
			// Pre-fill so streams have matches to chew on.
			for i := 0; i < 4096; i++ {
				emit()
			}
			pb := NewGraphBuilder(dict)
			_ = pb.AddEvent("a", "b", 0)
			pg, err := pb.Finalize()
			if err != nil {
				b.Fatal(err)
			}
			query := PatternFromGraph(pg)
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			for s := 0; s < streams; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for ctx.Err() == nil {
						for _, err := range live.Stream(ctx, query, SearchOptions{Limit: 256}) {
							if err != nil {
								break
							}
						}
					}
				}()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				emit()
				if i%1024 == 1023 {
					live.EvictBefore(t - 8192) // bounded sliding window
				}
			}
			b.StopTimer()
			cancel()
			wg.Wait()
		})
	}
}

// BenchmarkFindTemporalCollect is the batch-collection counterpart of
// BenchmarkStreamTemporal: same hosts, materialized results.
func BenchmarkFindTemporalCollect(b *testing.B) {
	for _, pairs := range []int{8, 32, 128} {
		eng, p := buildStreamHost(b, pairs)
		matches := len(eng.FindTemporal(p, SearchOptions{}).Matches)
		b.Run(fmt.Sprintf("matches=%d", matches), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := eng.FindTemporal(p, SearchOptions{})
				if len(res.Matches) != matches {
					b.Fatalf("%d matches, want %d", len(res.Matches), matches)
				}
			}
		})
	}
}

// BenchmarkGrowthEnumeration measures raw pattern-space exploration without
// any pruning (the Theorem 1 machinery).
func BenchmarkGrowthEnumeration(b *testing.B) {
	env := benchEnv(b)
	pos := env.Data.ByName("gzip-decompress")
	opts := miner.ExhaustiveOptions()
	opts.MaxEdges = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := miner.Mine(pos, env.Data.Background, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Incremental mining ---------------------------------------------------

// incCorpus builds the continuous-mining benchmark corpus — 50 behavior and
// 50 background graphs, so one graph is 1% of the set — plus an extended
// variant of every graph (two appended events between existing nodes).
// Dirty rounds toggle a graph between its base and extended variant, which
// changes its content stamp every round while keeping the corpus size
// constant across benchmark iterations.
type incCorpus struct {
	pos, neg       []*Graph
	extPos, extNeg []*Graph
}

var (
	incCorpusOnce sync.Once
	incCorpusVal  incCorpus
)

func incBenchCorpus(b *testing.B) incCorpus {
	b.Helper()
	incCorpusOnce.Do(func() {
		ds := GenerateSynthetic(SyntheticConfig{
			Scale: 0.25, GraphsPerBehavior: 50, BackgroundGraphs: 50, Seed: 7,
			Behaviors: []string{"sshd-login"},
		})
		extend := func(gs []*Graph) []*Graph {
			out := make([]*Graph, len(gs))
			for i, g := range gs {
				last := g.EdgeAt(g.NumEdges() - 1).Time
				n := tgraph.NodeID(g.NumNodes() - 1)
				ext, err := g.ExtendSorted(nil, []tgraph.Edge{
					{Src: 0, Dst: n, Time: last + 1},
					{Src: n, Dst: 0, Time: last + 2},
				})
				if err != nil {
					panic(err)
				}
				out[i] = ext
			}
			return out
		}
		incCorpusVal = incCorpus{
			pos: ds.Behaviors[0].Graphs, neg: ds.Background,
			extPos: extend(ds.Behaviors[0].Graphs), extNeg: extend(ds.Background),
		}
	})
	return incCorpusVal
}

// BenchmarkMineIncremental compares batch re-mining (cold) against a
// MineSession (warm) over an evolving 100-graph corpus at several dirty
// fractions. warm-1pct-bg is the acceptance case — one background graph
// (1% of the corpus) ingests new events between re-mines; warm-1pct-pos is
// the honest worst case, where the updated graph is a behavior graph whose
// content supports the discriminative seeds, so those seeds re-explore.
func BenchmarkMineIncremental(b *testing.B) {
	c := incBenchCorpus(b)
	opts := MineOptions{MaxEdges: 4, Parallelism: 1}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := Mine(c.pos, c.neg, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.TieCount == 0 {
				b.Fatal("no patterns")
			}
		}
	})

	warm := func(dirtyPos, dirtyNeg int) func(b *testing.B) {
		return func(b *testing.B) {
			ses, err := NewMineSession(opts)
			if err != nil {
				b.Fatal(err)
			}
			pos := append([]*Graph(nil), c.pos...)
			neg := append([]*Graph(nil), c.neg...)
			if _, err := ses.Mine(pos, neg); err != nil {
				b.Fatal(err) // prime the cache outside the timed loop
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < dirtyPos; j++ {
					if i%2 == 0 {
						pos[j] = c.extPos[j]
					} else {
						pos[j] = c.pos[j]
					}
				}
				for j := 0; j < dirtyNeg; j++ {
					if i%2 == 0 {
						neg[j] = c.extNeg[j]
					} else {
						neg[j] = c.neg[j]
					}
				}
				res, err := ses.Mine(pos, neg)
				if err != nil {
					b.Fatal(err)
				}
				if res.TieCount == 0 {
					b.Fatal("no patterns")
				}
			}
		}
	}
	b.Run("warm-clean", warm(0, 0))
	b.Run("warm-1pct-bg", warm(0, 1))
	b.Run("warm-1pct-pos", warm(1, 0))
	b.Run("warm-10pct", warm(5, 5))
	b.Run("warm-50pct", warm(25, 25))
}

// BenchmarkSyntheticGeneration measures corpus generation throughput.
func BenchmarkSyntheticGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds := GenerateSynthetic(SyntheticConfig{
			Scale: 0.25, GraphsPerBehavior: 4, BackgroundGraphs: 8, Seed: int64(i),
			Behaviors: []string{"sshd-login"},
		})
		if len(ds.Behaviors) != 1 {
			b.Fatal("bad dataset")
		}
	}
}
