package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tgminer"
	"tgminer/internal/core"
	"tgminer/internal/sysgen"
	"tgminer/internal/tgraph"
)

// ops counts the operations a stage attempted and the ones that failed: an
// error, a refused request or an answer that differs from its reference.
// The first few failures are kept for the report.
type ops struct {
	attempted, failed int
	errs              []string
}

func (o *ops) ok() { o.attempted++ }

func (o *ops) fail(format string, args ...any) {
	o.attempted++
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

func (o *ops) add(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.errs = append(o.errs, p.errs...)
}

const (
	querySize = 6 // edges per mined behaviour query, the paper's default
	queryTopK = 5

	accuracyFloor = 0.85 // least mean precision and recall of the mined queries
)

type mineResult struct {
	ops
	coldS     []float64 // wall seconds of each cold 12-behaviour pass
	allocMB   []float64 // TotalAlloc of each cold pass
	warmMs    []float64 // wall milliseconds of each warm session round
	precision float64   // mean over behaviours, union of each top-k
	recall    float64

	mined map[string][]*tgraph.Pattern // behaviour -> its top-k queries
	// discoverSpans are the first timed pass's core.discover span IDs by
	// behaviour: the parents of the mining layer probes.
	discoverSpans []int

	large []*warmSession
	// states are the two corpora the warm rounds alternate between, and
	// round counts the rounds run so far.
	states [2][]*tgraph.Graph
	round  int

	// Summed over the warm sessions after their last round.
	sessionSeeds, sessionReused, sessionDirty int
}

// warmSession is the incremental session of one large behaviour.
type warmSession struct {
	name string
	pos  []*tgraph.Graph
	ses  *tgminer.MineSession
	want [2]*tgminer.MineResult // by state: cold Mine, priming run
}

func (sc *scenario) discover(ctx context.Context, b sysgen.BehaviorData, workers int) (*tgminer.BehaviorQueries, error) {
	return tgminer.DiscoverQueriesContext(ctx, b.Graphs, sc.ds.Background, tgminer.QueryOptions{
		QuerySize: querySize, TopK: queryTopK, Interest: sc.interest, Parallelism: workers,
	})
}

// mineWarmUp is the untimed part of the mine stage. One sequential
// discovery pass over all behaviours gives the run its query set and the
// accuracy of those queries on the timeline; it also lets the allocator and
// the miner's pools reach their working size before a pass is timed. It is
// sequential so that the queries are a function of the seed: with several
// workers the miner now and then returns a larger tie set (see prepareWarm),
// and the top-k of that can differ. Then the warm sessions are primed.
func (sc *scenario) mineWarmUp(ctx context.Context) (*mineResult, error) {
	r := &mineResult{mined: map[string][]*tgraph.Pattern{}}
	for _, b := range sc.ds.Behaviors {
		bq, err := sc.discover(ctx, b, 1)
		switch {
		case err != nil:
			r.fail("discover %s: %v", b.Spec.Name, err)
		case len(bq.Queries) == 0:
			r.fail("discover %s: no queries", b.Spec.Name)
		default:
			r.ok()
			r.mined[b.Spec.Name] = bq.Queries
		}
	}

	// Accuracy: the union of each behaviour's top-k on the test timeline.
	ev := core.Evaluator{Engine: sc.ref, Window: sc.tl.Window}
	for _, b := range sc.ds.Behaviors {
		m := ev.EvalTemporal(r.mined[b.Spec.Name], tgminer.TruthIntervalsOf(sc.tl, b.Spec.Name))
		r.precision += m.Precision() / float64(len(sc.ds.Behaviors))
		r.recall += m.Recall() / float64(len(sc.ds.Behaviors))
	}
	// The sanity floor holds at full scale only: a smoke timeline has two
	// instances per behaviour. It stands clear of every seed tried (the
	// lowest precision and recall over 286 seeds of the two corpora were
	// 0.931 and 0.928; seed 1 scores 0.94 and 0.97), so it trips on a broken
	// miner and not on an unlucky corpus.
	if sc.cfg.Scale == "full" && (r.precision < accuracyFloor || r.recall < accuracyFloor) {
		r.fail("mined queries score precision %.3f recall %.3f, below the %.2f floor", r.precision, r.recall, accuracyFloor)
	} else {
		r.ok()
	}
	return r, sc.prepareWarm(ctx, r)
}

// coldSlice is batch query discovery, closed loop, one caller: cold
// DiscoverQueries passes over all behaviours with cfg.Workers workers, at
// least one and then as many as fit the budget (a pass that would overrun it
// as the last one did is not started).
func (sc *scenario) coldSlice(ctx context.Context, tr *tracer, r *mineResult, budget time.Duration) {
	var mem runtime.MemStats
	for start := time.Now(); ; {
		first := len(r.coldS) == 0
		runtime.ReadMemStats(&mem)
		alloc0 := mem.TotalAlloc
		t0 := time.Now()
		for bi, b := range sc.ds.Behaviors {
			id := tr.begin("core.discover", -1, bi)
			bq, err := sc.discover(ctx, b, sc.cfg.Workers)
			tr.end(id)
			if first {
				r.discoverSpans = append(r.discoverSpans, id)
			}
			switch {
			case err != nil:
				r.fail("discover %s: %v", b.Spec.Name, err)
			case len(bq.Queries) == 0:
				r.fail("discover %s: no queries", b.Spec.Name)
			default:
				r.ok()
			}
		}
		r.coldS = append(r.coldS, time.Since(t0).Seconds())
		runtime.ReadMemStats(&mem)
		r.allocMB = append(r.allocMB, float64(mem.TotalAlloc-alloc0)/1e6)
		if time.Since(start)+time.Since(t0) > budget {
			return
		}
	}
}

// prepareWarm sets up the incremental sessions of the large behaviours: 1%
// of the background graphs toggle between their generated form and a
// variant extended by two events, so every round changes content while the
// corpus size stays fixed (the BenchmarkMineIncremental scheme). Each
// session is primed on the toggled corpus (a cold run through the session)
// and the rounds then alternate between the two: a round on the generated
// corpus must equal a cold Mine of it, a round on the toggled corpus the
// priming run.
//
// Sessions and references mine with one worker. The equality is exact only
// there: with two workers the same call returns a larger tie set about once
// in a hundred runs (356 ties or 358 for sshd-login on the mine-corpus
// corpus of seed 5; the sequential miner always says 356), and a check that
// fails one run in thirty is no check. A warm round re-explores some fifty
// seeds of several thousand, so workers would have little to share anyway.
//
// The toggled graphs are drawn from the background graphs that hold no
// winning seed: no edge whose label pair starts one of the cold run's best
// patterns. A change to a graph that supports a winning seed makes the
// session re-explore that seed's whole subtree, which costs as much as the
// cold run (one such graph among the six turns a 150 ms round into a 1.5 s
// one); whether the draw hits one depends on the seed, and the metric would
// read one of two numbers. The steady case is the common one, a change that
// leaves the winners alone, and that is what the rounds measure.
func (sc *scenario) prepareWarm(ctx context.Context, r *mineResult) error {
	base := sc.ds.Background
	opts := tgminer.MineOptions{MaxEdges: querySize, Parallelism: 1}

	type labelPair [2]tgraph.Label
	winning := map[labelPair]bool{}
	for _, b := range sc.ds.Behaviors {
		if b.Spec.Class != "large" {
			continue
		}
		w := &warmSession{name: b.Spec.Name, pos: b.Graphs}
		var err error
		if w.ses, err = tgminer.NewMineSession(opts); err != nil {
			return err
		}
		if w.want[0], err = tgminer.MineContext(ctx, w.pos, base, opts); err != nil {
			return fmt.Errorf("cold reference %s: %w", w.name, err)
		}
		for _, sp := range w.want[0].Best {
			e := sp.Pattern.EdgeAt(0)
			winning[labelPair{sp.Pattern.LabelOf(e.Src), sp.Pattern.LabelOf(e.Dst)}] = true
		}
		r.large = append(r.large, w)
	}

	toggled := append([]*tgraph.Graph(nil), base...)
	rng := rand.New(rand.NewSource(sc.cfg.Seed + 3))
	left := max(len(base)/100, 1)
	for _, i := range rng.Perm(len(base)) {
		if left == 0 {
			break
		}
		g := base[i]
		holdsWinner := false
		for _, e := range g.Edges() {
			if winning[labelPair{g.LabelOf(e.Src), g.LabelOf(e.Dst)}] {
				holdsWinner = true
				break
			}
		}
		if holdsWinner {
			continue
		}
		last := g.EdgeAt(g.NumEdges() - 1).Time
		n := tgraph.NodeID(g.NumNodes() - 1)
		ext, err := g.ExtendSorted(nil, []tgraph.Edge{
			{Src: 0, Dst: n, Time: last + 1},
			{Src: n, Dst: 0, Time: last + 2},
		})
		if err != nil {
			return fmt.Errorf("extend background graph %d: %w", i, err)
		}
		toggled[i] = ext
		left--
	}
	if left > 0 {
		return fmt.Errorf("warm rounds: every background graph holds a winning seed")
	}
	r.states = [2][]*tgraph.Graph{base, toggled}
	sc.warmSlice(ctx, r, 1) // round 0 primes each session on the toggled corpus
	return nil
}

// warmSlice runs the next rounds warm session rounds. Round 0 is the
// priming run and is not timed; every later round is.
func (sc *scenario) warmSlice(ctx context.Context, r *mineResult, rounds int) {
	for ; rounds > 0; rounds, r.round = rounds-1, r.round+1 {
		s := (r.round + 1) % 2
		t0 := time.Now()
		for _, w := range r.large {
			res, err := w.ses.MineContext(ctx, w.pos, r.states[s])
			switch {
			case err != nil:
			case r.round == 0:
				w.want[s] = res
			default:
				err = sameMining(res, w.want[s])
			}
			if err != nil {
				r.fail("session %s round %d: %v", w.name, r.round, err)
			} else {
				r.ok()
			}
		}
		if r.round > 0 {
			r.warmMs = append(r.warmMs, ms(time.Since(t0)))
		}
	}
	r.sessionSeeds, r.sessionReused, r.sessionDirty = 0, 0, 0
	for _, w := range r.large {
		st := w.ses.Stats()
		r.sessionSeeds += st.LastSeeds
		r.sessionReused += st.Reused()
		r.sessionDirty += st.LastDirty
	}
}

// sameMining reports how a session round differs from the reference run
// over the same data: best score, tie count, and the retained best patterns by
// canonical key.
func sameMining(got, want *tgminer.MineResult) error {
	if got.BestScore != want.BestScore || got.TieCount != want.TieCount || len(got.Best) != len(want.Best) {
		return fmt.Errorf("F*=%v ties=%d best=%d, the reference says F*=%v ties=%d best=%d",
			got.BestScore, got.TieCount, len(got.Best), want.BestScore, want.TieCount, len(want.Best))
	}
	for i := range got.Best {
		if g, w := got.Best[i].Pattern.Key(), want.Best[i].Pattern.Key(); g != w {
			return fmt.Errorf("best pattern %d is %s, the reference says %s", i, g, w)
		}
	}
	return nil
}
