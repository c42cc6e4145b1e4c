package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"tgminer"
	"tgminer/internal/search"
	"tgminer/internal/serve"
	"tgminer/internal/sysgen"
	"tgminer/internal/tgraph"
)

// config is one run's parameters. Shards, Workers and Clients are always
// explicit: the engines' "0 = GOMAXPROCS" defaults are never used, so two
// hosts that pass the same config measure the same program.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Scale    string
	Shards   int // LiveOptions.Shards of every served engine
	Workers  int // mining Parallelism
	Clients  int // closed-loop query clients of the query stage
	OutDir   string
}

// scenario is everything a run generates from its seed before measuring:
// the training corpus, the test timeline with its static reference engine,
// and both event streams already encoded as request bodies. The engines
// under test see only these inputs.
type scenario struct {
	cfg config
	sz  sizes

	ds       *sysgen.Dataset
	interest *tgminer.Interest
	tl       *sysgen.Timeline
	ref      *search.Engine // static reference over tl.Graph

	events  []serve.Event // the timeline as wire events, in time order
	batches [][]byte      // the same as /v1/events bodies

	contact        []serve.Event // the mixed stage's stream
	contactBatches [][]byte
}

// setUp generates the scenario. It is deterministic in (cfg.Seed, cfg.Seconds,
// cfg.Trace, sz): the corpus, the timeline and the contact stream draw from three
// generators seeded from cfg.Seed.
func setUp(cfg config, sz sizes) (*scenario, error) {
	sc := &scenario{cfg: cfg, sz: sz}

	corpus := sz.Corpus
	corpus.Seed = cfg.Seed
	sc.ds = sysgen.Generate(corpus)
	var all []*tgminer.Graph
	for _, b := range sc.ds.Behaviors {
		all = append(all, b.Graphs...)
	}
	all = append(all, sc.ds.Background...)
	sc.interest = tgminer.NewInterest(all, sc.ds.Dict, nil)

	sc.tl = sysgen.GenerateTimeline(sysgen.TimelineConfig{
		Instances: sz.TimelineInstances, Scale: timelineScale, Seed: cfg.Seed + 1,
	}, sc.ds.Dict)
	sc.ref = search.NewEngine(sc.tl.Graph)

	// The timeline in the paper's shape: every node is its own entity and
	// carries its label, so nearly every event introduces a new entity.
	g := sc.tl.Graph
	names := make([]string, g.NumNodes())
	for v := range names {
		names[v] = "n" + strconv.Itoa(v)
	}
	sc.events = make([]serve.Event, g.NumEdges())
	for i, e := range g.Edges() {
		sc.events[i] = serve.Event{
			Time: e.Time, Src: names[e.Src], Dst: names[e.Dst],
			SrcLabel: sc.ds.Dict.Name(g.LabelOf(e.Src)), DstLabel: sc.ds.Dict.Name(g.LabelOf(e.Dst)),
		}
	}
	var err error
	if sc.batches, err = encodeBatches(sc.events, ingestBatch); err != nil {
		return nil, err
	}

	// The contact stream: uniformly random pairs over a small entity set
	// with few labels — at most ContactLabels² label pairs however long it
	// runs, the opposite of the timeline.
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	n := sz.ContactPreload + sz.Cycles*cfg.sliceBatches(sz)*contactBatch
	entity := func(i int) (name, label string) {
		return "e" + strconv.Itoa(i), "L" + strconv.Itoa(i%contactLabels)
	}
	sc.contact = make([]serve.Event, n)
	for k := range sc.contact {
		s := rng.Intn(contactEntities)
		d := rng.Intn(contactEntities - 1)
		if d >= s {
			d++
		}
		ev := serve.Event{Time: int64(k) + 1}
		ev.Src, ev.SrcLabel = entity(s)
		ev.Dst, ev.DstLabel = entity(d)
		sc.contact[k] = ev
	}
	if sc.contactBatches, err = encodeBatches(sc.contact, contactBatch); err != nil {
		return nil, err
	}
	return sc, nil
}

// sliceBatches is how many contact batches one slice of the mixed stage
// streams: the slice's whole seconds at the stream's rate, or what fits a
// slice shorter than a second, at least one.
func (c config) sliceBatches(sz sizes) int {
	perSecond := sz.ContactRate / contactBatch
	slice := c.boxed(sz.MixedShare, sz.Cycles).Seconds()
	if slice >= 1 {
		return int(slice) * perSecond
	}
	return max(int(slice*float64(perSecond)), 1)
}

func encodeBatches(events []serve.Event, batch int) ([][]byte, error) {
	var out [][]byte
	for i := 0; i < len(events); i += batch {
		b, err := json.Marshal(serve.IngestRequest{Events: events[i:min(i+batch, len(events))]})
		if err != nil {
			return nil, fmt.Errorf("encode events batch: %w", err)
		}
		out = append(out, b)
	}
	return out, nil
}

// setUpTimed runs setUp reps times and returns the last scenario with every
// repetition's wall time: setup_s is their median, so one slow allocation
// burst does not decide it.
func setUpTimed(cfg config, sz sizes, reps int) (*scenario, []float64, error) {
	var sc *scenario
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s, err := setUp(cfg, sz)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		sc = s
	}
	return sc, secs, nil
}

// staticEngine builds the reference engine over a set of wire events: the
// simplest implementation every served answer is compared with.
func staticEngine(events []serve.Event, dict *tgraph.Dict) (*search.Engine, error) {
	gb := tgminer.NewGraphBuilder(dict)
	for _, ev := range events {
		gb.NodeWithLabel(ev.Src, ev.SrcLabel)
		gb.NodeWithLabel(ev.Dst, ev.DstLabel)
		if err := gb.AddEvent(ev.Src, ev.Dst, ev.Time); err != nil {
			return nil, err
		}
	}
	g, err := gb.Finalize()
	if err != nil {
		return nil, err
	}
	return search.NewEngine(g), nil
}
