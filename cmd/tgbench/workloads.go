package main

import (
	"fmt"
	"time"

	"tgminer/internal/sysgen"
)

// sizes fixes one workload's inputs and how the measured seconds divide
// between the stages. Every run drives every stage — mine the corpus,
// replay the timeline into a server, replay the mined queries against it,
// serve reads beside writes — because BENCHMARK.json makes every workload
// report every metric, and because a gain on one path that another path pays
// for must show in the same run. The workload decides the input shapes.
type sizes struct {
	// Corpus is the training set the mine stage works on (its Seed comes
	// from the run).
	Corpus sysgen.Config
	// TimelineInstances sizes the test timeline the ingest stage replays
	// and the query stage reads. A replay is fixed work, not time-boxed: the
	// query stage needs the whole timeline loaded to compare answers with
	// the static reference, and a time box would couple the query numbers
	// to ingest speed. It is replayed IngestReplays times, each into a
	// fresh server, and each loaded server answers QuerySlices slices of
	// uncached and of cached queries before the next replay replaces it.
	TimelineInstances, IngestReplays, QuerySlices int

	// Cycles is how many slices the mining and the mixed stage are measured
	// in. A run goes round them Cycles times — cold passes, warm rounds, a
	// stretch of the mixed stream — and reports the median of each metric
	// over its slices, so that a burst of interference from the shared host,
	// which lasts a second or two, spoils one slice of every stage and not
	// the whole of one. The replays and the query slices alternate the same
	// way.
	Cycles int
	// Shares of -seconds given to the time-boxed stages, over all cycles.
	MineShare, QueryShare, CachedShare, MixedShare float64
	// WarmRounds is the number of warm session rounds, over all cycles.
	WarmRounds int

	// The mixed stage's stream runs at ContactRate events/s after an untimed
	// ContactPreload-event fill, on a server that evicts at HardBytes
	// retained bytes per shard.
	ContactRate, ContactPreload, HardBytes int

	// Caps on what the traced pass replays against each layer.
	ProbeEvents, ProbeQueries int
}

// What every workload at every scale shares.
const (
	// timelineScale is the sysgen scale of the test timeline: about 3,500
	// distinct labels. At 0.25 the count lands within a few dozen of 4,096,
	// where search.NewEngine switches from its dense to its sparse pair
	// table, and the switch flips with the seed.
	timelineScale = 0.2
	ingestBatch   = 256 // events per /v1/events body of the timeline replay

	// The contact-style stream of the mixed stage: uniformly random pairs
	// over contactEntities entities sharing contactLabels labels, in
	// contactBatch-event bodies.
	contactBatch    = 200
	contactEntities = 5000
	contactLabels   = 48
	// The mixed stage's queries look back mixedWindow ticks and stop at
	// mixedLimit matches. Its client waits mixedThink between a reply and
	// its next request: a monitoring client polls, and a client that never
	// pauses keeps one of two CPUs busy by itself, which makes every tail in
	// the stage a measure of scheduler luck (p95 spread across runs 18%
	// without the pause, 7% with it).
	mixedWindow = 4000
	mixedLimit  = 1000
	mixedThink  = 2 * time.Millisecond
)

type workload struct {
	Name string
	Why  string
	Full sizes
}

func fullSizes(corpus sysgen.Config, instances int) sizes {
	return sizes{
		Corpus: corpus, TimelineInstances: instances, IngestReplays: 3, QuerySlices: 2,
		Cycles:    5,
		MineShare: 0.22, MixedShare: 0.23, QueryShare: 0.16, CachedShare: 0.08,
		WarmRounds:  20,
		ContactRate: 20000, ContactPreload: 20000, HardBytes: 768 << 10,
		ProbeEvents: 8192, ProbeQueries: 64,
	}
}

// workloads are the named input sets, in BENCHMARK.json order. Two is what
// the driver's hour for all runs together allows: on the shared host a
// stage measured in one piece for a few seconds spreads 12-29% between
// runs, two workloads leave each run 45 seconds, and that is enough to
// measure every stage in five or six slices. The read-heavy and the mixed
// traffic are stages of both workloads, over a small graph in one and a
// large one in the other.
var workloads = []workload{
	{
		Name: "mine-corpus",
		Why:  "large training corpus, short timeline: miner/grow/residual/seqcode/score carry the run; ingest and queries see a 36k-event graph, the mixed stream at most 2,304 label pairs",
		Full: fullSizes(sysgen.Config{Scale: 0.5, GraphsPerBehavior: 30, BackgroundGraphs: 600}, 300),
	},
	{
		Name: "ingest-replay",
		Why:  "small corpus, long timeline with a new entity per event and thousands of label pairs: per-new-pair Append and compaction costs carry the run and queries scan a 72k-event graph",
		Full: fullSizes(sysgen.Config{Scale: 0.25, GraphsPerBehavior: 20, BackgroundGraphs: 300}, 600),
	},
}

// smokeSizes shrinks a workload to test size: a run takes about a second
// and keeps the workload's structure.
func smokeSizes(full sizes) sizes {
	s := full
	s.Corpus = sysgen.Config{Scale: 0.1, GraphsPerBehavior: 4, BackgroundGraphs: 12}
	s.TimelineInstances, s.IngestReplays, s.QuerySlices = 12, 2, 1
	s.Cycles, s.WarmRounds = 2, 2
	s.ContactRate, s.ContactPreload = 4000, 1000
	s.HardBytes = 256 << 10
	s.ProbeEvents, s.ProbeQueries = 512, 12
	return s
}

func sizesFor(name, scale string) (sizes, error) {
	for _, w := range workloads {
		if w.Name != name {
			continue
		}
		switch scale {
		case "full":
			return w.Full, nil
		case "smoke":
			return smokeSizes(w.Full), nil
		}
		return sizes{}, fmt.Errorf("unknown -scale %q (full or smoke)", scale)
	}
	return sizes{}, fmt.Errorf("unknown -workload %q", name)
}
