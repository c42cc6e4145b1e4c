// Package experiments regenerates every table and figure of the TGMiner
// paper's evaluation (Section 6) on the synthetic corpus of
// internal/sysgen. Each driver returns typed rows and renders a paper-style
// text table; cmd/experiments runs them all, and experiments_test.go runs
// each one at a reduced scale.
//
// Absolute numbers differ from the paper (different hardware, synthetic
// data, scaled sizes); the drivers embed the paper's reported values where
// applicable so the shape comparison — who wins, by how much, where
// saturation happens — is visible in the output.
package experiments

import (
	"sync"

	"tgminer/internal/rank"
	"tgminer/internal/search"
	"tgminer/internal/sysgen"
	"tgminer/internal/tgraph"
)

// Scale sizes an experiment run. Quick() completes in CI time; Full()
// approaches the paper's data sizes (hours of compute).
type Scale struct {
	Name              string
	SizeFactor        float64
	GraphsPerBehavior int
	BackgroundGraphs  int
	TestInstances     int
	QuerySize         int
	TopK              int
	MaxPatternEdges   int
	Behaviors         []string
	Seed              int64
	// MatchLimit caps matches per query during evaluation.
	MatchLimit int
}

// Quick returns the default scaled-down configuration: every experiment
// finishes in seconds to low minutes.
func Quick() Scale {
	return Scale{
		Name:              "quick",
		SizeFactor:        0.25,
		GraphsPerBehavior: 10,
		BackgroundGraphs:  40,
		TestInstances:     60,
		QuerySize:         4,
		TopK:              5,
		MaxPatternEdges:   8,
		Seed:              1,
		MatchLimit:        200000,
	}
}

// Full returns a configuration approaching the paper's setup (100 graphs
// per behavior, 10,000 background graphs, 10,000 test instances). Running
// all experiments at this scale takes hours.
func Full() Scale {
	return Scale{
		Name:              "full",
		SizeFactor:        1.0,
		GraphsPerBehavior: 100,
		BackgroundGraphs:  10000,
		TestInstances:     10000,
		QuerySize:         6,
		TopK:              5,
		MaxPatternEdges:   45,
		Seed:              1,
		MatchLimit:        1000000,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Env is a generated corpus plus lazily built test machinery shared by the
// experiment drivers.
type Env struct {
	Scale Scale
	Data  *sysgen.Dataset

	timelineOnce sync.Once
	timeline     *sysgen.Timeline
	engine       *search.Engine

	interestOnce sync.Once
	interest     *rank.Interest
}

// NewEnv generates the training corpus for the scale.
func NewEnv(s Scale) *Env {
	ds := sysgen.Generate(sysgen.Config{
		Scale:             s.SizeFactor,
		GraphsPerBehavior: s.GraphsPerBehavior,
		BackgroundGraphs:  s.BackgroundGraphs,
		Seed:              s.Seed,
		Behaviors:         s.Behaviors,
	})
	return &Env{Scale: s, Data: ds}
}

// Timeline lazily generates the test timeline and its search engine.
func (e *Env) Timeline() (*sysgen.Timeline, *search.Engine) {
	e.timelineOnce.Do(func() {
		e.timeline = sysgen.GenerateTimeline(sysgen.TimelineConfig{
			Instances: e.Scale.TestInstances,
			Scale:     e.Scale.SizeFactor,
			Seed:      e.Scale.Seed + 1000,
			Behaviors: e.Scale.Behaviors,
		}, e.Data.Dict)
		e.engine = search.NewEngine(e.timeline.Graph)
	})
	return e.timeline, e.engine
}

// Interest lazily builds the Appendix M ranking function over all training
// graphs (behaviors plus background).
func (e *Env) Interest() *rank.Interest {
	e.interestOnce.Do(func() {
		var all []*tgraph.Graph
		for _, b := range e.Data.Behaviors {
			all = append(all, b.Graphs...)
		}
		all = append(all, e.Data.Background...)
		e.interest = rank.NewInterest(all, e.Data.Dict, nil)
	})
	return e.interest
}

// TruthIntervals extracts the ground-truth intervals of one behavior.
func TruthIntervals(tl *sysgen.Timeline, behavior string) []search.Interval {
	var out []search.Interval
	for _, inst := range tl.Truth {
		if inst.Behavior == behavior {
			out = append(out, search.Interval{Start: inst.Start, End: inst.End})
		}
	}
	return out
}

// BehaviorNames lists the behaviors present in the environment.
func (e *Env) BehaviorNames() []string {
	out := make([]string, len(e.Data.Behaviors))
	for i, b := range e.Data.Behaviors {
		out[i] = b.Spec.Name
	}
	return out
}
