package tgminer

import (
	"slices"
	"sync"
	"testing"
)

// sshdCorpus is the mine-corpus training corpus at seed 5, generated once
// and shared by the tests below.
var sshdCorpus = sync.OnceValue(func() *SyntheticDataset {
	return GenerateSynthetic(SyntheticConfig{Scale: 0.5, GraphsPerBehavior: 30, BackgroundGraphs: 600, Seed: 5})
})

// sshdWantTies is the complete number of maximum-score patterns for
// sshd-login of sshdCorpus at MaxEdges 6.
const sshdWantTies = 358

// bestKeys returns the canonical keys of res.Best, in its order.
func bestKeys(res *MineResult) []string {
	keys := make([]string, len(res.Best))
	for i, sp := range res.Best {
		keys[i] = sp.Pattern.Key()
	}
	return keys
}

// TestDefaultMinerCompleteAndDeterministic mines sshd-login of the
// mine-corpus training corpus (seed 5) with the default algorithm at 1, 2
// and 8 workers. The upper bound alone never cuts a branch that holds a
// tie, so every run must find all 358 maximum-score patterns, the same set
// each time. The registry variants return 356 here at one worker: subgraph
// pruning is not sound under the MaxEdges cap.
func TestDefaultMinerCompleteAndDeterministic(t *testing.T) {
	ds := sshdCorpus()
	pos := ds.ByName("sshd-login")
	var want []string
	for _, workers := range []int{1, 2, 8} {
		for run := 0; run < 3; run++ {
			res, err := Mine(pos, ds.Background, MineOptions{MaxEdges: 6, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.TieCount != sshdWantTies {
				t.Fatalf("%d workers, run %d: %d ties, want %d", workers, run, res.TieCount, sshdWantTies)
			}
			keys := bestKeys(res)
			if want == nil {
				want = keys
			} else if !slices.Equal(keys, want) {
				t.Fatalf("%d workers, run %d: best set differs from the first run's", workers, run)
			}
		}
	}
}

// TestDefaultMinerSessionIgnoresRegistry builds sessions with AlgoTGMiner,
// a registry variant, at 1, 2 and 8 workers. Sessions ignore the registry
// prunings, so every round, cold and warm, must return the default's
// complete tie set, not the 356 the registry variants find at one worker.
func TestDefaultMinerSessionIgnoresRegistry(t *testing.T) {
	ds := sshdCorpus()
	pos := ds.ByName("sshd-login")
	def, err := Mine(pos, ds.Background, MineOptions{MaxEdges: 6, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := bestKeys(def)
	for _, workers := range []int{1, 2, 8} {
		ses, err := NewMineSession(MineOptions{Algorithm: AlgoTGMiner, MaxEdges: 6, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			res, err := ses.Mine(pos, ds.Background)
			if err != nil {
				t.Fatal(err)
			}
			if res.TieCount != sshdWantTies {
				t.Fatalf("%d workers, round %d: %d ties, want %d", workers, round, res.TieCount, sshdWantTies)
			}
			if !slices.Equal(bestKeys(res), want) {
				t.Fatalf("%d workers, round %d: best set differs from the default's", workers, round)
			}
		}
	}
}
