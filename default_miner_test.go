package tgminer

import (
	"slices"
	"testing"
)

// TestDefaultMinerCompleteAndDeterministic mines sshd-login of the
// mine-corpus training corpus (seed 5) with the default algorithm at 1, 2
// and 8 workers. The upper bound alone never cuts a branch that holds a
// tie, so every run must find all 358 maximum-score patterns, the same set
// each time. The registry variants return 356 here at one worker: subgraph
// pruning is not sound under the MaxEdges cap.
func TestDefaultMinerCompleteAndDeterministic(t *testing.T) {
	ds := GenerateSynthetic(SyntheticConfig{Scale: 0.5, GraphsPerBehavior: 30, BackgroundGraphs: 600, Seed: 5})
	pos := ds.ByName("sshd-login")
	const wantTies = 358
	var want []string
	for _, workers := range []int{1, 2, 8} {
		for run := 0; run < 3; run++ {
			res, err := Mine(pos, ds.Background, MineOptions{MaxEdges: 6, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.TieCount != wantTies {
				t.Fatalf("%d workers, run %d: %d ties, want %d", workers, run, res.TieCount, wantTies)
			}
			keys := make([]string, len(res.Best))
			for i, sp := range res.Best {
				keys[i] = sp.Pattern.Key()
			}
			if want == nil {
				want = keys
			} else if !slices.Equal(keys, want) {
				t.Fatalf("%d workers, run %d: best set differs from the first run's", workers, run)
			}
		}
	}
}
