package miner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"tgminer/internal/sysgen"
	"tgminer/internal/tgraph"
)

// TestPruningExactOnSyntheticData re-validates Theorem 2 on generator data:
// unlike the random fixtures in miner_test.go, these graphs contain the
// fixed session epilogue that makes subgraph/supergraph pruning actually
// trigger, so the exactness check exercises the pruned paths.
func TestPruningExactOnSyntheticData(t *testing.T) {
	ds := sysgen.Generate(sysgen.Config{
		Scale: 0.25, GraphsPerBehavior: 6, BackgroundGraphs: 10, Seed: 77,
		Behaviors: []string{"gzip-decompress", "ftp-download"},
	})
	for _, bd := range ds.Behaviors {
		var refScore float64
		var refKeys []string
		var refTies int
		first := true
		var triggered bool
		for name, opts := range allConfigs() {
			opts.MaxEdges = 4
			res, err := Mine(bd.Graphs, ds.Background, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", bd.Spec.Name, name, err)
			}
			if res.Stats.SubgraphPrunes > 0 || res.Stats.SupergraphPrunes > 0 {
				triggered = true
			}
			keys := bestKeys(res)
			if first {
				refScore, refKeys, refTies = res.BestScore, keys, res.TieCount
				first = false
				continue
			}
			if res.BestScore != refScore {
				t.Errorf("%s/%s: best score %v != ref %v", bd.Spec.Name, name, res.BestScore, refScore)
			}
			if res.TieCount != refTies {
				t.Errorf("%s/%s: ties %d != ref %d", bd.Spec.Name, name, res.TieCount, refTies)
			}
			if len(keys) != len(refKeys) {
				t.Errorf("%s/%s: %d best patterns != ref %d", bd.Spec.Name, name, len(keys), len(refKeys))
				continue
			}
			for i := range keys {
				if keys[i] != refKeys[i] {
					t.Errorf("%s/%s: best-pattern set differs from ref", bd.Spec.Name, name)
					break
				}
			}
		}
		if !triggered {
			t.Logf("%s: no pruning triggered (allowed but reduces test value)", bd.Spec.Name)
		}
	}
}

// TestEpiloguePruningTriggers asserts the generator's session epilogue
// produces actual subgraph-pruning opportunities (Table 3's subject).
func TestEpiloguePruningTriggers(t *testing.T) {
	ds := sysgen.Generate(sysgen.Config{
		Scale: 0.25, GraphsPerBehavior: 8, BackgroundGraphs: 12, Seed: 5,
		Behaviors: []string{"bzip2-decompress"},
	})
	opts := TGMinerOptions()
	opts.MaxEdges = 5
	res, err := Mine(ds.Behaviors[0].Graphs, ds.Background, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubgraphPrunes == 0 {
		t.Errorf("subgraph pruning never triggered on epilogue-bearing data: %s", res.Stats)
	}
	if res.Stats.SubgraphPrunes < res.Stats.SupergraphPrunes {
		t.Errorf("expected subgraph pruning to dominate: %s", res.Stats)
	}
}

// TestLazyNegativeResiduals ensures SubPrune (no supergraph pruning) never
// pays for negative residual sets: its stats must match TGMiner's on
// subgraph counters while doing no supergraph work.
func TestLazyNegativeResiduals(t *testing.T) {
	ds := sysgen.Generate(sysgen.Config{
		Scale: 0.2, GraphsPerBehavior: 5, BackgroundGraphs: 8, Seed: 9,
		Behaviors: []string{"gzip-decompress"},
	})
	opts := SubPruneOptions()
	opts.MaxEdges = 4
	res, err := Mine(ds.Behaviors[0].Graphs, ds.Background, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SupergraphPrunes != 0 {
		t.Errorf("SubPrune config triggered supergraph pruning: %s", res.Stats)
	}
}

// TestSequentialResultPinned pins the one-worker answer of three searches
// on three sysgen behaviours: the default miner (TGMinerOptions), the
// upper-bound-only miner (ExhaustiveOptions) and the K=20 top-K shortlist.
// For the two maximum searches it pins every Stats counter, F*, the exact
// tie count and a SHA-256 digest of the sorted canonical keys of the best
// set; for the shortlist, Stats, the K-th score, the length and a digest of
// the ranked key and score lines. Any change to growth order, child lists,
// pruning or the threshold sinks shows up here. If a change is meant to
// alter the search, re-record them with -v (the test logs what it saw) and
// say why in the commit.
func TestSequentialResultPinned(t *testing.T) {
	ds := sysgen.Generate(sysgen.Config{
		Scale: 0.25, GraphsPerBehavior: 8, BackgroundGraphs: 40, Seed: 3,
		Behaviors: []string{"sshd-login", "apt-get-install", "ftp-download"},
	})
	want := map[string]pinnedRun{
		"sshd-login/tgminer": {
			Stats{PatternsExplored: 15447, UpperBoundPrunes: 7840, SubgraphTests: 1555, ResidualEqTests: 1632,
				SubgraphPrunes: 6, SupergraphPrunes: 3, RegistrySize: 15447, MaxEdgesSeen: 5},
			13.815510557964274, 312, "e210e0c7b8e75a8f2ae69b27bd31f3754f9cfc66b160f26e8bd8b20d7890b597",
		},
		"apt-get-install/tgminer": {
			Stats{PatternsExplored: 31487, UpperBoundPrunes: 16356, SubgraphTests: 1988, ResidualEqTests: 2141,
				SubgraphPrunes: 6, SupergraphPrunes: 3, RegistrySize: 31487, MaxEdgesSeen: 5},
			13.815510557964274, 322, "43130bdefd6de2d910dcfcbacb199e036faa2c944e930147219ca7674ee2efe5",
		},
		"ftp-download/tgminer": {
			Stats{PatternsExplored: 915, UpperBoundPrunes: 426, SubgraphTests: 271, ResidualEqTests: 294,
				SubgraphPrunes: 6, SupergraphPrunes: 3, RegistrySize: 915, MaxEdgesSeen: 5},
			13.815510557964274, 218, "cfd16b8417ec38d00fea4f1fe0b5d57aacbcffacb647e6b6bf19ba699a1300ca",
		},
		"sshd-login/exhaustive": {
			Stats{PatternsExplored: 15456, UpperBoundPrunes: 7840, MaxEdgesSeen: 5},
			13.815510557964274, 312, "e210e0c7b8e75a8f2ae69b27bd31f3754f9cfc66b160f26e8bd8b20d7890b597",
		},
		"apt-get-install/exhaustive": {
			Stats{PatternsExplored: 31496, UpperBoundPrunes: 16356, MaxEdgesSeen: 5},
			13.815510557964274, 322, "43130bdefd6de2d910dcfcbacb199e036faa2c944e930147219ca7674ee2efe5",
		},
		"ftp-download/exhaustive": {
			Stats{PatternsExplored: 924, UpperBoundPrunes: 426, MaxEdgesSeen: 5},
			13.815510557964274, 218, "cfd16b8417ec38d00fea4f1fe0b5d57aacbcffacb647e6b6bf19ba699a1300ca",
		},
		"sshd-login/topk20": {
			Stats{PatternsExplored: 18492, UpperBoundPrunes: 8178, MaxEdgesSeen: 5},
			13.815510557964274, 20, "2814ba8d003c7bed09c21babf14a373856a49ef6687e3c56cd01223b336c72dd",
		},
		"apt-get-install/topk20": {
			Stats{PatternsExplored: 105100, UpperBoundPrunes: 18907, MaxEdgesSeen: 5},
			13.815510557964274, 20, "7d2e4de15cfe2315e06a6e3ef98fd72fab55f37920744b43aad6b185d9fda56c",
		},
		"ftp-download/topk20": {
			Stats{PatternsExplored: 1091, UpperBoundPrunes: 385, MaxEdgesSeen: 5},
			13.815510557964274, 20, "c2208446d41ef76e7a244a203263d79d164d11c402cf4283032d530282e86199",
		},
	}
	for _, bd := range ds.Behaviors {
		for _, search := range []string{"tgminer", "exhaustive", "topk20"} {
			name := bd.Spec.Name + "/" + search
			got := minePinned(t, search, bd.Graphs, ds.Background)
			t.Logf("%s: stats %s registry %d score %v n %d digest %s", name, got.stats, got.stats.RegistrySize, got.score, got.n, got.digest)
			w := want[name]
			if got.stats != w.stats {
				t.Errorf("%s: stats %#v, want %#v", name, got.stats, w.stats)
			}
			if got.score != w.score || got.n != w.n {
				t.Errorf("%s: score %v over %d patterns, want %v over %d", name, got.score, got.n, w.score, w.n)
			}
			if got.digest != w.digest {
				t.Errorf("%s: digest %s, want %s", name, got.digest, w.digest)
			}
		}
	}
}

// pinnedRun is what TestSequentialResultPinned pins for one search: score is
// F* (or the K-th score of a shortlist) and n the tie count (or the
// shortlist length).
type pinnedRun struct {
	stats  Stats
	score  float64
	n      int
	digest string
}

// minePinned runs one of TestSequentialResultPinned's searches at one worker
// with MaxEdges 5.
func minePinned(t *testing.T, search string, pos, neg []*tgraph.Graph) pinnedRun {
	t.Helper()
	opts := ExhaustiveOptions()
	if search == "tgminer" {
		opts = TGMinerOptions()
	}
	opts.MaxEdges = 5
	opts.Parallelism = 1
	if search == "topk20" {
		res, err := MineTopK(pos, neg, 20, opts)
		if err != nil {
			t.Fatal(err)
		}
		lines := make([]string, len(res.Patterns))
		for i, sp := range res.Patterns {
			lines[i] = fmt.Sprintf("%s %v", sp.Pattern.Key(), sp.Score)
		}
		return pinnedRun{res.Stats, res.Threshold, len(res.Patterns), digestLines(lines)}
	}
	res, err := Mine(pos, neg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Best) != res.TieCount {
		t.Errorf("%s: %d best patterns kept of %d ties", search, len(res.Best), res.TieCount)
	}
	return pinnedRun{res.Stats, res.BestScore, res.TieCount, digestLines(bestKeys(res))}
}

// digestLines is the hex SHA-256 of the newline-joined lines.
func digestLines(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}
