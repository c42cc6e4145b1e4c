package miner

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"tgminer/internal/sysgen"
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

// TestSequentialResultPinned pins the one-worker answer of the default miner
// on three sysgen behaviours: every Stats counter, F*, the exact tie count
// and a SHA-256 digest of the sorted canonical keys of the best set, so any
// change to growth order, child lists or pruning shows up here. If a change
// is meant to alter the search, re-record them with -v (the test logs what
// it saw) and say why in the commit.
func TestSequentialResultPinned(t *testing.T) {
	ds := sysgen.Generate(sysgen.Config{
		Scale: 0.25, GraphsPerBehavior: 8, BackgroundGraphs: 40, Seed: 3,
		Behaviors: []string{"sshd-login", "apt-get-install", "ftp-download"},
	})
	want := map[string]struct {
		stats  Stats
		fstar  float64
		ties   int
		digest string
	}{
		"sshd-login": {
			Stats{PatternsExplored: 15447, UpperBoundPrunes: 7840, SubgraphTests: 1555, ResidualEqTests: 1632,
				SubgraphPrunes: 6, SupergraphPrunes: 3, RegistrySize: 15447, MaxEdgesSeen: 5},
			13.815510557964274, 312, "e210e0c7b8e75a8f2ae69b27bd31f3754f9cfc66b160f26e8bd8b20d7890b597",
		},
		"apt-get-install": {
			Stats{PatternsExplored: 31487, UpperBoundPrunes: 16356, SubgraphTests: 1988, ResidualEqTests: 2141,
				SubgraphPrunes: 6, SupergraphPrunes: 3, RegistrySize: 31487, MaxEdgesSeen: 5},
			13.815510557964274, 322, "43130bdefd6de2d910dcfcbacb199e036faa2c944e930147219ca7674ee2efe5",
		},
		"ftp-download": {
			Stats{PatternsExplored: 915, UpperBoundPrunes: 426, SubgraphTests: 271, ResidualEqTests: 294,
				SubgraphPrunes: 6, SupergraphPrunes: 3, RegistrySize: 915, MaxEdgesSeen: 5},
			13.815510557964274, 218, "cfd16b8417ec38d00fea4f1fe0b5d57aacbcffacb647e6b6bf19ba699a1300ca",
		},
	}
	for _, bd := range ds.Behaviors {
		opts := TGMinerOptions()
		opts.MaxEdges = 5
		opts.Parallelism = 1
		res, err := Mine(bd.Graphs, ds.Background, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(strings.Join(bestKeys(res), "\n")))
		digest := hex.EncodeToString(sum[:])
		t.Logf("%s: stats %s registry %d F* %v ties %d digest %s", bd.Spec.Name, res.Stats, res.Stats.RegistrySize, res.BestScore, res.TieCount, digest)
		w := want[bd.Spec.Name]
		if res.Stats != w.stats {
			t.Errorf("%s: stats %#v, want %#v", bd.Spec.Name, res.Stats, w.stats)
		}
		if res.BestScore != w.fstar || res.TieCount != w.ties {
			t.Errorf("%s: F* %v with %d ties, want %v with %d", bd.Spec.Name, res.BestScore, res.TieCount, w.fstar, w.ties)
		}
		if len(res.Best) != res.TieCount || digest != w.digest {
			t.Errorf("%s: %d best keys with digest %s, want %d with %s", bd.Spec.Name, len(res.Best), digest, w.ties, w.digest)
		}
	}
}
