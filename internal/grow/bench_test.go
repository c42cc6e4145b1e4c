package grow

import (
	"fmt"
	"sync"
	"testing"

	"tgminer/internal/sysgen"
	"tgminer/internal/tgraph"
)

// benchWorkload builds a sysgen-backed embedding workload: a seed pattern
// with a non-trivial embedding list over a positive set, plus one extension
// of it, so the Extensions, Extend and Children benchmarks exercise
// realistic fan-out.
func benchWorkload(b *testing.B) (graphs []*tgraph.Graph, p *tgraph.Pattern, l List, x Ext) {
	b.Helper()
	ds := sysgen.Generate(sysgen.Config{
		Scale:             0.5,
		GraphsPerBehavior: 8,
		BackgroundGraphs:  0,
		Seed:              7,
		Behaviors:         []string{"sshd-login"},
	})
	graphs = ds.Behaviors[0].Graphs
	seeds := Seeds(graphs, nil)
	// Pick the seed with the largest embedding list so the hot loops do real
	// work, then grow it twice to get a multi-node pattern mid-search.
	best := 0
	for i := range seeds {
		if len(seeds[i].Pos) > len(seeds[best].Pos) {
			best = i
		}
	}
	p, l = seeds[best].Pattern, seeds[best].Pos
	for hop := 0; hop < 2; hop++ {
		exts := Extensions(p, graphs, l)
		if len(exts) == 0 {
			break
		}
		picked := false
		for _, cand := range exts {
			if nl := Extend(cand, graphs, l); len(nl) > 0 {
				p, l, x = cand.Apply(p), nl, cand
				picked = true
				break
			}
		}
		if !picked {
			break
		}
	}
	exts := Extensions(p, graphs, l)
	if len(exts) == 0 {
		b.Fatal("bench workload has no extensions")
	}
	x = exts[0]
	return graphs, p, l, x
}

func BenchmarkExtensions(b *testing.B) {
	graphs, p, l, _ := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := Extensions(p, graphs, l); len(out) == 0 {
			b.Fatal("no extensions")
		}
	}
}

func BenchmarkExtend(b *testing.B) {
	graphs, _, l, x := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := Extend(x, graphs, l); len(out) == 0 {
			b.Fatal("no child embeddings")
		}
	}
}

func BenchmarkChildren(b *testing.B) {
	graphs, p, l, _ := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if exts, _ := Children(p, graphs, l); len(exts) == 0 {
			b.Fatal("no children")
		}
	}
}

func BenchmarkSeeds(b *testing.B) {
	graphs, _, _, _ := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := Seeds(graphs, nil); len(out) == 0 {
			b.Fatal("no seeds")
		}
	}
}

// BenchmarkNodeArenaChunk sweeps the embedding-arena chunk size over the
// Children workload, the miner's positive-side growth and the arena's main
// consumer. The winning size and the measured curve are committed on the
// nodeArenaChunk constant in grow.go; re-run the sweep when the embedding
// shape changes materially.
func BenchmarkNodeArenaChunk(b *testing.B) {
	graphs, p, l, _ := benchWorkload(b)
	for _, chunk := range []int{128, 256, 512, 1024, 2048} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			old := nodeArenaChunkSize
			nodeArenaChunkSize = chunk
			// Flush arenas sized under the previous setting.
			nodeArenaPool = sync.Pool{New: func() any { return new(nodeArena) }}
			defer func() {
				nodeArenaChunkSize = old
				nodeArenaPool = sync.Pool{New: func() any { return new(nodeArena) }}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if exts, _ := Children(p, graphs, l); len(exts) == 0 {
					b.Fatal("no children")
				}
			}
		})
	}
}
