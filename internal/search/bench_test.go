package search

import (
	"fmt"
	"sync"
	"testing"

	"tgminer/internal/tgraph"
)

// BenchmarkShardedAppend measures aggregate multi-writer append throughput
// at several shard counts: K = shards concurrent writers, each appending
// edges whose source node hashes to its own shard (the intended
// multi-producer deployment: one producer per entity partition), with a
// sliding eviction window so memory stays bounded. ns/op is wall time per
// appended edge ACROSS all writers, so on a K-core host K shards should
// approach a K-fold improvement over shards=1 (every writer serializes on
// the same mutex there); on a single core the sweep is flat and only
// measures sharding overhead (the PR 5 record is in the README's "Benchmark
// history" table). On realistic event streams the append cost is what
// tgbench's search.sharded_append_ns_per_ev and search.append_writers_speedup
// measure; the acceptance target (>=4x aggregate at 8 shards) is a
// multi-core number.
func BenchmarkShardedAppend(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			l := NewSharded(LiveOptions{Shards: shards})
			srcs, dst := shardedWriterNodes(b, l, shards)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < shards; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					src := srcs[w]
					// Writer w owns timestamps congruent to w mod shards:
					// strictly increasing per shard, globally unique.
					for i := w; i < b.N; i += shards {
						if err := l.Append(src, dst, int64(i)+1); err != nil {
							b.Error(err)
							return
						}
						if w == 0 && i%8192 == 0 {
							l.EvictBefore(int64(i) - 65536)
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkLiveCompact measures the cost of one live compaction at several
// base:tail ratios, comparing the incremental tail-merge (merge.go, the
// default path) against the full rebuild it replaced (still the reclaiming
// fallback). Each iteration appends one tail of fresh edges untimed and
// then times folding it into the base, so the base grows by the tail size
// every iteration in both modes: a merge whose per-compaction cost stays
// flat while the base grows demonstrates O(tail + touched lists)
// compaction, while the rebuild's cost tracks O(base+tail). The PR 4 record
// is in the README's "Benchmark history" table; tgbench's search.compact_ms
// measures the merge on a replayed timeline.
func BenchmarkLiveCompact(b *testing.B) {
	const tailN = 1024
	const numNodes = 64
	for _, mult := range []int{4, 16, 64} {
		for _, mode := range []string{"merge", "rebuild"} {
			b.Run(fmt.Sprintf("%s/base=%dxtail", mode, mult), func(b *testing.B) {
				l := NewLive(LiveOptions{CompactEvery: -1})
				nodes := make([]tgraph.NodeID, numNodes)
				for i := range nodes {
					nodes[i] = l.AddNode(tgraph.Label(i % 8))
				}
				tm := int64(0)
				appendEdges := func(n int) {
					for i := 0; i < n; i++ {
						tm++
						src := nodes[int(tm)%numNodes]
						dst := nodes[(int(tm)*7+1)%numNodes]
						if err := l.Append(src, dst, tm); err != nil {
							b.Fatal(err)
						}
					}
				}
				appendEdges(tailN * mult)
				l.Compact() // establish a flat CSR base at the target ratio
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					appendEdges(tailN)
					b.StartTimer()
					// Single-goroutine bench: drive the two compaction
					// strategies directly, bypassing the writer mutex.
					v := l.snap()
					if mode == "merge" {
						l.cur.Store(mergeGen(v))
					} else {
						l.cur.Store(rebuildGen(v))
					}
				}
			})
		}
	}
}

// BenchmarkLiveStats pins the O(1) Stats read path against the O(nodes +
// pairs) retained-bytes walk it replaced, over a node-count sweep. The
// "stats" series must stay flat from 1e3 to 1e6 nodes (an atomic counter
// load plus a snapshot capture, independent of engine size), while the
// "walk" series — the recomputation the differential tests still run, and
// what every Stats call used to cost — grows linearly. This is what makes
// per-batch exact admission control in tgminerd affordable (the PR 10 record
// is in the README's "Benchmark history" table).
func BenchmarkLiveStats(b *testing.B) {
	for _, n := range []int{1e3, 1e4, 1e5, 1e6} {
		l := NewLive(LiveOptions{CompactEvery: -1})
		nodes := make([]tgraph.NodeID, n)
		for i := range nodes {
			nodes[i] = l.AddNode(tgraph.Label(i % 4))
		}
		for i := 0; i < n; i++ {
			if err := l.Append(nodes[i], nodes[(i+1)%n], int64(i)+1); err != nil {
				b.Fatal(err)
			}
		}
		l.Compact()
		b.Run(fmt.Sprintf("stats/nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if st := l.Stats(); st.Nodes != n {
					b.Fatal("wrong node count")
				}
			}
		})
		b.Run(fmt.Sprintf("walk/nodes=%d", n), func(b *testing.B) {
			v := l.snap()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v.retainedBytes() <= 0 {
					b.Fatal("empty walk")
				}
			}
		})
	}
}

// BenchmarkConstrainedTemporal measures what the compiled guards buy over
// match-then-filter. The host is a set of hubs: one proc->file anchor edge,
// then a wide fan of file->sock continuations spread over time, of which a
// MaxGap guard admits only the first few. "guard" pushes the bound into the
// candidate scan (upper-bound early exit per hub); "postfilter" runs the
// unconstrained matcher and drops wide spans afterwards — the semantics are
// identical for this two-hop pattern (span == gap), which the benchmark
// asserts once outside the timed loop. The PR 8 record is in the README's
// "Benchmark history" table; tgbench's search.*_find_us.constrained measure
// guarded queries on every host.
func BenchmarkConstrainedTemporal(b *testing.B) {
	const hubs = 64
	const fanout = 256
	const gap = 8
	var bld tgraph.Builder
	tm := int64(0)
	for h := 0; h < hubs; h++ {
		a := bld.AddNode(0)
		hub := bld.AddNode(1)
		tm++
		if err := bld.AddEdge(a, hub, tm); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < fanout; i++ {
			c := bld.AddNode(2)
			tm++
			if err := bld.AddEdge(hub, c, tm); err != nil {
				b.Fatal(err)
			}
		}
	}
	g, err := bld.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(g)
	p, err := tgraph.NewPattern([]tgraph.Label{0, 1, 2}, []tgraph.PEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if err != nil {
		b.Fatal(err)
	}
	cons := &Constraints{Hops: []HopConstraint{{}, {MaxGap: gap}}}
	postFilter := func(res Result) []Match {
		out := res.Matches[:0:0]
		for _, m := range res.Matches {
			if m.End-m.Start <= gap {
				out = append(out, m)
			}
		}
		return out
	}
	guarded := eng.FindTemporal(p, Options{Constraints: cons})
	filtered := postFilter(eng.FindTemporal(p, Options{}))
	if len(guarded.Matches) != hubs*gap || len(filtered) != len(guarded.Matches) {
		b.Fatalf("guard/postfilter disagree: %d vs %d matches (want %d)",
			len(guarded.Matches), len(filtered), hubs*gap)
	}
	for i := range filtered {
		if filtered[i] != guarded.Matches[i] {
			b.Fatalf("match %d: guard %v != postfilter %v", i, guarded.Matches[i], filtered[i])
		}
	}

	b.Run("guard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := eng.FindTemporal(p, Options{Constraints: cons}); len(res.Matches) != hubs*gap {
				b.Fatal("wrong match count")
			}
		}
	})
	b.Run("postfilter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := postFilter(eng.FindTemporal(p, Options{})); len(out) != hubs*gap {
				b.Fatal("wrong match count")
			}
		}
	})
}
