package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tgminer/internal/search"
	"tgminer/internal/tgraph"
)

// ShardedIngestResult measures the sharded live engine's multi-writer
// append scaling: aggregate ingest throughput at each shard count, with
// one writer goroutine per shard appending events whose source entities
// hash to that shard (the intended deployment: one producer per entity
// partition, e.g. per monitored host). Not a paper exhibit — the paper's
// engine was offline — but tgbench's multi-writer probe, which reports
// search.append_writers_speedup from Rate.
type ShardedIngestResult struct {
	Shards          []int
	EventsPerWriter int
	// Seconds, Rate (aggregate appends/sec), and LiveEdges are parallel to
	// Shards; each run ingests shards*EventsPerWriter events total.
	Seconds   []float64
	Rate      []float64
	LiveEdges []int
	Matches   []int
}

// shardedIngestSources picks one source node per shard by probing
// tgraph.NodeShard, mirroring how a deployment assigns producers to
// partitions.
func shardedIngestSources(l *search.ShardedLive, shards int) ([]tgraph.NodeID, tgraph.NodeID, error) {
	srcs := make([]tgraph.NodeID, shards)
	owned := make([]bool, shards)
	found := 0
	for guard := 0; found < shards; guard++ {
		if guard > 4096 {
			return nil, 0, fmt.Errorf("sharded: no source found for every shard after %d probes", guard)
		}
		v := l.AddNode(0)
		if s := tgraph.NodeShard(v, shards); !owned[s] {
			owned[s] = true
			srcs[s] = v
			found++
		}
	}
	return srcs, l.AddNode(1), nil
}

// ShardedIngest sweeps the shard count (default 1, 2, 4, 8), timing
// shards*eventsPerWriter concurrent appends at each level and sanity
// checking the ingested edge set with a temporal query. Results are
// identical at every shard count (the differential property tests pin
// that); only aggregate throughput moves, bounded by available cores.
func ShardedIngest(ctx context.Context, shardCounts []int, eventsPerWriter int) (*ShardedIngestResult, error) {
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	if eventsPerWriter <= 0 {
		eventsPerWriter = 50000
	}
	out := &ShardedIngestResult{
		Shards:          shardCounts,
		EventsPerWriter: eventsPerWriter,
	}
	p, err := tgraph.NewPattern([]tgraph.Label{0, 1}, []tgraph.PEdge{{Src: 0, Dst: 1}})
	if err != nil {
		return nil, err
	}
	for _, shards := range shardCounts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if shards <= 0 {
			return nil, fmt.Errorf("sharded: invalid shard count %d", shards)
		}
		l := search.NewSharded(search.LiveOptions{Shards: shards})
		srcs, dst, err := shardedIngestSources(l, shards)
		if err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		errs := make(chan error, shards)
		start := time.Now()
		for w := 0; w < shards; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				src := srcs[w]
				// Writer w owns timestamps congruent to w mod shards:
				// strictly increasing per shard, globally unique.
				for i := 0; i < eventsPerWriter; i++ {
					if err := l.Append(src, dst, int64(w)+1+int64(i)*int64(shards)); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errs)
		if err := <-errs; err != nil {
			return nil, fmt.Errorf("sharded x%d: %w", shards, err)
		}
		total := shards * eventsPerWriter
		res, err := l.FindTemporalContext(ctx, p, search.Options{Limit: 16})
		if err != nil {
			return nil, err
		}
		if l.NumEdges() != total {
			return nil, fmt.Errorf("sharded x%d: ingested %d edges, want %d", shards, l.NumEdges(), total)
		}
		out.Seconds = append(out.Seconds, elapsed.Seconds())
		out.Rate = append(out.Rate, float64(total)/elapsed.Seconds())
		out.LiveEdges = append(out.LiveEdges, l.NumEdges())
		out.Matches = append(out.Matches, len(res.Matches))
	}
	return out, nil
}
