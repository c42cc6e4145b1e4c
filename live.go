package tgminer

import (
	"strconv"
	"sync"

	"tgminer/internal/search"
	"tgminer/internal/tgraph"
)

// LiveOptions configures a LiveEngine.
type LiveOptions struct {
	// CompactEvery is the minimum number of appended edges before a
	// shard's append-only tail is folded into its CSR base indexes
	// (default 4096; negative disables automatic compaction, leaving it to
	// explicit Compact calls). Compaction is normally an incremental
	// tail-merge — O(tail + touched lists), independent of the base size —
	// with a reclaiming full rebuild as the fallback; each shard compacts
	// on its own schedule.
	CompactEvery int

	// Shards is the number of independent ingest shards (0 = GOMAXPROCS,
	// 1 = a single unsharded engine, the pre-sharding behavior). Events
	// partition by their SOURCE entity, so producers whose entities hash
	// to different shards append fully in parallel instead of serializing
	// on one writer mutex. Queries are answered by a cross-shard planner
	// and are byte-identical at every shard count (differentially
	// tested); shard only for multi-writer ingest throughput — a single
	// producer gains nothing. See the README's sharding subsection for
	// the consistency model.
	Shards int
}

// LiveEngine is an incrementally growing temporal-graph engine for
// continuous monitoring: the scenario of the paper's deployment setting,
// where the syscall graph never stops growing and the immutable NewEngine
// would have to be rebuilt from scratch per batch.
//
// Events append in strictly increasing timestamp order (sequentialize
// concurrent events upstream, as GraphBuilder.Sequentialize does for batch
// graphs) into an append-only tail over the compacted CSR base; EvictBefore
// implements sliding-window retention in O(log E). All three query families
// — temporal (FindTemporal/FindTemporalContext/Stream), non-temporal
// (FindNonTemporal/FindNonTemporalContext), and label-set
// (FindLabelSet/FindLabelSetContext) — answer exactly as a static Engine
// built over the equivalent edge set would, including across compaction
// boundaries.
//
// A LiveEngine is safe for concurrent use and its reads are lock-free:
// every query runs against an immutable snapshot pinned when it started. A
// long-lived Stream therefore observes one consistent edge set for its
// whole lifetime and never stalls ingestion — Append, EvictBefore, and
// Compact proceed concurrently (and may safely be called from inside the
// consumer loop; their effects become visible to the next query, not the
// running stream).
//
// Multi-writer ingestion shards by source entity (LiveOptions.Shards,
// default GOMAXPROCS): each shard has its own writer mutex, generation
// chain, compaction schedule, and eviction floor, so concurrent producers
// scale with cores instead of serializing. Entity identity is shard-aware
// by construction — NodeIDs are global and every shard registers every
// entity under the same ID, so the name→NodeID dictionary below needs no
// per-shard remapping and an entity appearing as the destination of an
// event owned by a foreign shard resolves consistently. Queries pin one
// snapshot per shard (per-shard prefix consistency: each shard contributes
// a prefix of its own append history, with no cross-shard barrier) and the
// planner merges per-shard results back into the exact single-engine
// answer; for that equivalence timestamps must stay globally unique, the
// same strictly-increasing contract Append already documents.
//
// One sharp edge: the label Dict itself is not synchronized. Appending a
// never-seen entity interns its label, so building query patterns against
// the same Dict (e.g. with a GraphBuilder) concurrently with Append races.
// Author queries before ingestion starts, or serialize Dict access
// externally; queries already built are safe to run at any time.
type LiveEngine struct {
	queries

	mu    sync.Mutex // guards nodes; the live engine has its own locks
	live  *search.ShardedLive
	dict  *Dict
	nodes map[string]NodeID

	snapMu    sync.Mutex // guards the MineSnapshot cache below
	snapGraph *Graph
	snapKey   mineSnapKey
}

// mineSnapKey identifies a live engine's edge-set generation. Appends
// strictly increase LastTime, evictions shrink NumEdges, and new entities
// grow NumNodes, so no two distinct live edge sets of one engine ever share
// a key.
type mineSnapKey struct {
	nodes, edges int
	lastTime     int64
}

// NewLiveEngine returns an empty live engine interning labels into dict (a
// fresh Dict if nil). Patterns evaluated against the engine must use the
// same Dict.
func NewLiveEngine(dict *Dict, opts LiveOptions) *LiveEngine {
	if dict == nil {
		dict = NewDict()
	}
	live := search.NewSharded(search.LiveOptions{CompactEvery: opts.CompactEvery, Shards: opts.Shards})
	return &LiveEngine{queries: queries{&live.Queries}, live: live, dict: dict, nodes: make(map[string]NodeID)}
}

// Dict returns the engine's label dictionary.
func (le *LiveEngine) Dict() *Dict { return le.dict }

// Shards reports the number of ingest shards.
func (le *LiveEngine) Shards() int { return le.live.Shards() }

// Node returns the node for the given entity name, creating it on first
// use. The entity name doubles as its label.
func (le *LiveEngine) Node(name string) NodeID {
	le.mu.Lock()
	defer le.mu.Unlock()
	return le.nodeLocked(name, name)
}

// NodeWithLabel adds a node whose entity identity is name but whose label
// is label (several entities may share a label).
func (le *LiveEngine) NodeWithLabel(name, label string) NodeID {
	le.mu.Lock()
	defer le.mu.Unlock()
	return le.nodeLocked(name, label)
}

func (le *LiveEngine) nodeLocked(name, label string) NodeID {
	if v, ok := le.nodes[name]; ok {
		return v
	}
	v := le.live.AddNode(le.dict.Intern(label))
	le.nodes[name] = v
	return v
}

// Append records a directed interaction src -> dst at time t, creating
// nodes as needed. Timestamps must be strictly increasing across appends.
// The event lands on src's shard; concurrent Appends whose sources hash to
// different shards proceed in parallel.
func (le *LiveEngine) Append(src, dst string, t int64) error {
	le.mu.Lock()
	s := le.nodeLocked(src, src)
	d := le.nodeLocked(dst, dst)
	le.mu.Unlock()
	return le.live.Append(s, d, t)
}

// EvictBefore drops every edge with timestamp < t on every shard
// (sliding-window retention). O(log E) per shard — it advances a floor
// position queries skip; the space itself is reclaimed once a shard's
// evicted prefix reaches half its edge array and a compaction rebuilds
// (see Stats to observe retention). Nodes are retained so identities stay
// stable.
func (le *LiveEngine) EvictBefore(t int64) { le.live.EvictBefore(t) }

// Compact folds every shard's append-only tail into its CSR indexes now
// instead of waiting for the CompactEvery threshold. Compaction is
// normally an incremental merge — the existing CSR base is extended with
// the (already indexed, already position-sorted) tail segment in O(tail +
// touched lists), not rebuilt — and falls back to a full rebuild that
// reclaims the evicted prefix once that prefix reaches half the edge
// array. Stats reports which path compactions took.
func (le *LiveEngine) Compact() { le.live.Compact() }

// LiveStats describes live-engine retention and compaction state at one
// instant: how much of the edge set sits in the compacted CSR base versus
// the append-only tail, how far sliding-window eviction has advanced
// (Floor counts evicted-but-not-yet-reclaimed edges), how many compactions
// ran — Merges of them incremental tail-merges, the rest reclaiming
// rebuilds — plus memory accounting: RetainedBytes approximates the
// storage the current generation holds, ActiveReaders counts in-flight
// queries, and OldestReaderLag is how many edges have arrived since the
// oldest still-running query pinned its snapshot (a paused stream consumer
// pinning old storage shows up here). All counts are edges unless stated
// otherwise. Every field is O(1) to produce: RetainedBytes is a
// writer-maintained incremental counter (not a recomputed walk), and only
// ActiveReaders/OldestReaderLag come from the fixed-size reader table.
// LiveStats marshals to JSON with stable lowerCamel field names — the
// representation tgminerd's /v1/statsz endpoint and examples/monitor share.
type LiveStats = search.LiveStats

// Stats reports the engine's current retention and compaction state,
// aggregated across shards: edge counts, floors, compaction counters, and
// retained bytes sum; Nodes is the global entity count (the node table is
// replicated per shard, and RetainedBytes honestly includes that);
// LastTime is the global maximum; ActiveReaders and OldestReaderLag take
// the per-shard maximum, since one query registers on every shard. O(shards)
// — cheap enough to call per ingest batch, which is exactly what tgminerd's
// admission control does. Use ShardStats for the per-shard breakdown (e.g.
// to spot a hot shard or a reader pinning one shard's old storage).
func (le *LiveEngine) Stats() LiveStats { return le.live.Stats() }

// ShardStats reports each ingest shard's retention and compaction state.
func (le *LiveEngine) ShardStats() []LiveStats { return le.live.ShardStats() }

// NumNodes reports the number of distinct entities seen.
func (le *LiveEngine) NumNodes() int { return le.live.NumNodes() }

// NumEdges reports the number of live (non-evicted) events across shards.
func (le *LiveEngine) NumEdges() int { return le.live.NumEdges() }

// LastTime reports the largest appended timestamp (-1 when empty).
func (le *LiveEngine) LastTime() int64 { return le.live.LastTime() }

// Snapshot materializes an immutable Engine over the current live edge set
// (the time-merged union of every shard's live events), for running many
// queries against one consistent state. Like all reads it is lock-free;
// on a single-shard engine right after a compaction the CSR base is shared
// directly with no copying.
func (le *LiveEngine) Snapshot() *Engine { return newEngine(le.live.Snapshot()) }

// MineSnapshot returns the engine's current live edge set as one immutable
// temporal graph for mining, cached per generation: if nothing was appended
// or evicted since the last call, the identical *Graph pointer is returned,
// which lets an incremental MineSession recognize the engine as unchanged
// in O(1) and replay every cached seed it supports. Like Snapshot, the cut
// is lock-free and consistent; the small cache check serializes only
// concurrent MineSnapshot callers.
func (le *LiveEngine) MineSnapshot() *Graph {
	le.snapMu.Lock()
	defer le.snapMu.Unlock()
	key := le.mineSnapKeyNow()
	if le.snapGraph != nil && key == le.snapKey {
		return le.snapGraph
	}
	g := le.live.Snapshot().Graph()
	// Only cache when the engine did not move during the cut; a torn key
	// under concurrent ingest just means the next call rebuilds.
	if le.mineSnapKeyNow() == key {
		le.snapGraph, le.snapKey = g, key
	}
	return g
}

func (le *LiveEngine) mineSnapKeyNow() mineSnapKey {
	return mineSnapKey{nodes: le.live.NumNodes(), edges: le.live.NumEdges(), lastTime: le.live.LastTime()}
}

// GenerationCut returns a stable key identifying the engine's current live
// edge set, one component per ingest shard: two equal cut strings read from
// the same engine — at any two instants — denote byte-identical live edge
// sets on every shard, so any query answer computed under one cut may be
// replayed verbatim whenever the same cut is observed again (this is what
// makes tgminerd's result cache exactly "a replay at the same per-shard
// generation cut"). The converse is not promised: internal reorganization
// (a compaction) changes the cut without changing the edge set — a
// harmless cache miss, never a stale hit. Lock-free: one atomic generation
// load per shard, the same per-shard prefix-consistent capture a query
// pins.
//
// The string is opaque; compare it only for equality and do not persist it
// across engine restarts.
func (le *LiveEngine) GenerationCut() string {
	keys := le.live.CutKey()
	// Worst case ~3 numbers * 20 digits per shard; typical cuts are short.
	buf := make([]byte, 0, 16*len(keys))
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, '/')
		}
		buf = strconv.AppendInt(buf, int64(k.Compactions), 36)
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64(k.Floor), 36)
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64(k.End), 36)
	}
	return string(buf)
}

// LookupLabel resolves a label name to its interned Label under the
// engine's ingest lock, reporting false for a name the engine has never
// seen. Unlike Dict.Lookup — which must not run concurrently with Append
// (interning mutates the Dict; see the type comment's sharp edge) —
// LookupLabel serializes with the engine's own interning, so a serving
// tier can build query patterns while producers keep appending. A label
// the engine does not know cannot appear on any edge, so callers may
// short-circuit such queries to zero matches.
func (le *LiveEngine) LookupLabel(name string) (Label, bool) {
	le.mu.Lock()
	defer le.mu.Unlock()
	l := le.dict.Lookup(name)
	return l, l != tgraph.NoLabel
}
