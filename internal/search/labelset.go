package search

import (
	"context"
	"sync"

	"tgminer/internal/tgraph"
)

// This file implements the NodeSet baseline's matcher: find minimal time
// windows (span ≤ opts.Window) containing distinct nodes whose labels cover
// the query multiset. Each minimal satisfying window yields one match.
//
// Per the paper, a NodeSet match is a set of k nodes whose label multiset
// equals the query's, spanning no longer than the longest observed behavior
// lifetime. Matching minimal windows (rather than every k-subset) keeps the
// match count comparable to the pattern-query semantics.
//
// The path runs on a pinned cut (cut.go): label events are extracted per
// view, merged across views in time order, and swept once.

// lsEvent is one occurrence of a queried label on the edge stream.
type lsEvent struct {
	time  int64
	node  tgraph.NodeID
	label tgraph.Label
}

// labelNeed counts the query label multiset.
func labelNeed(labels []tgraph.Label) map[tgraph.Label]int {
	need := make(map[tgraph.Label]int, len(labels))
	for _, l := range labels {
		need[l]++
	}
	return need
}

// labelSetEvents builds the label events — each node's occurrences on the
// edge stream, restricted to queried labels — from a view's edge iteration,
// which yields edges in time order, so the events come out time-sorted. A
// self-loop edge has one distinct endpoint and contributes exactly one
// event. numEdges only sizes the allocation.
func labelSetEvents(need map[tgraph.Label]int, numEdges int, forEach func(func(tgraph.Edge) bool), labelOf func(tgraph.NodeID) tgraph.Label) []lsEvent {
	evs := make([]lsEvent, 0, numEdges)
	forEach(func(ed tgraph.Edge) bool {
		if l := labelOf(ed.Src); need[l] > 0 {
			evs = append(evs, lsEvent{time: ed.Time, node: ed.Src, label: l})
		}
		if ed.Dst != ed.Src {
			if l := labelOf(ed.Dst); need[l] > 0 {
				evs = append(evs, lsEvent{time: ed.Time, node: ed.Dst, label: l})
			}
		}
		return true
	})
	return evs
}

// mergeEvents merges per-view time-sorted label-event lists into one
// time-sorted stream (ties toward the lower view, deterministically; a
// single edge's src-then-dst event order is preserved because both events
// sit adjacent in one view's list).
func mergeEvents(perView [][]lsEvent) []lsEvent {
	if len(perView) == 1 {
		return perView[0]
	}
	total := 0
	for _, evs := range perView {
		total += len(evs)
	}
	out := make([]lsEvent, 0, total)
	idx := make([]int, len(perView))
	for len(out) < total {
		best := -1
		for i, evs := range perView {
			if idx[i] >= len(evs) {
				continue
			}
			if best == -1 || evs[idx[i]].time < perView[best][idx[best]].time {
				best = i
			}
		}
		out = append(out, perView[best][idx[best]])
		idx[best]++
	}
	return out
}

// findLabelSet extracts each view's label events — inline for one view, in
// parallel for several — merges them, and sweeps the merged stream.
func findLabelSet(ctx context.Context, c *cut, labels []tgraph.Label, opts Options) (Result, error) {
	need := labelNeed(labels)
	perView := make([][]lsEvent, len(c.views))
	events := func(i int) {
		v := c.views[i]
		perView[i] = labelSetEvents(need, v.numEdges(), v.forEachEdge, func(n tgraph.NodeID) tgraph.Label { return c.labels[n] })
	}
	if len(c.views) == 1 {
		events(0)
	} else {
		var wg sync.WaitGroup
		for i := range c.views {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				events(i)
			}(i)
		}
		wg.Wait()
	}
	return labelSetSweep(ctx, mergeEvents(perView), need, opts)
}

// labelSetSweep runs the sliding-window scan over the label events,
// counting distinct nodes per label and reporting each minimal satisfying
// window. The context is polled every ctxCheckMask+1 events; on
// cancellation the matches found so far return together with ctx.Err().
func labelSetSweep(ctx context.Context, evs []lsEvent, need map[tgraph.Label]int, opts Options) (Result, error) {
	res := &resultSet{limit: opts.Limit}
	nodeCount := map[tgraph.NodeID]int{} // occurrences of node in window
	labelHave := map[tgraph.Label]int{}  // distinct nodes per label in window
	satisfied := 0
	left := 0
	push := func(x lsEvent) {
		if nodeCount[x.node] == 0 {
			labelHave[x.label]++
			if labelHave[x.label] == need[x.label] {
				satisfied++
			}
		}
		nodeCount[x.node]++
	}
	pop := func(x lsEvent) {
		nodeCount[x.node]--
		if nodeCount[x.node] == 0 {
			delete(nodeCount, x.node)
			if labelHave[x.label] == need[x.label] {
				satisfied--
			}
			labelHave[x.label]--
		}
	}
	for right := 0; right < len(evs); right++ {
		if right&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return res.finish(), err
			}
		}
		push(evs[right])
		if opts.Window > 0 {
			for evs[right].time-evs[left].time+1 > opts.Window {
				pop(evs[left])
				left++
			}
		}
		if satisfied == len(need) {
			// Shrink to minimal window.
			for left < right {
				trial := evs[left]
				pop(trial)
				if satisfied == len(need) {
					left++
					continue
				}
				push(trial)
				break
			}
			res.add(Match{Start: evs[left].time, End: evs[right].time})
			if res.full() {
				break
			}
		}
	}
	return res.finish(), nil
}
