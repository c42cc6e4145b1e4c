package search

// This file compiles a temporal pattern plus its optional TemporalConstraints
// into the step program the temporal matcher (temporalRun, stream.go)
// executes on every host: each step carries the pattern edge, its endpoint
// labels, a guard interval derived from the hop's gap/window constraints,
// and repetition bounds. An unconstrained pattern compiles to steps with
// minRep == maxRep == 1 and open guards, and the driver then reproduces the
// plain fixed-sequence walk exactly — same candidate order, same emission
// order, same Truncated accounting (pinned by TestZeroConstraintsIdentical).
//
// Guards are monotone in edge time (Aghasadeghi, Van den Bussche &
// Stoyanovich 2022: timed-automaton clock guards over a time-ordered edge
// stream), and position order equals time order in every view, so the
// driver turns them into index pruning rather than post-filtering: the
// lower bound skips ahead by binary search on edge time, and the upper bound
// early-exits the candidate scan (BenchmarkConstrainedTemporal measures the
// win over match-then-filter).

import (
	"fmt"

	"tgminer/internal/tgraph"
)

// HopConstraint constrains how pattern edge i ("hop i") may be matched in
// time, relative to the previous matched edge occurrence and to the match
// start (the root edge's timestamp). The zero value is unconstrained: the
// hop matches exactly once, anywhere after the previous hop.
//
// All bounds are inclusive and in the host graph's time units:
//
//   - MinGap/MaxGap bound the gap to the PREVIOUS matched occurrence:
//     prev + MinGap <= t <= prev + MaxGap (0 = unbounded). The paper's
//     cybersecurity rule "B follows A within 30s" is MaxGap: 30 on B's hop.
//   - After/Within bound the hop relative to the MATCH START:
//     start + After <= t <= start + Within (0 = unbounded). Options.Window
//     composes as a Within applied to every hop.
//   - Optional allows the hop to be skipped entirely (zero occurrences).
//   - MinRepeat/MaxRepeat allow bounded Kleene repetition: the hop may match
//     MinRepeat..MaxRepeat consecutive occurrences (each a distinct host
//     edge, later in time than the previous, re-binding the same pattern
//     endpoints — parallel edges in time order). 0 means "unset": an unset
//     MaxRepeat equals max(MinRepeat, 1), so MinRepeat: 3 alone means
//     exactly 3. Optional composes with MaxRepeat (0..MaxRepeat occurrences)
//     but contradicts MinRepeat > 0.
//
// Gap and start-window guards apply to every repeated occurrence of the hop
// (each occurrence's "previous" is the one before it). Hop 0 anchors the
// match: it must not be Optional and must have After == 0 (its first
// occurrence IS the match start); its other guards constrain repeats only.
type HopConstraint struct {
	MinGap    int64 `json:"minGap,omitempty"`
	MaxGap    int64 `json:"maxGap,omitempty"`
	After     int64 `json:"after,omitempty"`
	Within    int64 `json:"within,omitempty"`
	Optional  bool  `json:"optional,omitempty"`
	MinRepeat int   `json:"minRepeat,omitempty"`
	MaxRepeat int   `json:"maxRepeat,omitempty"`
}

// bounds resolves the hop's effective occurrence-count interval
// [minRep, maxRep] from the Optional/MinRepeat/MaxRepeat encoding.
func (h HopConstraint) bounds() (minRep, maxRep int) {
	minRep = 1
	if h.Optional {
		minRep = 0
	}
	if h.MinRepeat > 0 {
		minRep = h.MinRepeat
	}
	maxRep = h.MaxRepeat
	if maxRep == 0 {
		maxRep = minRep
		if maxRep < 1 {
			maxRep = 1
		}
	}
	return minRep, maxRep
}

// Constraints attaches per-hop temporal constraints to a pattern: Hops[i]
// constrains pattern edge i. A slice shorter than the pattern's edge count
// leaves the remaining hops unconstrained; nil Constraints (or an empty
// slice) is the fully unconstrained program, which matches exactly like the
// plain order-preserving search. See HopConstraint for the per-hop fields.
type Constraints struct {
	Hops []HopConstraint `json:"hops,omitempty"`
}

// Validate checks the constraint set against a pattern with numEdges edges,
// returning a descriptive error for the first violation. It is what the
// compile step enforces; servers can call it up front to reject a bad
// request before any search runs.
func (c *Constraints) Validate(numEdges int) error {
	if c == nil {
		return nil
	}
	if len(c.Hops) > numEdges {
		return fmt.Errorf("search: constraints name %d hops but the pattern has %d edges", len(c.Hops), numEdges)
	}
	for i, h := range c.Hops {
		if h.MinGap < 0 || h.MaxGap < 0 || h.After < 0 || h.Within < 0 || h.MinRepeat < 0 || h.MaxRepeat < 0 {
			return fmt.Errorf("search: hop %d has a negative constraint field", i)
		}
		if h.MaxGap > 0 && h.MinGap > h.MaxGap {
			return fmt.Errorf("search: hop %d minGap %d exceeds maxGap %d", i, h.MinGap, h.MaxGap)
		}
		if h.Within > 0 && h.After > h.Within {
			return fmt.Errorf("search: hop %d after %d exceeds within %d", i, h.After, h.Within)
		}
		if h.Optional && h.MinRepeat > 0 {
			return fmt.Errorf("search: hop %d is optional but requires minRepeat %d", i, h.MinRepeat)
		}
		minRep, maxRep := h.bounds()
		if h.MaxRepeat > 0 && maxRep < minRep {
			return fmt.Errorf("search: hop %d maxRepeat %d is below its minimum repetition %d", i, h.MaxRepeat, minRep)
		}
		if i == 0 {
			if h.Optional {
				return fmt.Errorf("search: hop 0 must not be optional (the first hop anchors the match start)")
			}
			if h.After > 0 {
				return fmt.Errorf("search: hop 0 must have after == 0 (its first occurrence is the match start)")
			}
		}
	}
	return nil
}

// step is one compiled program step: pattern edge i with its endpoint
// labels, guard bounds, and repetition interval. Zero guard fields mean
// unbounded, matching the HopConstraint encoding.
type step struct {
	pe             tgraph.PEdge
	srcLab, dstLab tgraph.Label
	minGap, maxGap int64
	after, within  int64
	minRep, maxRep int
}

// loTime returns the earliest admissible occurrence time for this step given
// the match start and the previous matched occurrence's time. Always at
// least last+1: the global strict time order is itself a guard.
func (s *step) loTime(start, last int64) int64 {
	lo := last + 1
	if s.minGap > 0 && last+s.minGap > lo {
		lo = last + s.minGap
	}
	if s.after > 0 && start+s.after > lo {
		lo = start + s.after
	}
	return lo
}

// hiTime returns the latest admissible occurrence time, or -1 for
// unbounded. window is Options.Window, folded in with its historical
// deadline semantics (last admissible time is start+window-1).
func (s *step) hiTime(start, last, window int64) int64 {
	hi := int64(-1)
	if window > 0 {
		hi = start + window - 1
	}
	if s.maxGap > 0 {
		if h := last + s.maxGap; hi < 0 || h < hi {
			hi = h
		}
	}
	if s.within > 0 {
		if h := start + s.within; hi < 0 || h < hi {
			hi = h
		}
	}
	return hi
}

// program is a compiled temporal query: the automaton the matcher drives.
// Immutable after compile and safe to share across the planner's worker
// goroutines.
type program struct {
	steps []step
	nodes int // pattern node count
}

// maxOccurrences is the most host edges any single match can bind: the sum
// of the steps' repetition maxima. It bounds the driver recursion depth, so
// per-depth scratch (the cursor table) sizes by it.
func (p *program) maxOccurrences() int {
	n := 0
	for i := range p.steps {
		n += p.steps[i].maxRep
	}
	return n
}

// compileProgram compiles pattern + constraints into a step program,
// validating the constraints against the pattern. nil constraints compile to
// the unconstrained program (every step minRep == maxRep == 1, open guards).
func compileProgram(p *tgraph.Pattern, c *Constraints) (*program, error) {
	if err := c.Validate(p.NumEdges()); err != nil {
		return nil, err
	}
	steps := make([]step, p.NumEdges())
	for i := range steps {
		pe := p.EdgeAt(i)
		st := &steps[i]
		st.pe = pe
		st.srcLab = p.LabelOf(pe.Src)
		st.dstLab = p.LabelOf(pe.Dst)
		st.minRep, st.maxRep = 1, 1
		if c != nil && i < len(c.Hops) {
			h := c.Hops[i]
			st.minGap, st.maxGap = h.MinGap, h.MaxGap
			st.after, st.within = h.After, h.Within
			st.minRep, st.maxRep = h.bounds()
		}
	}
	return &program{steps: steps, nodes: p.NumNodes()}, nil
}
