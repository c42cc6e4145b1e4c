package search

import (
	"context"
	"errors"
	"iter"
	"math/rand"
	"testing"
	"testing/quick"

	"tgminer/internal/tgraph"
)

func TestConstraintsValidate(t *testing.T) {
	cases := []struct {
		name     string
		c        *Constraints
		numEdges int
		ok       bool
	}{
		{"nil", nil, 2, true},
		{"empty", &Constraints{}, 2, true},
		{"short-slice", &Constraints{Hops: []HopConstraint{{}}}, 3, true},
		{"gaps", &Constraints{Hops: []HopConstraint{{}, {MinGap: 2, MaxGap: 5}}}, 2, true},
		{"windows", &Constraints{Hops: []HopConstraint{{}, {After: 1, Within: 10}}}, 2, true},
		{"repeat", &Constraints{Hops: []HopConstraint{{}, {MinRepeat: 2, MaxRepeat: 4}}}, 2, true},
		{"optional-with-max", &Constraints{Hops: []HopConstraint{{}, {Optional: true, MaxRepeat: 3}}}, 2, true},
		{"too-many-hops", &Constraints{Hops: []HopConstraint{{}, {}, {}}}, 2, false},
		{"negative", &Constraints{Hops: []HopConstraint{{MinGap: -1}}}, 1, false},
		{"gap-inverted", &Constraints{Hops: []HopConstraint{{}, {MinGap: 5, MaxGap: 2}}}, 2, false},
		{"window-inverted", &Constraints{Hops: []HopConstraint{{}, {After: 9, Within: 3}}}, 2, false},
		{"optional-min-repeat", &Constraints{Hops: []HopConstraint{{}, {Optional: true, MinRepeat: 1}}}, 2, false},
		{"max-below-min", &Constraints{Hops: []HopConstraint{{}, {MinRepeat: 3, MaxRepeat: 2}}}, 2, false},
		{"hop0-optional", &Constraints{Hops: []HopConstraint{{Optional: true}}}, 1, false},
		{"hop0-after", &Constraints{Hops: []HopConstraint{{After: 2}}}, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate(tc.numEdges)
			if tc.ok && err != nil {
				t.Fatalf("Validate: unexpected error %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate accepted an invalid constraint set")
			}
		})
	}
}

func TestHopConstraintBounds(t *testing.T) {
	cases := []struct {
		h        HopConstraint
		min, max int
	}{
		{HopConstraint{}, 1, 1},
		{HopConstraint{Optional: true}, 0, 1},
		{HopConstraint{MinRepeat: 3}, 3, 3},
		{HopConstraint{MaxRepeat: 4}, 1, 4},
		{HopConstraint{MinRepeat: 2, MaxRepeat: 5}, 2, 5},
		{HopConstraint{Optional: true, MaxRepeat: 3}, 0, 3},
	}
	for _, tc := range cases {
		if mn, mx := tc.h.bounds(); mn != tc.min || mx != tc.max {
			t.Errorf("%+v bounds() = (%d, %d), want (%d, %d)", tc.h, mn, mx, tc.min, tc.max)
		}
	}
}

// invalidConstraintsSurfaceAsError pins the compile-error contract on all
// three engines: the stream's single element carries the validation error.
func TestInvalidConstraintsSurfaceAsError(t *testing.T) {
	p, err := tgraph.NewPattern([]tgraph.Label{0, 1}, []tgraph.PEdge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	bad := Options{Constraints: &Constraints{Hops: []HopConstraint{{MinGap: -1}}}}
	var b tgraph.Builder
	b.AddNode(0)
	b.AddNode(1)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	live := NewLive(LiveOptions{})
	live.AddNode(0)
	live.AddNode(1)
	if err := live.Append(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	sharded := NewSharded(LiveOptions{Shards: 2})
	sharded.AddNode(0)
	sharded.AddNode(1)
	if err := sharded.Append(0, 1, 1); err != nil {
		t.Fatal(err)
	}

	for _, eng := range []temporalStreamer{NewEngine(g), live, sharded} {
		n, sawErr := 0, false
		for _, serr := range eng.StreamTemporal(context.Background(), p, bad) {
			n++
			if serr != nil {
				sawErr = true
			}
		}
		if n != 1 || !sawErr {
			t.Fatalf("%T: invalid constraints yielded %d elements (error: %v), want one terminal error", eng, n, sawErr)
		}
		_, cerr := (&collector{}).run(eng, p, bad)
		if cerr == nil {
			t.Fatalf("%T: collector saw no error", eng)
		}
	}
}

// --- constrained semantics, hand-pinned ------------------------------------

// chainHost builds A -(t1)-> B -(t2)-> C plus a second B -> C edge at t3,
// the minimal host where gap guards select among candidate continuations.
func chainHost(t *testing.T, times ...int64) *tgraph.Graph {
	t.Helper()
	var b tgraph.Builder
	b.AddNode(0) // A
	b.AddNode(1) // B
	b.AddNode(2) // C
	srcs := []tgraph.NodeID{0, 1, 1}
	dsts := []tgraph.NodeID{1, 2, 2}
	for i, tm := range times {
		if err := b.AddEdge(srcs[i%3], dsts[i%3], tm); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func chainPattern(t *testing.T) *tgraph.Pattern {
	t.Helper()
	p, err := tgraph.NewPattern([]tgraph.Label{0, 1, 2}, []tgraph.PEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConstrainedMaxGap(t *testing.T) {
	// A->B at 1; B->C at 2 and at 40. "C follows B within 30" admits only
	// the first continuation.
	g := chainHost(t, 1, 2, 40)
	p := chainPattern(t)
	eng := NewEngine(g)

	res := eng.FindTemporal(p, Options{})
	if len(res.Matches) != 2 {
		t.Fatalf("unconstrained: %v, want 2 matches", res.Matches)
	}
	res = eng.FindTemporal(p, Options{Constraints: &Constraints{Hops: []HopConstraint{{}, {MaxGap: 30}}}})
	if len(res.Matches) != 1 || res.Matches[0] != (Match{Start: 1, End: 2}) {
		t.Fatalf("maxGap 30: %v, want [{1 2}]", res.Matches)
	}
	res = eng.FindTemporal(p, Options{Constraints: &Constraints{Hops: []HopConstraint{{}, {MinGap: 10}}}})
	if len(res.Matches) != 1 || res.Matches[0] != (Match{Start: 1, End: 40}) {
		t.Fatalf("minGap 10: %v, want [{1 40}]", res.Matches)
	}
}

func TestConstrainedAfterWithin(t *testing.T) {
	g := chainHost(t, 1, 2, 40)
	p := chainPattern(t)
	eng := NewEngine(g)
	// after 5 relative to the match start excludes the early continuation.
	res := eng.FindTemporal(p, Options{Constraints: &Constraints{Hops: []HopConstraint{{}, {After: 5}}}})
	if len(res.Matches) != 1 || res.Matches[0] != (Match{Start: 1, End: 40}) {
		t.Fatalf("after 5: %v, want [{1 40}]", res.Matches)
	}
	// within 10 excludes the late one.
	res = eng.FindTemporal(p, Options{Constraints: &Constraints{Hops: []HopConstraint{{}, {Within: 10}}}})
	if len(res.Matches) != 1 || res.Matches[0] != (Match{Start: 1, End: 2}) {
		t.Fatalf("within 10: %v, want [{1 2}]", res.Matches)
	}
}

func TestConstrainedOptionalHop(t *testing.T) {
	// Host has A->B at 1 but no B->C at all: the two-hop pattern with an
	// optional second hop still matches the bare A->B.
	g := chainHost(t, 1)
	p := chainPattern(t)
	eng := NewEngine(g)
	if res := eng.FindTemporal(p, Options{}); len(res.Matches) != 0 {
		t.Fatalf("unconstrained on truncated host: %v, want none", res.Matches)
	}
	res := eng.FindTemporal(p, Options{Constraints: &Constraints{Hops: []HopConstraint{{}, {Optional: true}}}})
	if len(res.Matches) != 1 || res.Matches[0] != (Match{Start: 1, End: 1}) {
		t.Fatalf("optional hop: %v, want [{1 1}]", res.Matches)
	}
	// With the continuation present, both the short and the long embedding
	// are distinct intervals.
	g = chainHost(t, 1, 2)
	eng = NewEngine(g)
	res = eng.FindTemporal(p, Options{Constraints: &Constraints{Hops: []HopConstraint{{}, {Optional: true}}}})
	want := []Match{{Start: 1, End: 1}, {Start: 1, End: 2}}
	if len(res.Matches) != 2 || res.Matches[0] != want[0] || res.Matches[1] != want[1] {
		t.Fatalf("optional hop with continuation: %v, want %v", res.Matches, want)
	}
}

func TestConstrainedRepetition(t *testing.T) {
	// A->B once, then B->C at 2, 3, 4: parallel edges in time order.
	var b tgraph.Builder
	b.AddNode(0)
	b.AddNode(1)
	b.AddNode(2)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	for tm := int64(2); tm <= 4; tm++ {
		if err := b.AddEdge(1, 2, tm); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	p := chainPattern(t)
	eng := NewEngine(g)

	// Exactly 2 repeats: runs of two consecutive B->C edges.
	res := eng.FindTemporal(p, Options{Constraints: &Constraints{Hops: []HopConstraint{{}, {MinRepeat: 2}}}})
	want := []Match{{Start: 1, End: 3}, {Start: 1, End: 4}}
	if len(res.Matches) != 2 || res.Matches[0] != want[0] || res.Matches[1] != want[1] {
		t.Fatalf("minRepeat 2: %v, want %v", res.Matches, want)
	}
	// 1..3 repeats: every prefix-extension interval is distinct.
	res = eng.FindTemporal(p, Options{Constraints: &Constraints{Hops: []HopConstraint{{}, {MaxRepeat: 3}}}})
	if len(res.Matches) != 3 {
		t.Fatalf("maxRepeat 3: %v, want ends 2,3,4", res.Matches)
	}
	// Gap guards apply per occurrence: maxGap 1 forbids skipping an
	// intermediate B->C, so End 4 needs all three occurrences.
	res = eng.FindTemporal(p, Options{Constraints: &Constraints{Hops: []HopConstraint{{}, {MaxRepeat: 3, MaxGap: 1}}}})
	for _, m := range res.Matches {
		if m == (Match{Start: 1, End: 4}) {
			return
		}
	}
	t.Fatalf("maxRepeat 3 + maxGap 1: %v missing the full run {1 4}", res.Matches)
}

// --- brute-force oracle -----------------------------------------------------

// bruteConstrainedIntervals enumerates every way to expand the constrained
// pattern into a concrete edge sequence (each hop repeated an admissible
// number of times) and every increasing host-position assignment for it,
// checking labels, injectivity, and the temporal guards independently of the
// compiler's loTime/hiTime formulas.
func bruteConstrainedIntervals(p *tgraph.Pattern, c *Constraints, g *tgraph.Graph, window int64) map[Match]bool {
	out := map[Match]bool{}
	n := p.NumEdges()
	hop := func(i int) HopConstraint {
		if c != nil && i < len(c.Hops) {
			return c.Hops[i]
		}
		return HopConstraint{}
	}
	var seq []int
	var expand func(i int)
	expand = func(i int) {
		if i == n {
			bruteMatchSeq(p, g, c, seq, window, out)
			return
		}
		h := hop(i)
		// Resolve the occurrence interval from the raw fields, independently
		// of HopConstraint.bounds.
		mn := 1
		if h.Optional {
			mn = 0
		}
		if h.MinRepeat > 0 {
			mn = h.MinRepeat
		}
		mx := h.MaxRepeat
		if mx == 0 {
			mx = mn
			if mx < 1 {
				mx = 1
			}
		}
		for cnt := mn; cnt <= mx; cnt++ {
			for j := 0; j < cnt; j++ {
				seq = append(seq, i)
			}
			expand(i + 1)
			seq = seq[:len(seq)-cnt]
		}
	}
	expand(0)
	return out
}

func bruteMatchSeq(p *tgraph.Pattern, g *tgraph.Graph, c *Constraints, seq []int, window int64, out map[Match]bool) {
	m, n2 := len(seq), g.NumEdges()
	if m == 0 || m > n2 {
		return
	}
	idx := make([]int, m)
	var rec func(k, from int)
	rec = func(k, from int) {
		if k == m {
			if mt, ok := checkConstrainedAssignment(p, g, c, seq, idx, window); ok {
				out[mt] = true
			}
			return
		}
		for pos := from; pos <= n2-(m-k); pos++ {
			idx[k] = pos
			rec(k+1, pos+1)
		}
	}
	rec(0, 0)
}

func checkConstrainedAssignment(p *tgraph.Pattern, g *tgraph.Graph, c *Constraints, seq, idx []int, window int64) (Match, bool) {
	fwd := map[tgraph.NodeID]tgraph.NodeID{}
	rev := map[tgraph.NodeID]tgraph.NodeID{}
	bind := func(a, b tgraph.NodeID) bool {
		if p.LabelOf(a) != g.LabelOf(b) {
			return false
		}
		fa, okA := fwd[a]
		rb, okB := rev[b]
		if !okA && !okB {
			fwd[a] = b
			rev[b] = a
			return true
		}
		return okA && okB && fa == b && rb == a
	}
	start := g.EdgeAt(idx[0]).Time
	for j, pos := range idx {
		pe := p.EdgeAt(seq[j])
		ge := g.EdgeAt(pos)
		if !bind(pe.Src, ge.Src) || !bind(pe.Dst, ge.Dst) {
			return Match{}, false
		}
		if j == 0 {
			continue // the anchor occurrence has no previous edge to guard on
		}
		prev := g.EdgeAt(idx[j-1]).Time
		var h HopConstraint
		if c != nil && seq[j] < len(c.Hops) {
			h = c.Hops[seq[j]]
		}
		t := ge.Time
		if h.MinGap > 0 && t-prev < h.MinGap {
			return Match{}, false
		}
		if h.MaxGap > 0 && t-prev > h.MaxGap {
			return Match{}, false
		}
		if h.After > 0 && t-start < h.After {
			return Match{}, false
		}
		if h.Within > 0 && t-start > h.Within {
			return Match{}, false
		}
	}
	end := g.EdgeAt(idx[len(idx)-1]).Time
	if window > 0 && end-start+1 > window {
		return Match{}, false
	}
	return Match{Start: start, End: end}, true
}

// randomConstraints draws a valid-by-construction constraint set for a
// pattern with numEdges edges, mixing gap guards, start windows, optional
// hops, and small repetitions. Roughly a third of the draws are nil.
func randomConstraints(rng *rand.Rand, numEdges int) *Constraints {
	if numEdges == 0 || rng.Intn(3) == 0 {
		return nil
	}
	hops := make([]HopConstraint, 1+rng.Intn(numEdges))
	for i := range hops {
		h := &hops[i]
		if rng.Intn(2) == 0 {
			h.MaxGap = int64(1 + rng.Intn(6))
		}
		if rng.Intn(3) == 0 {
			h.MinGap = int64(1 + rng.Intn(3))
			if h.MaxGap > 0 && h.MinGap > h.MaxGap {
				h.MaxGap = h.MinGap
			}
		}
		if i > 0 {
			if rng.Intn(4) == 0 {
				h.Within = int64(2 + rng.Intn(10))
			}
			if rng.Intn(5) == 0 {
				h.After = int64(1 + rng.Intn(3))
				if h.Within > 0 && h.After > h.Within {
					h.Within = h.After
				}
			}
			if rng.Intn(5) == 0 {
				h.Optional = true
			}
		}
		switch {
		case rng.Intn(6) == 0 && !h.Optional:
			h.MinRepeat = 1 + rng.Intn(2)
			h.MaxRepeat = h.MinRepeat + rng.Intn(2)
		case rng.Intn(6) == 0:
			h.MaxRepeat = 1 + rng.Intn(2)
		}
	}
	return &Constraints{Hops: hops}
}

// TestConstrainedMatchesBruteForceQuick is the tentpole's semantic
// acceptance property: the compiled-program engine agrees with the
// independent brute-force oracle on random hosts, patterns, and constraint
// sets.
func TestConstrainedMatchesBruteForceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomHost(rng, 4+rng.Intn(3), 6+rng.Intn(4), 3)
		p := randomQuery(rng, 3, 3)
		c := randomConstraints(rng, p.NumEdges())
		if err := c.Validate(p.NumEdges()); err != nil {
			t.Fatalf("seed=%d: randomConstraints drew an invalid set: %v", seed, err)
		}
		var window int64
		if rng.Intn(2) == 0 {
			window = int64(3 + rng.Intn(12))
		}
		eng := NewEngine(g)
		got := eng.FindTemporal(p, Options{Window: window, Constraints: c})
		want := bruteConstrainedIntervals(p, c, g, window)
		if len(got.Matches) != len(want) {
			t.Logf("seed=%d: got %d intervals, want %d (window=%d)\n c=%+v\n p=%v\n g=%v",
				seed, len(got.Matches), len(want), window, c, p, g)
			return false
		}
		for _, m := range got.Matches {
			if !want[m] {
				t.Logf("seed=%d: unexpected interval %v (c=%+v)", seed, m, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- cross-engine stream identity ------------------------------------------

// temporalStreamer is the yield-based temporal query surface all three
// engines share: each drives the same compiled program.
type temporalStreamer interface {
	StreamTemporal(ctx context.Context, p *tgraph.Pattern, opts Options) iter.Seq2[Match, error]
}

// collector drains a temporal stream preserving discovery order, folding
// ErrTruncated into the Truncated flag exactly as the Find wrappers do.
type collector struct{}

func (collector) run(s temporalStreamer, p *tgraph.Pattern, opts Options) (Result, error) {
	var res Result
	var rerr error
	for m, err := range s.StreamTemporal(context.Background(), p, opts) {
		switch {
		case errors.Is(err, ErrTruncated):
			res.Truncated = true
		case err != nil:
			rerr = err
		default:
			res.Matches = append(res.Matches, m)
		}
	}
	return res, rerr
}

// TestZeroConstraintsIdentical is the refactor's acceptance property: a nil
// Constraints, an empty Constraints, and an all-zero Hops slice reproduce
// the unconstrained matcher byte-identically — same matches, same discovery
// order, same Truncated accounting — on the static, live, and sharded
// engines, replayed across the adversarial append/evict/compact
// interleavings.
func TestZeroConstraintsIdentical(t *testing.T) {
	for _, sc := range adversarialScripts() {
		t.Run(sc.name, func(t *testing.T) {
			live := NewLive(LiveOptions{CompactEvery: -1})
			sharded := NewSharded(LiveOptions{CompactEvery: -1, Shards: 3})
			oneShard := NewSharded(LiveOptions{CompactEvery: -1, Shards: 1})
			var labels []tgraph.Label
			var edges []tgraph.Edge
			minTime := int64(0)
			for i, op := range sc.ops {
				replayOp(t, live, op)
				replayOp(t, sharded, op)
				replayOp(t, oneShard, op)
				switch op.kind {
				case 'n':
					labels = append(labels, op.label)
				case 'e':
					edges = append(edges, tgraph.Edge{Src: op.src, Dst: op.dst, Time: op.t})
				case 'v':
					if op.t > minTime {
						minTime = op.t
					}
				}
				static := staticEquivalent(t, labels, edges, minTime)
				rng := rand.New(rand.NewSource(int64(i) + 1))
				for q := 0; q < 3; q++ {
					p := randomQuery(rng, 3, 2)
					opts := Options{}
					if rng.Intn(2) == 0 {
						opts.Window = int64(2 + rng.Intn(10))
					}
					if rng.Intn(3) == 0 {
						opts.Limit = 1 + rng.Intn(3)
					}
					zeroed := []Options{opts, opts, opts}
					zeroed[1].Constraints = &Constraints{}
					zeroed[2].Constraints = &Constraints{Hops: make([]HopConstraint, p.NumEdges())}
					for _, eng := range []temporalStreamer{static, live, sharded, oneShard} {
						base, err := collector{}.run(eng, p, zeroed[0])
						if err != nil {
							t.Fatalf("op %d %T: %v", i, eng, err)
						}
						for v := 1; v < len(zeroed); v++ {
							got, err := collector{}.run(eng, p, zeroed[v])
							if err != nil {
								t.Fatalf("op %d %T variant %d: %v", i, eng, v, err)
							}
							if err := sameResult(got, base); err != nil {
								t.Fatalf("op %d %T variant %d: zero constraints diverge from nil: %v", i, eng, v, err)
							}
						}
					}
				}
			}
		})
	}
}

// TestConstrainedCrossEngineParity pins constrained queries equal across
// static == live == sharded, in stream order, over random hosts and
// constraint sets — the same-cut differential the serve layer then extends
// over HTTP.
func TestConstrainedCrossEngineParity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numLabels := 3
		nodes := 4 + rng.Intn(3)
		live := NewLive(LiveOptions{CompactEvery: []int{-1, 2, 3}[rng.Intn(3)]})
		sharded := NewSharded(LiveOptions{CompactEvery: []int{-1, 2, 3}[rng.Intn(3)], Shards: 1 + rng.Intn(4)})
		var labels []tgraph.Label
		var edges []tgraph.Edge
		for i := 0; i < nodes; i++ {
			lab := tgraph.Label(rng.Intn(numLabels))
			labels = append(labels, lab)
			live.AddNode(lab)
			sharded.AddNode(lab)
		}
		tm := int64(0)
		for i := 0; i < 10+rng.Intn(6); i++ {
			src := tgraph.NodeID(rng.Intn(nodes))
			dst := tgraph.NodeID(rng.Intn(nodes))
			tm += int64(1 + rng.Intn(3))
			if err := live.Append(src, dst, tm); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Append(src, dst, tm); err != nil {
				t.Fatal(err)
			}
			edges = append(edges, tgraph.Edge{Src: src, Dst: dst, Time: tm})
		}
		static := staticEquivalent(t, labels, edges, 0)
		for q := 0; q < 4; q++ {
			p := randomQuery(rng, 3, numLabels)
			opts := Options{Constraints: randomConstraints(rng, p.NumEdges())}
			if rng.Intn(2) == 0 {
				opts.Window = int64(2 + rng.Intn(10))
			}
			if rng.Intn(4) == 0 {
				opts.Limit = 1 + rng.Intn(3)
			}
			want, err := collector{}.run(static, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []temporalStreamer{live, sharded} {
				got, err := collector{}.run(eng, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameResult(got, want); err != nil {
					t.Logf("seed=%d q=%d %T: %v (constraints %+v)", seed, q, eng, err, opts.Constraints)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
