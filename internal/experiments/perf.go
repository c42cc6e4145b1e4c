package experiments

import (
	"context"
	"fmt"
	"time"

	"tgminer/internal/miner"
	"tgminer/internal/tgraph"
)

// AlgorithmNames lists the mining algorithm variants of Figure 13 in
// display order.
var AlgorithmNames = []string{"TGMiner", "PruneGI", "SubPrune", "LinearScan", "PruneVF2", "SupPrune"}

func optionsFor(name string) miner.Options {
	switch name {
	case "TGMiner":
		return miner.TGMinerOptions()
	case "PruneGI":
		return miner.PruneGIOptions()
	case "SubPrune":
		return miner.SubPruneOptions()
	case "LinearScan":
		return miner.LinearScanOptions()
	case "PruneVF2":
		return miner.PruneVF2Options()
	case "SupPrune":
		return miner.SupPruneOptions()
	default:
		panic(fmt.Sprintf("experiments: unknown algorithm %q", name))
	}
}

// SizeClasses lists the paper's behavior size classes in display order.
var SizeClasses = []string{"small", "medium", "large"}

func behaviorsInClass(env *Env, class string) []string {
	var out []string
	for _, bd := range env.Data.Behaviors {
		if bd.Spec.Class == class {
			out = append(out, bd.Spec.Name)
		}
	}
	return out
}

// mineBehavior runs one mining configuration on one behavior and returns
// the elapsed wall time and stats. The run is pinned to one worker: the
// paper exhibits time and count a single-threaded search, and letting
// GOMAXPROCS leak in would mix core-count scaling into numbers meant to
// reproduce it.
func mineBehavior(ctx context.Context, env *Env, behavior string, opts miner.Options, maxEdges int) (time.Duration, miner.Stats, error) {
	opts.MaxEdges = maxEdges
	opts.Parallelism = 1
	pos := env.Data.ByName(behavior)
	start := time.Now()
	res, err := miner.MineContext(ctx, pos, env.Data.Background, opts)
	if err != nil {
		return 0, miner.Stats{}, err
	}
	return time.Since(start), res.Stats, nil
}

// Figure13Result reproduces Figure 13: mining response time per algorithm
// per behavior size class.
type Figure13Result struct {
	// Seconds[class][algorithm] is the total mining time over the class's
	// behaviors.
	Seconds map[string]map[string]float64
	// Skipped[class][algorithm] marks runs skipped (paper: SupPrune did not
	// finish medium/large within 2 days).
	Skipped map[string]map[string]bool
	Scale   Scale
}

// Figure13 times every algorithm on every behavior class. When includeSlow
// is false, SupPrune is only run on the small class, mirroring the paper's
// DNF entries for medium/large.
func Figure13(ctx context.Context, env *Env, includeSlow bool) (*Figure13Result, error) {
	out := &Figure13Result{
		Seconds: map[string]map[string]float64{},
		Skipped: map[string]map[string]bool{},
		Scale:   env.Scale,
	}
	for _, class := range SizeClasses {
		out.Seconds[class] = map[string]float64{}
		out.Skipped[class] = map[string]bool{}
		behaviors := behaviorsInClass(env, class)
		for _, alg := range AlgorithmNames {
			if alg == "SupPrune" && class != "small" && !includeSlow {
				out.Skipped[class][alg] = true
				continue
			}
			var total time.Duration
			for _, name := range behaviors {
				d, _, err := mineBehavior(ctx, env, name, optionsFor(alg), env.Scale.MaxPatternEdges)
				if err != nil {
					return nil, fmt.Errorf("figure13 %s/%s: %w", alg, name, err)
				}
				total += d
			}
			out.Seconds[class][alg] = total.Seconds()
		}
	}
	return out, nil
}

// Render prints per-class response times with speedup vs TGMiner.
func (r *Figure13Result) Render() string {
	t := &Table{
		Title:   "Figure 13: Mining response time by algorithm and behavior size class",
		Headers: []string{"Class", "Algorithm", "Time", "vs TGMiner"},
	}
	for _, class := range SizeClasses {
		base := r.Seconds[class]["TGMiner"]
		for _, alg := range AlgorithmNames {
			if r.Skipped[class][alg] {
				t.AddRow(class, alg, "skipped (paper: DNF >2 days)", "-")
				continue
			}
			sec, ok := r.Seconds[class][alg]
			if !ok {
				continue
			}
			rel := "-"
			if base > 0 {
				rel = ratio(sec, base)
			}
			t.AddRow(class, alg, secs(sec), rel)
		}
	}
	t.AddNote("paper: TGMiner up to 6x faster than PruneGI, 17x than LinearScan, 32x than PruneVF2, 50x than SubPrune, 4x+ than SupPrune")
	return t.String()
}

// Figure14Result reproduces Figure 14: response time vs the largest pattern
// size allowed.
type Figure14Result struct {
	// Seconds[class] is parallel to Sizes.
	Sizes   []int
	Seconds map[string][]float64
	Scale   Scale
}

// Figure14 sweeps the maximum pattern size (paper: 5..45) for TGMiner on
// each class.
func Figure14(ctx context.Context, env *Env, sizes []int) (*Figure14Result, error) {
	if len(sizes) == 0 {
		if env.Scale.MaxPatternEdges >= 45 {
			sizes = []int{5, 15, 25, 35, 45}
		} else {
			sizes = []int{2, 4, 6, env.Scale.MaxPatternEdges}
		}
	}
	out := &Figure14Result{Sizes: sizes, Seconds: map[string][]float64{}, Scale: env.Scale}
	for _, class := range SizeClasses {
		behaviors := behaviorsInClass(env, class)
		for _, size := range sizes {
			var total time.Duration
			for _, name := range behaviors {
				d, _, err := mineBehavior(ctx, env, name, miner.TGMinerOptions(), size)
				if err != nil {
					return nil, fmt.Errorf("figure14 %s size %d: %w", name, size, err)
				}
				total += d
			}
			out.Seconds[class] = append(out.Seconds[class], total.Seconds())
		}
	}
	return out, nil
}

// Render prints the sweep.
func (r *Figure14Result) Render() string {
	t := &Table{
		Title:   "Figure 14: Response time vs largest explorable pattern size (TGMiner)",
		Headers: []string{"MaxSize", "Small", "Medium", "Large"},
	}
	for i, size := range r.Sizes {
		t.AddRow(intStr(size),
			secAt(r.Seconds["small"], i), secAt(r.Seconds["medium"], i), secAt(r.Seconds["large"], i))
	}
	t.AddNote("paper: time grows with max size, saturating once patterns exhaust; size 5 finishes within 10s for all behaviors")
	return t.String()
}

func secAt(xs []float64, i int) string {
	if i >= len(xs) {
		return "-"
	}
	return secs(xs[i])
}

// Table3Result reproduces Table 3: empirical pruning trigger probabilities.
type Table3Result struct {
	// Rates[class] holds subgraph and supergraph trigger rates.
	Rates map[string][2]float64
	Scale Scale
}

// PaperTable3 holds the paper's trigger probabilities (percent).
var PaperTable3 = map[string][2]float64{
	"small":  {71.8, 1.1},
	"medium": {61.0, 8.3},
	"large":  {62.2, 4.2},
}

// Table3 measures pruning trigger probabilities per size class.
func Table3(ctx context.Context, env *Env) (*Table3Result, error) {
	out := &Table3Result{Rates: map[string][2]float64{}, Scale: env.Scale}
	for _, class := range SizeClasses {
		var patterns, sub, sup int64
		for _, name := range behaviorsInClass(env, class) {
			// Trigger probabilities are stats counters, which depend on
			// worker interleaving; mineBehavior pins one worker so the
			// measured rates reproduce the single-threaded search.
			_, stats, err := mineBehavior(ctx, env, name, miner.TGMinerOptions(), env.Scale.MaxPatternEdges)
			if err != nil {
				return nil, fmt.Errorf("table3 %s: %w", name, err)
			}
			patterns += stats.PatternsExplored
			sub += stats.SubgraphPrunes
			sup += stats.SupergraphPrunes
		}
		if patterns > 0 {
			out.Rates[class] = [2]float64{
				float64(sub) / float64(patterns),
				float64(sup) / float64(patterns),
			}
		}
	}
	return out, nil
}

// Render prints trigger rates with the paper values.
func (r *Table3Result) Render() string {
	t := &Table{
		Title:   "Table 3: Empirical probabilities that pruning conditions trigger (measured% / paper%)",
		Headers: []string{"Pruning", "Small", "Medium", "Large"},
	}
	row := func(label string, idx int) []string {
		cells := []string{label}
		for _, class := range SizeClasses {
			p := PaperTable3[class]
			cells = append(cells, fmt.Sprintf("%s/%.1f", pct(r.Rates[class][idx]), p[idx]))
		}
		return cells
	}
	t.AddRow(row("Subgraph pruning", 0)...)
	t.AddRow(row("Supergraph pruning", 1)...)
	t.AddNote("paper: subgraph pruning dominates (62-72%%); supergraph pruning adds 1-8%%")
	return t.String()
}

// Figure15Result reproduces Figure 15: response time vs amount of training
// data.
type Figure15Result struct {
	Fractions []float64
	Seconds   map[string][]float64
	Scale     Scale
}

// Figure15 sweeps the fraction of training data used and times TGMiner per
// class.
func Figure15(ctx context.Context, env *Env, fractions []float64) (*Figure15Result, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	}
	out := &Figure15Result{Fractions: fractions, Seconds: map[string][]float64{}, Scale: env.Scale}
	for _, class := range SizeClasses {
		behaviors := behaviorsInClass(env, class)
		for _, frac := range fractions {
			var total time.Duration
			for _, name := range behaviors {
				pos := takeFraction(env.Data.ByName(name), frac)
				neg := takeFraction(env.Data.Background, frac)
				opts := miner.TGMinerOptions()
				opts.MaxEdges = env.Scale.MaxPatternEdges
				opts.Parallelism = 1 // paper exhibit: single-threaded timing
				start := time.Now()
				if _, err := miner.MineContext(ctx, pos, neg, opts); err != nil {
					return nil, fmt.Errorf("figure15 %s frac %.2f: %w", name, frac, err)
				}
				total += time.Since(start)
			}
			out.Seconds[class] = append(out.Seconds[class], total.Seconds())
		}
	}
	return out, nil
}

// Render prints the sweep.
func (r *Figure15Result) Render() string {
	t := &Table{
		Title:   "Figure 15: Response time vs amount of used training data (TGMiner)",
		Headers: []string{"Fraction", "Small", "Medium", "Large"},
	}
	for i, f := range r.Fractions {
		t.AddRow(f3(f),
			secAt(r.Seconds["small"], i), secAt(r.Seconds["medium"], i), secAt(r.Seconds["large"], i))
	}
	t.AddNote("paper: response time scales linearly with training data")
	return t.String()
}

// Figure16Result reproduces Figure 16 / Appendix N: scalability on
// replicated synthetic datasets SYN-2..SYN-10.
type Figure16Result struct {
	Factors []int
	Seconds map[string][]float64
	Scale   Scale
}

// Figure16 replicates the training data k times (SYN-k) and times TGMiner.
func Figure16(ctx context.Context, env *Env, factors []int) (*Figure16Result, error) {
	if len(factors) == 0 {
		factors = []int{2, 4, 6, 8, 10}
	}
	out := &Figure16Result{Factors: factors, Seconds: map[string][]float64{}, Scale: env.Scale}
	for _, class := range SizeClasses {
		behaviors := behaviorsInClass(env, class)
		for _, k := range factors {
			var total time.Duration
			for _, name := range behaviors {
				pos := replicate(env.Data.ByName(name), k)
				neg := replicate(env.Data.Background, k)
				opts := miner.TGMinerOptions()
				opts.MaxEdges = env.Scale.MaxPatternEdges
				opts.Parallelism = 1 // paper exhibit: single-threaded timing
				start := time.Now()
				if _, err := miner.MineContext(ctx, pos, neg, opts); err != nil {
					return nil, fmt.Errorf("figure16 %s SYN-%d: %w", name, k, err)
				}
				total += time.Since(start)
			}
			out.Seconds[class] = append(out.Seconds[class], total.Seconds())
		}
	}
	return out, nil
}

func replicate(graphs []*tgraph.Graph, k int) []*tgraph.Graph {
	out := make([]*tgraph.Graph, 0, len(graphs)*k)
	for i := 0; i < k; i++ {
		out = append(out, graphs...)
	}
	return out
}

// Render prints the scalability sweep.
func (r *Figure16Result) Render() string {
	t := &Table{
		Title:   "Figure 16: Response time over synthetic replicated datasets (TGMiner)",
		Headers: []string{"Dataset", "Small", "Medium", "Large"},
	}
	for i, k := range r.Factors {
		t.AddRow(fmt.Sprintf("SYN-%d", k),
			secAt(r.Seconds["small"], i), secAt(r.Seconds["medium"], i), secAt(r.Seconds["large"], i))
	}
	t.AddNote("paper: linear scaling; 20M nodes / 80M edges mined within 3 hours")
	return t.String()
}
