// Command experiments regenerates every table and figure of the TGMiner
// paper's evaluation (Section 6) on the synthetic corpus, plus the
// temporal-constraints exhibit. Each experiment prints measured values
// alongside the paper's reported numbers. Performance outside the paper's
// exhibits (parallel mining, sharded ingest, continuous mining, the serving
// tier) is measured by cmd/tgbench.
//
// Usage:
//
//	experiments                 # all experiments at quick scale
//	experiments -only table2    # one experiment
//	experiments -full           # paper-sized run (hours)
//	experiments -list           # list experiment names
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"tgminer/internal/cmdutil"
	"tgminer/internal/experiments"
)

type renderer interface{ Render() string }

// exhibit is one experiment: its -only name and the function that runs it.
// includeSlow is the -include-slow flag.
type exhibit struct {
	name string
	run  func(ctx context.Context, env *experiments.Env, includeSlow bool) (renderer, error)
}

// exhibits lists every experiment in run order; -list, -only and the
// default selection all read it.
var exhibits = []exhibit{
	{"table1", func(_ context.Context, env *experiments.Env, _ bool) (renderer, error) {
		return experiments.Table1(env), nil
	}},
	{"table2", func(ctx context.Context, env *experiments.Env, _ bool) (renderer, error) {
		return experiments.Table2(ctx, env)
	}},
	{"figure10", func(ctx context.Context, env *experiments.Env, _ bool) (renderer, error) {
		return experiments.Figure10(ctx, env, "")
	}},
	{"figure11", func(ctx context.Context, env *experiments.Env, _ bool) (renderer, error) {
		return experiments.Figure11(ctx, env, nil)
	}},
	{"figure12", func(ctx context.Context, env *experiments.Env, _ bool) (renderer, error) {
		return experiments.Figure12(ctx, env, nil)
	}},
	{"figure13", func(ctx context.Context, env *experiments.Env, includeSlow bool) (renderer, error) {
		return experiments.Figure13(ctx, env, includeSlow)
	}},
	{"figure14", func(ctx context.Context, env *experiments.Env, _ bool) (renderer, error) {
		return experiments.Figure14(ctx, env, nil)
	}},
	{"table3", func(ctx context.Context, env *experiments.Env, _ bool) (renderer, error) {
		return experiments.Table3(ctx, env)
	}},
	{"figure15", func(ctx context.Context, env *experiments.Env, _ bool) (renderer, error) {
		return experiments.Figure15(ctx, env, nil)
	}},
	{"figure16", func(ctx context.Context, env *experiments.Env, _ bool) (renderer, error) {
		return experiments.Figure16(ctx, env, nil)
	}},
	{"constraints", func(ctx context.Context, env *experiments.Env, _ bool) (renderer, error) {
		return experiments.ConstraintExhibit(ctx, env)
	}},
}

func names(es []exhibit) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.name
	}
	return out
}

// selectExhibits returns the exhibits named in the comma-separated list, in
// table order; an empty list selects all of them. An unknown name is an
// error.
func selectExhibits(only string) ([]exhibit, error) {
	if only == "" {
		return exhibits, nil
	}
	want := map[string]bool{}
	for _, n := range strings.Split(only, ",") {
		n = strings.TrimSpace(n)
		if !slices.Contains(names(exhibits), n) {
			return nil, fmt.Errorf("unknown experiment %q", n)
		}
		want[n] = true
	}
	var out []exhibit
	for _, e := range exhibits {
		if want[e.name] {
			out = append(out, e)
		}
	}
	return out, nil
}

func main() {
	only := flag.String("only", "", "run only the named experiments (comma-separated)")
	full := flag.Bool("full", false, "paper-scale run (hours) instead of quick scale")
	list := flag.Bool("list", false, "list experiment names and exit")
	includeSlow := flag.Bool("include-slow", false, "run SupPrune on medium/large classes in figure13")
	timeout := flag.Duration("timeout", 0, "overall deadline (e.g. 10m); 0 = none. Ctrl-C also cancels cooperatively")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(names(exhibits), "\n"))
		return
	}
	selected, err := selectExhibits(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v; valid names: %s\n", err, strings.Join(names(exhibits), ", "))
		os.Exit(2)
	}
	// Ctrl-C or the deadline cancels the context-aware mining entry points
	// at seed granularity; completed experiments stay printed. A second
	// Ctrl-C force-kills (see cmdutil.SignalContext).
	ctx, _, stop := cmdutil.SignalContext(*timeout)
	defer stop()
	scale := experiments.Quick()
	if *full {
		scale = experiments.Full()
	}

	fmt.Printf("generating corpus (scale=%s)...\n", scale.Name)
	start := time.Now()
	env := experiments.NewEnv(scale)
	fmt.Printf("corpus ready in %s\n\n", time.Since(start).Round(time.Millisecond))

	for _, e := range selected {
		// A deadline expiring after the last experiment finished is a
		// success; one that costs an experiment is not.
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "experiments: cancelled (%v); completed experiments above\n", context.Cause(ctx))
			os.Exit(130)
		}
		t0 := time.Now()
		res, err := e.run(ctx, env, *includeSlow)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "%s: cancelled (%v); earlier experiments above are complete\n", e.name, err)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %s]\n\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
}
