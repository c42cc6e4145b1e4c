// Command tgbench is the repository's benchmark: named workloads that
// drive mining, ingest, query and mixed serving end to end, check every
// answer against a reference, and print every metric of BENCHMARK.json by
// name with its unit. See README.md in this directory.
//
//	go run ./cmd/tgbench -workload ingest-replay -seed 1 -seconds 45 -trace 0
//	go run ./cmd/tgbench -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
)

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: every workload, one after the other)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 45, "seconds the time-boxed stages share")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	scale := fs.String("scale", "full", "input sizes: full, or smoke for a one-second check")
	clients := fs.Int("clients", min(runtime.NumCPU(), 4), "closed-loop query clients; no more than the CPU count")
	out := fs.String("out", "", "directory the traced pass writes its span file to")
	record := fs.String("record", "", "file to append this run's full record to, for -compare")
	compare := fs.Bool("compare", false, "compare two -record files: tgbench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "tgbench: -compare takes two record files")
			return 2
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "tgbench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}

	nproc := runtime.NumCPU()
	par := min(nproc, 4)
	cfg := config{
		Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Scale: *scale,
		Shards: par, Workers: par, Clients: *clients, OutDir: *out,
	}
	// The load comes from this process: at most one generating goroutine
	// per CPU, or the generator measures its own queueing.
	if cfg.Clients < 1 || cfg.Clients > nproc {
		fmt.Fprintf(stderr, "tgbench: -clients %d: need 1 to %d (the CPU count)\n", cfg.Clients, nproc)
		return 2
	}
	if nproc < 2 {
		fmt.Fprintln(stderr, "tgbench: the mixed stage runs a producer beside a query client and needs 2 CPUs")
		return 2
	}
	if cfg.Seconds <= 0 {
		fmt.Fprintln(stderr, "tgbench: -seconds must be positive")
		return 2
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	code := 0
	for _, name := range names {
		cfg.Workload = name
		rec, err := run(context.Background(), cfg)
		if err != nil {
			fmt.Fprintln(stderr, "tgbench:", err)
			return 2
		}
		if err := report(stdout, rec); err != nil {
			fmt.Fprintln(stderr, "tgbench:", err)
			return 2
		}
		if *record != "" {
			if err := appendRecord(*record, rec); err != nil {
				fmt.Fprintln(stderr, "tgbench:", err)
				return 2
			}
		}
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// report prints the run for a reader and then, as the last line, the result
// object the driver parses.
func report(w io.Writer, rec *runRecord) error {
	h := rec.Host
	fmt.Fprintf(w, "tgbench workload=%s seed=%d seconds=%g scale=%s trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Scale, rec.Trace)
	fmt.Fprintf(w, "host nproc=%d GOMAXPROCS=%d %s rev=%s shards=%d workers=%d clients=%d\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Revision, h.Shards, h.Workers, h.Clients)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := rec.Metrics[d.Name]
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.Name, v.Value, v.Unit)
	}
	if len(rec.Layers) > 0 {
		fmt.Fprintf(w, "  %-36s %8s %12s %12s\n", "layer (from the spans)", "spans", "total ms", "self ms")
		for _, name := range slices.Sorted(maps.Keys(rec.Layers)) {
			l := rec.Layers[name]
			fmt.Fprintf(w, "  %-36s %8d %12.2f %12.2f\n", name, l.Count, ms(l.Total), ms(l.Self))
		}
	}
	fmt.Fprintf(w, "samples %v\nphase seconds %v\n", rec.Samples, rec.PhaseSeconds)
	fmt.Fprintf(w, "operations attempted=%d failed=%d\n", rec.Ops, rec.Failed)
	for _, e := range rec.Errors {
		fmt.Fprintln(w, "  failed:", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Ops, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendRecord(path string, rec *runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(rec)
	return errors.Join(err, f.Close())
}
