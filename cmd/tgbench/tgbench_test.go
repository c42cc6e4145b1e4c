package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smokeConfig pins every parallelism knob: nothing a test asserts may depend
// on the host's GOMAXPROCS or CPU count.
func smokeConfig(workload string, seed int64, trace bool) config {
	return config{
		Workload: workload, Seed: seed, Seconds: 0.4, Trace: trace, Scale: "smoke",
		Shards: 2, Workers: 2, Clients: 2,
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to the program: the
// same workloads with the same reasons, the same metrics with the same
// units, directions and bounds, in the same order.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if got, want := strings.Join(bf.Command, " "), "go run ./cmd/tgbench"; got != want {
		t.Errorf("command = %q, want %q", got, want)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "cmd/tgbench" {
		t.Errorf("paths = %v, want [cmd/tgbench]", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has {%s %s}", i, bf.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := bf.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, program has %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := bf.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, program has %+v", i, g, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmokeEveryWorkload runs every workload untraced and traced at
// smoke scale and checks the result line's contract: every metric of the
// matching BENCHMARK.json list exactly once (metricSet panics on a second
// set, run fails on a missing one) with a finite value, and no failed
// operation.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				cfg := smokeConfig(w.Name, 1, trace)
				cfg.OutDir = t.TempDir()
				rec, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Ops < 1 {
					t.Errorf("attempted=%d failed=%d correct=%v: %v", rec.Ops, rec.Failed, rec.Correct, rec.Errors)
				}
				want := map[string]string{}
				if trace {
					for _, d := range bf.PerLayer {
						want[d.Name] = d.Unit
					}
				} else {
					for _, d := range bf.EndToEnd {
						want[d.Name] = d.Unit
					}
				}
				if len(rec.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(rec.Metrics), len(want))
				}
				for name, unit := range want {
					v, ok := rec.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case v.Unit != unit:
						t.Errorf("metric %s has unit %q, want %q", name, v.Unit, unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s = %v", name, v.Value)
					case !trace && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", name, v.Value)
					}
				}
				// The result line itself must parse and end the output.
				var out bytes.Buffer
				if err := report(&out, rec); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
				var last struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if len(last.Metrics) != len(want) || last.Attempted != rec.Ops {
					t.Errorf("result line carries %d metrics and attempted=%d", len(last.Metrics), last.Attempted)
				}
				if trace {
					spans := filepath.Join(cfg.OutDir, fmt.Sprintf("spans-%s-1.jsonl", w.Name))
					checkSpanFile(t, spans)
				}
			})
		}
	}
	// Logged, not asserted: no assertion here may depend on the wall clock.
	t.Logf("%d smoke runs took %v (the issue allows 10s)", 2*len(workloads), time.Since(start))
}

// checkSpanFile verifies the span file: every line a span, every parent an
// earlier span, and the nesting the README documents present.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if s.ID != len(spans) || s.Parent >= s.ID || s.End < s.Start {
			t.Fatalf("malformed span %+v at index %d", s, len(spans))
		}
		spans = append(spans, s)
	}
	parentOf := map[string]string{}
	for _, s := range spans {
		if s.Parent >= 0 {
			parentOf[s.Name] = spans[s.Parent].Name
			if spans[s.Parent].Request != s.Request {
				t.Errorf("span %s of request %d hangs under request %d", s.Name, s.Request, spans[s.Parent].Request)
			}
		}
	}
	for child, parent := range map[string]string{
		"serve.handler": "http.roundtrip", "serve.decode": "serve.handler", "tgminer.live_append": "serve.handler",
		"search.sharded_append": "tgminer.live_append", "search.live_append": "search.sharded_append",
		"serve.decode_query": "serve.handler", "search.engine_find": "serve.handler",
		"grow.seeds": "core.discover", "miner.mine": "core.discover", "rank.topk": "core.discover",
	} {
		if parentOf[child] != parent {
			t.Errorf("span %s hangs under %q, want %q", child, parentOf[child], parent)
		}
	}
}

// inputDigest hashes everything a run sends to the engines under test: the
// timeline and contact request bodies and, after mining, the query bodies.
func inputDigest(t *testing.T, seed int64) string {
	t.Helper()
	cfg := smokeConfig("ingest-replay", seed, false)
	sz, err := sizesFor(cfg.Workload, cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := setUp(cfg, sz)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := sc.mineWarmUp(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sc.querySet(context.Background(), mr)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, b := range sc.batches {
		h.Write(b)
	}
	for _, b := range sc.contactBatches {
		h.Write(b)
	}
	for _, q := range qs {
		h.Write([]byte(q.Path))
		h.Write(q.bodyNoCache)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSeedDecidesInputs(t *testing.T) {
	a, again, b := inputDigest(t, 7), inputDigest(t, 7), inputDigest(t, 8)
	if a != again {
		t.Errorf("seed 7 generated two different input sets: %s, %s", a, again)
	}
	if a == b {
		t.Errorf("seeds 7 and 8 generated the same inputs: %s", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if p := quantile(xs, 0.95); p != 10 {
		t.Errorf("p95 = %v, want 10", p)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Name: "http.roundtrip", Start: 0, End: 100, Parent: -1, Request: 1},
		{ID: 1, Name: "serve.handler", Start: 200, End: 270, Parent: 0, Request: 1},
		{ID: 2, Name: "serve.decode", Start: 300, End: 310, Parent: 1, Request: 1},
		{ID: 3, Name: "tgminer.live_append", Start: 400, End: 450, Parent: 1, Request: 1},
	}}
	got := tr.layers()
	for name, want := range map[string]layerTime{
		"http.roundtrip":      {Count: 1, Total: 100, Self: 30},
		"serve.handler":       {Count: 1, Total: 70, Self: 10},
		"serve.decode":        {Count: 1, Total: 10, Self: 10},
		"tgminer.live_append": {Count: 1, Total: 50, Self: 50},
	} {
		if got[name] != want {
			t.Errorf("%s = %+v, want %+v", name, got[name], want)
		}
	}
	var off *tracer
	if id := off.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer began span %d", id)
	}
	off.end(-1)
}

// compareFixture writes a -record file with the given values of one
// end-to-end metric on one workload.
func compareFixture(t *testing.T, metric string, values []float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.json")
	for i, v := range values {
		rec := &runRecord{Workload: "ingest-replay", Seed: int64(i), Metrics: map[string]metricValue{metric: {Value: v}}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		metric string // ingest_batch_p50_ms: lower, ingest_events_per_s: higher; both bound 25%
		b      []float64
		want   string
	}{
		{"ingest_batch_p50_ms", base, unchanged},
		{"ingest_batch_p50_ms", scaled(1.05), unchanged},
		{"ingest_batch_p50_ms", scaled(1.4), regressed},
		{"ingest_batch_p50_ms", scaled(0.8), improved},
		{"ingest_batch_p50_ms", wide, unresolved},
		{"ingest_events_per_s", scaled(0.6), regressed},
		{"ingest_events_per_s", scaled(1.2), improved},
		{"ingest_events_per_s", scaled(0.97), unchanged},
	} {
		a, b := compareFixture(t, tc.metric, base), compareFixture(t, tc.metric, tc.b)
		var out bytes.Buffer
		reg, err := compareFiles(&out, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "  "+tc.want+"\n") || reg != (tc.want == regressed) {
			t.Errorf("%s b=%v: want verdict %s, regressed=%v, got:\n%s", tc.metric, tc.b[:2], tc.want, reg, out.String())
		}
		code := mainExit([]string{"-compare", a, b}, &out, &out)
		if want := map[bool]int{false: 0, true: 1}[tc.want == regressed]; code != want {
			t.Errorf("%s b=%v: -compare exits %d, want %d", tc.metric, tc.b[:2], code, want)
		}
	}
}

func TestRefusesMoreLoadThanCPUs(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-workload", "ingest-replay", "-scale", "smoke", "-clients", strconv.Itoa(runtime.NumCPU() + 1)}
	if code := mainExit(args, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "-clients") {
		t.Errorf("exit %d, stderr %q: want a refusal naming -clients", code, errOut.String())
	}
	if code := mainExit([]string{"-workload", "no-such", "-scale", "smoke", "-clients", "1"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload exits %d, want 2", code)
	}
}
