package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Verdicts of one workload x end-to-end metric row of -compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// readRecords reads a -record file: one runRecord per line. Traced runs
// carry no end-to-end metrics and are skipped.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

func valuesOf(recs []runRecord, workload, metric string) []float64 {
	var vs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// verdict compares the runs of one metric on one workload. worse is how
// much b's median is worse than a's, as a share of a's median (negative
// when better). The row is unresolved when either side's quartile spread is
// wider than the bound, unless the two sides do not overlap at all; it is
// regressed when b is worse by more than the bound, improved when b is
// better by more than a's own spread, and unchanged otherwise.
func verdict(d metricDef, a, b []float64) (v string, worse, spreadA, spreadB float64) {
	if len(a) < 2 || len(b) < 2 {
		return unresolved, 0, 0, 0
	}
	if d.Better == "higher" {
		// Negated, a higher-is-better metric compares like the others.
		a, b = negated(a), negated(b)
	}
	ma, mb := median(a), median(b)
	worse = (mb - ma) / math.Abs(ma)
	q1, q3 := quartiles(a)
	spreadA = (q3 - q1) / math.Abs(ma)
	q1, q3 = quartiles(b)
	spreadB = (q3 - q1) / math.Abs(mb)
	switch {
	case slices.Max(b) < slices.Min(a):
		v = improved
	case slices.Min(b) > slices.Max(a) && worse > d.Bound:
		v = regressed
	case max(spreadA, spreadB) > d.Bound:
		v = unresolved
	case worse > d.Bound:
		v = regressed
	case -worse > spreadA:
		v = improved
	default:
		v = unchanged
	}
	return v, worse, spreadA, spreadB
}

func negated(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

// compareFiles prints one row per workload x end-to-end metric present in
// both files and reports whether any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s (%d runs)\nb = %s (%d runs)\n", pathA, len(a), pathB, len(b))
	fmt.Fprintf(w, "%-14s %-22s %-5s %34s %34s %8s %6s  %s\n",
		"workload", "metric", "unit", "a median [q1, q3]", "b median [q1, q3]", "worse", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := valuesOf(a, wl.Name, d.Name), valuesOf(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse, _, _ := verdict(d, va, vb)
			counts[v]++
			fmt.Fprintf(w, "%-14s %-22s %-5s %34s %34s %+7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, d.Unit, summary(va), summary(vb), 100*worse, 100*d.Bound, v)
		}
	}
	fmt.Fprintf(w, "%d improved, %d unchanged, %d regressed, %d unresolved\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
	return counts[regressed] > 0, nil
}

func summary(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("%.4g (n=%d)", median(xs), len(xs))
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}
