package experiments

import (
	"context"
	"strings"
	"testing"
)

// tinyScale keeps every driver fast enough for unit testing.
func tinyScale() Scale {
	return Scale{
		Name:              "tiny",
		SizeFactor:        0.2,
		GraphsPerBehavior: 6,
		BackgroundGraphs:  12,
		TestInstances:     24,
		QuerySize:         3,
		TopK:              3,
		MaxPatternEdges:   4,
		Behaviors:         []string{"bzip2-decompress", "gzip-decompress", "scp-download", "sshd-login"},
		Seed:              3,
		MatchLimit:        50000,
	}
}

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	return NewEnv(tinyScale())
}

func TestTable1(t *testing.T) {
	env := tinyEnv(t)
	res := Table1(env)
	if len(res.Rows) != 5 { // 4 behaviors + background
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	for _, row := range res.Rows[:4] {
		if row.AvgEdges <= 0 || row.AvgNodes <= 0 || row.Labels <= 0 {
			t.Errorf("degenerate row %+v", row)
		}
	}
	// Larger behaviors stay larger under scaling.
	var bzip, sshd Table1Row
	for _, row := range res.Rows {
		switch row.Behavior {
		case "bzip2-decompress":
			bzip = row
		case "sshd-login":
			sshd = row
		}
	}
	if sshd.AvgEdges <= bzip.AvgEdges {
		t.Errorf("sshd (%f) should have more edges than bzip2 (%f)", sshd.AvgEdges, bzip.AvgEdges)
	}
	if !strings.Contains(res.Render(), "Table 1") {
		t.Errorf("render missing title")
	}
}

func TestTable2AndRender(t *testing.T) {
	env := tinyEnv(t)
	res, err := Table2(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	prec, rec := res.Averages()
	// TGMiner must dominate on average precision at any scale.
	if prec[2] < prec[0] || prec[2] < prec[1]-0.05 {
		t.Errorf("TGMiner avg precision %.3f not dominant (NodeSet %.3f, Ntemp %.3f)",
			prec[2], prec[0], prec[1])
	}
	if rec[2] <= 0.4 {
		t.Errorf("TGMiner avg recall %.3f too low", rec[2])
	}
	out := res.Render()
	if !strings.Contains(out, "scp-download") || !strings.Contains(out, "Average") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestFigure10(t *testing.T) {
	env := tinyEnv(t)
	res, err := Figure10(context.Background(), env, "sshd-login")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns")
	}
	if !strings.Contains(res.Render(), "sshd-login") {
		t.Errorf("render missing behavior name")
	}
	// Unknown behavior falls back to the first available.
	res2, err := Figure10(context.Background(), env, "")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Behavior != "sshd-login" {
		t.Errorf("default behavior = %q", res2.Behavior)
	}
}

func TestFigure11(t *testing.T) {
	env := tinyEnv(t)
	res, err := Figure11(context.Background(), env, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Larger queries should not lose precision.
	if res.Points[1].Precision+0.05 < res.Points[0].Precision {
		t.Errorf("precision dropped with size: %v", res.Points)
	}
	if !strings.Contains(res.Render(), "Figure 11") {
		t.Errorf("render missing title")
	}
}

func TestFigure12(t *testing.T) {
	env := tinyEnv(t)
	res, err := Figure12(context.Background(), env, []float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if !strings.Contains(res.Render(), "Figure 12") {
		t.Errorf("render missing title")
	}
}

func TestFigure13(t *testing.T) {
	env := tinyEnv(t)
	res, err := Figure13(context.Background(), env, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"small", "medium", "large"} {
		if _, ok := res.Seconds[class]["TGMiner"]; !ok {
			t.Errorf("missing TGMiner time for %s", class)
		}
	}
	if !res.Skipped["medium"]["SupPrune"] || !res.Skipped["large"]["SupPrune"] {
		t.Errorf("SupPrune should be skipped for medium/large by default")
	}
	if res.Skipped["small"]["SupPrune"] {
		t.Errorf("SupPrune should run for small")
	}
	if !strings.Contains(res.Render(), "Figure 13") {
		t.Errorf("render missing title")
	}
}

func TestFigure14(t *testing.T) {
	env := tinyEnv(t)
	res, err := Figure14(context.Background(), env, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seconds["small"]) != 2 {
		t.Fatalf("sweep incomplete: %+v", res.Seconds)
	}
	if !strings.Contains(res.Render(), "Figure 14") {
		t.Errorf("render missing title")
	}
}

func TestTable3(t *testing.T) {
	env := tinyEnv(t)
	res, err := Table3(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	for class, rates := range res.Rates {
		if rates[0] < 0 || rates[0] > 1 || rates[1] < 0 || rates[1] > 1 {
			t.Errorf("%s rates out of range: %v", class, rates)
		}
	}
	if !strings.Contains(res.Render(), "Table 3") {
		t.Errorf("render missing title")
	}
}

func TestFigure15(t *testing.T) {
	env := tinyEnv(t)
	res, err := Figure15(context.Background(), env, []float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seconds["small"]) != 2 {
		t.Fatalf("sweep incomplete")
	}
	if !strings.Contains(res.Render(), "Figure 15") {
		t.Errorf("render missing title")
	}
}

func TestFigure16(t *testing.T) {
	env := tinyEnv(t)
	res, err := Figure16(context.Background(), env, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	ss := res.Seconds["small"]
	if len(ss) != 2 {
		t.Fatalf("sweep incomplete")
	}
	if !strings.Contains(res.Render(), "SYN-2") {
		t.Errorf("render missing dataset names")
	}
}

func TestScaleHelpers(t *testing.T) {
	q := Quick()
	if q.GraphsPerBehavior <= 0 || q.SizeFactor <= 0 {
		t.Errorf("Quick scale degenerate: %+v", q)
	}
	f := Full()
	if f.GraphsPerBehavior != 100 || f.BackgroundGraphs != 10000 {
		t.Errorf("Full scale wrong: %+v", f)
	}
}
