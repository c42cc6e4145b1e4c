package main

import (
	"slices"
	"testing"
)

func TestSelectExhibits(t *testing.T) {
	all, err := selectExhibits("")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ten exhibits in run order, then the constraints exhibit.
	want := []string{
		"table1", "table2", "figure10", "figure11", "figure12", "figure13",
		"figure14", "table3", "figure15", "figure16", "constraints",
	}
	if got := names(all); !slices.Equal(got, want) {
		t.Fatalf("empty selection = %v, want %v", got, want)
	}

	// Table order, not the order given; surrounding whitespace is trimmed.
	got, err := selectExhibits(" figure13 ,table3,  table1")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"table1", "figure13", "table3"}; !slices.Equal(names(got), want) {
		t.Fatalf("selection = %v, want %v", names(got), want)
	}

	for _, only := range []string{"nosuch", "table1,serve", "table1,", "table"} {
		if got, err := selectExhibits(only); err == nil {
			t.Errorf("selectExhibits(%q) = %v, want an error", only, names(got))
		}
	}
}
