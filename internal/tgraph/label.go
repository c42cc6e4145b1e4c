// Package tgraph defines the temporal graph and temporal graph pattern data
// model from Zong et al., "Behavior Query Discovery in System-Generated
// Temporal Graphs" (VLDB 2015).
//
// A temporal graph G = (V, E, A, T) has labeled nodes and directed edges that
// carry timestamps under a total order. A temporal graph pattern is a
// temporal graph whose timestamps are exactly 1..|E|; only the relative edge
// order is meaningful. The package provides construction, validation
// (T-connectivity), pattern equality (Lemma 2), canonical keys, and the
// sequentialization transform for concurrent edges (Section 5 of the paper).
package tgraph

import "fmt"

// Label is an interned node label. Labels are interned through a Dict so
// that graphs and patterns can compare labels as integers.
type Label int32

// NoLabel is the zero value returned for unknown label names.
const NoLabel Label = -1

// Dict interns label strings to dense Label identifiers. A Dict is shared by
// all graphs of a dataset so that labels are comparable across graphs.
//
// Dict is not safe for concurrent mutation; Intern must be externally
// synchronized if used from multiple goroutines. Lookup methods are safe once
// interning has stopped.
type Dict struct {
	byName map[string]Label
	names  []string
}

// NewDict returns an empty label dictionary.
func NewDict() *Dict {
	return &Dict{byName: make(map[string]Label)}
}

// Intern returns the Label for name, assigning a fresh identifier on first
// use.
func (d *Dict) Intern(name string) Label {
	if l, ok := d.byName[name]; ok {
		return l
	}
	l := Label(len(d.names))
	d.byName[name] = l
	d.names = append(d.names, name)
	return l
}

// Lookup returns the Label for name, or NoLabel if name was never interned.
func (d *Dict) Lookup(name string) Label {
	if l, ok := d.byName[name]; ok {
		return l
	}
	return NoLabel
}

// Name returns the string for l. It panics if l was not produced by this
// Dict.
func (d *Dict) Name(l Label) string {
	if int(l) < 0 || int(l) >= len(d.names) {
		panic(fmt.Sprintf("tgraph: label %d out of range (dict has %d labels)", l, len(d.names)))
	}
	return d.names[l]
}

// Len reports the number of interned labels.
func (d *Dict) Len() int { return len(d.names) }

// Names returns all interned names ordered by Label value. The returned
// slice must not be modified.
func (d *Dict) Names() []string { return d.names }
