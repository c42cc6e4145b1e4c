package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. Start and End are nanoseconds since the
// tracer was created; Parent is the ID of the span that caused this one (-1
// for a root); spans of one request share Request.
//
// Every span is recorded from the harness's own files, around a call into a
// layer's public entry point. A child layer the harness cannot reach inside
// its parent's call (serve.decode inside serve.handler, say) is measured by
// replaying the same request against that layer on a twin instance, so a
// child's clock interval does not lie inside its parent's: the link is the
// Parent field, and self time is computed from durations.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is the
// untraced run: begin and end do nothing, so the end-to-end pass pays one
// nil check per request.
type tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	requests int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newRequest returns the next request identifier.
func (t *tracer) newRequest() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	return t.requests
}

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: now, Parent: parent, Request: request})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime is a layer's traced time: Total sums its spans, Self subtracts
// from each span the durations of the child spans it caused.
type layerTime struct {
	Count int           `json:"count"`
	Total time.Duration `json:"totalNs"`
	Self  time.Duration `json:"selfNs"`
}

// layers folds the spans into per-name totals.
func (t *tracer) layers() map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.Count++
		d := s.End - s.Start
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(max(d-children[s.ID], 0))
		out[s.Name] = lt
	}
	return out
}

// writeFile writes the spans as JSON lines, one span per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	return errors.Join(err, f.Close())
}
