package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"tgminer/internal/gspan"
	"tgminer/internal/search"
	"tgminer/internal/serve"
	"tgminer/internal/tgraph"
)

// The four query families a run exercises. "constrained" is a temporal
// query with per-hop maxGap constraints; it shares /v1/query/temporal.
var families = []string{"temporal", "constrained", "ntemp", "nodeset"}

// finder is the query surface search.Engine, search.Live and
// search.ShardedLive share: one compiled query, any host.
type finder interface {
	FindTemporalContext(ctx context.Context, p *tgraph.Pattern, opts search.Options) (search.Result, error)
	FindNonTemporalContext(ctx context.Context, p *gspan.Pattern, opts search.Options) (search.Result, error)
	FindLabelSetContext(ctx context.Context, labels []tgraph.Label, opts search.Options) (search.Result, error)
}

// query is one behaviour query in both its forms: the wire request a client
// posts and the in-process pattern the reference engine and the layer
// probes run.
type query struct {
	Family string
	Path   string
	Req    serve.QueryRequest

	pattern *tgraph.Pattern // temporal, constrained
	nt      *gspan.Pattern  // ntemp
	labels  []tgraph.Label  // nodeset
	opts    search.Options

	bodyNoCache, bodyCache []byte

	// The reference answer, and the hash of the match lines of the first
	// reply that equalled it: later replies with the same bytes are
	// accepted without parsing.
	want      []search.Match
	wantTrunc bool
	okHash    uint64
}

func labelNames(dict *tgraph.Dict, ls []tgraph.Label) []string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = dict.Name(l)
	}
	return out
}

func temporalQuery(dict *tgraph.Dict, p *tgraph.Pattern, window int64, limit int, maxGap int64) *query {
	q := &query{Family: "temporal", Path: "/v1/query/temporal", pattern: p,
		opts: search.Options{Window: window, Limit: limit}}
	q.Req = serve.QueryRequest{Nodes: labelNames(dict, p.Labels()), Window: window, Limit: limit}
	for _, e := range p.Edges() {
		q.Req.Edges = append(q.Req.Edges, serve.QueryEdge{Src: int(e.Src), Dst: int(e.Dst)})
	}
	if maxGap > 0 {
		q.Family = "constrained"
		cons := &search.Constraints{Hops: make([]search.HopConstraint, p.NumEdges())}
		q.Req.Hops = make([]serve.HopSpec, p.NumEdges())
		for i := 1; i < p.NumEdges(); i++ {
			cons.Hops[i].MaxGap = maxGap
			q.Req.Hops[i].MaxGap = maxGap
		}
		q.opts.Constraints = cons
	}
	return q
}

func ntempQuery(dict *tgraph.Dict, p *gspan.Pattern, window int64, limit int) *query {
	q := &query{Family: "ntemp", Path: "/v1/query/ntemp", nt: p,
		opts: search.Options{Window: window, Limit: limit}}
	q.Req = serve.QueryRequest{Nodes: labelNames(dict, p.Labels), Window: window, Limit: limit}
	for _, e := range p.E {
		q.Req.Edges = append(q.Req.Edges, serve.QueryEdge{Src: int(e.Src), Dst: int(e.Dst)})
	}
	return q
}

func nodesetQuery(dict *tgraph.Dict, labels []tgraph.Label, window int64, limit int) *query {
	return &query{Family: "nodeset", Path: "/v1/query/nodeset", labels: labels,
		opts: search.Options{Window: window, Limit: limit},
		Req:  serve.QueryRequest{Labels: labelNames(dict, labels), Window: window, Limit: limit}}
}

// find runs the query in process on any host.
func (q *query) find(ctx context.Context, host finder) (search.Result, error) {
	switch q.Family {
	case "ntemp":
		return host.FindNonTemporalContext(ctx, q.nt, q.opts)
	case "nodeset":
		return host.FindLabelSetContext(ctx, q.labels, q.opts)
	}
	return host.FindTemporalContext(ctx, q.pattern, q.opts)
}

// encode renders both request bodies: with the result cache bypassed and
// with it on.
func (q *query) encode() error {
	var err error
	req := q.Req
	if q.bodyCache, err = json.Marshal(req); err != nil {
		return err
	}
	req.NoCache = true
	q.bodyNoCache, err = json.Marshal(req)
	return err
}

// setReference computes the answer every served reply must equal, on the
// static engine.
func (q *query) setReference(ctx context.Context, ref *search.Engine) error {
	res, err := q.find(ctx, ref)
	if err != nil {
		return fmt.Errorf("reference answer: %w", err)
	}
	q.want, q.wantTrunc, q.okHash = sortedMatches(res.Matches), res.Truncated, 0
	return nil
}

func sortedMatches(ms []search.Match) []search.Match {
	out := slices.Clone(ms)
	slices.SortFunc(out, func(a, b search.Match) int {
		if a.Start != b.Start {
			return int(a.Start - b.Start)
		}
		return int(a.End - b.End)
	})
	return out
}

// reply is one parsed NDJSON query stream.
type reply struct {
	matches []search.Match
	done    serve.QueryDone
}

// splitReply cuts a stream body into its match lines and its terminal
// line; a body that does not end in a newline-terminated line was cut short.
func splitReply(body []byte) (matchLines, last []byte, err error) {
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return nil, nil, errors.New("stream ended without a terminal line")
	}
	i := bytes.LastIndexByte(body[:len(body)-1], '\n') + 1
	return body[:i], body[i:], nil
}

func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func parseReply(body []byte) (reply, error) {
	var r reply
	lines, last, err := splitReply(body)
	if err != nil {
		return r, err
	}
	if err := strictUnmarshal(last, &r.done); err != nil {
		return r, fmt.Errorf("terminal line: %w", err)
	}
	for len(lines) > 0 {
		i := bytes.IndexByte(lines, '\n')
		var m serve.MatchRecord
		if err := strictUnmarshal(lines[:i], &m); err != nil {
			return r, fmt.Errorf("match line: %w", err)
		}
		r.matches = append(r.matches, search.Match{Start: m.Start, End: m.End})
		lines = lines[i+1:]
	}
	return r, nil
}

// checkDone validates a terminal line on its own: the stream completed,
// without error, and counted the lines it sent.
func checkDone(d serve.QueryDone, lines int) error {
	switch {
	case d.Error != "":
		return fmt.Errorf("stream error: %s", d.Error)
	case !d.Done:
		return errors.New("stream has no done line")
	case d.Matches != lines:
		return fmt.Errorf("done line counts %d matches, stream carried %d", d.Matches, lines)
	}
	return nil
}

// verify checks one reply body against the reference answer and returns the
// terminal line and the number of matches. The first correct body of a
// query is parsed in full and its match lines hashed; a later body with the
// same hash only has its terminal line parsed, which keeps the checking cost
// of the load-generating goroutines well below the cost of the reply.
func (q *query) verify(body []byte) (serve.QueryDone, int, error) {
	lines, last, err := splitReply(body)
	if err != nil {
		return serve.QueryDone{}, 0, err
	}
	h := fnv.New64a()
	h.Write(lines)
	sum := h.Sum64()
	if q.okHash != 0 && sum == q.okHash {
		var d serve.QueryDone
		if err := strictUnmarshal(last, &d); err != nil {
			return d, 0, fmt.Errorf("terminal line: %w", err)
		}
		if err := checkDone(d, len(q.want)); err != nil {
			return d, 0, err
		}
		if d.Truncated != q.wantTrunc {
			return d, 0, fmt.Errorf("truncated=%v, reference says %v", d.Truncated, q.wantTrunc)
		}
		return d, len(q.want), nil
	}
	r, err := parseReply(body)
	if err != nil {
		return r.done, 0, err
	}
	if err := checkDone(r.done, len(r.matches)); err != nil {
		return r.done, 0, err
	}
	if got := sortedMatches(r.matches); !slices.Equal(got, q.want) || r.done.Truncated != q.wantTrunc {
		return r.done, 0, fmt.Errorf("%s answer differs from the static engine: %d matches (truncated=%v), want %d (truncated=%v)",
			q.Family, len(got), r.done.Truncated, len(q.want), q.wantTrunc)
	}
	q.okHash = sum
	return r.done, len(r.matches), nil
}
