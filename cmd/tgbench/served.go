package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"

	"tgminer"
	"tgminer/internal/serve"
)

// served is one server under test: serve.New over a live engine, mounted on
// an httptest server in this process, with the keep-alive client the load
// goroutines share.
type served struct {
	eng    *tgminer.LiveEngine
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func newServed(shards int, wm serve.Watermarks) *served {
	eng := tgminer.NewLiveEngine(nil, tgminer.LiveOptions{Shards: shards})
	// The server logs a line per client that closes early; the harness
	// never does, and its own report is the place for failures.
	srv := serve.New(serve.Config{Engine: eng, Watermarks: wm, Logger: log.New(io.Discard, "", 0)})
	ts := httptest.NewServer(srv.Handler())
	return &served{eng: eng, srv: srv, ts: ts, client: ts.Client()}
}

func (s *served) close() { s.ts.Close() }

// post sends one request and reads the whole reply into buf, returning the
// status code; buf is the caller's, one per load goroutine.
func (s *served) post(path string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := s.client.Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("read reply: %w", err)
	}
	return resp.StatusCode, nil
}

// query posts one query body to q's endpoint and leaves the NDJSON stream
// in buf; any status but 200 is an error carrying the reply.
func (s *served) query(q *query, body []byte, buf *bytes.Buffer) error {
	status, err := s.post(q.Path, body, buf)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	return err
}

func (s *served) statsz() (serve.StatszResponse, error) {
	var st serve.StatszResponse
	resp, err := s.client.Get(s.ts.URL + "/v1/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return st, fmt.Errorf("read statsz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statsz: status %d", resp.StatusCode)
	}
	return st, strictUnmarshal(buf.Bytes(), &st)
}

// ingest posts one /v1/events body and checks the reply: 200 and every
// event of the batch appended.
func (s *served) ingest(body []byte, events int, buf *bytes.Buffer) (serve.IngestResponse, error) {
	var ir serve.IngestResponse
	status, err := s.post("/v1/events", body, buf)
	if err != nil {
		return ir, err
	}
	if err := strictUnmarshal(buf.Bytes(), &ir); err != nil {
		return ir, fmt.Errorf("ingest reply (status %d): %w", status, err)
	}
	switch {
	case status != http.StatusOK:
		return ir, fmt.Errorf("ingest status %d: %s", status, ir.Error)
	case ir.Appended != events:
		return ir, fmt.Errorf("ingest appended %d of %d events", ir.Appended, events)
	}
	return ir, nil
}
