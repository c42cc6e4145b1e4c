package serve

import (
	"encoding/json"
	"io"
	"testing"
)

// BenchmarkServeStream measures the per-match cost of the query streaming
// hot path: one op renders 64 MatchRecord lines plus the terminal QueryDone.
// "json" is the pre-PR-10 implementation (encoding/json per line); "ndjson"
// is the pooled hand-rolled encoder the handlers use now, which must come in
// at >=2x fewer allocs per match (in practice: zero once the pooled buffer
// is warm). Byte-identity of the two renderings is pinned by
// TestNDJSONMatchesStdlib and the HTTP differential tests. The end-to-end
// view is tgbench's serve.cached_reply_ns_per_match; the PR 10 record is in
// the README's "Benchmark history" table.
func BenchmarkServeStream(b *testing.B) {
	matches := make([]MatchRecord, 64)
	for i := range matches {
		matches[i] = MatchRecord{Start: int64(i * 10), End: int64(i*10 + 7)}
	}
	done := QueryDone{Done: true, Matches: len(matches), Cut: "1.0.40/0.0.24"}

	b.Run("encoder=json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := json.NewEncoder(io.Discard)
			for _, m := range matches {
				if err := enc.Encode(m); err != nil {
					b.Fatal(err)
				}
			}
			if err := enc.Encode(done); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoder=ndjson", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lw := newLineWriter(io.Discard)
			for _, m := range matches {
				if err := lw.writeMatch(m); err != nil {
					b.Fatal(err)
				}
			}
			if err := lw.writeDone(done); err != nil {
				b.Fatal(err)
			}
			lw.release()
		}
	})
}
