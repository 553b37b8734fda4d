package ingest

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"nodesentry/internal/obs"
)

// TestScraperFailsOverLimitBody pins "bounded, never silently": a scrape
// body one byte past MaxBodyBytes fails the scrape whole. Here the cut
// would fall inside a value — 123456 read as 12345 — and still parse, so
// a reader that truncates ingests a smaller, wrong scrape.
func TestScraperFailsOverLimitBody(t *testing.T) {
	const body = "cpu{node=\"a\"} 1 60000\ncpu{node=\"a\"} 123456"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, body)
	}))
	defer srv.Close()
	for _, tc := range []struct {
		name     string
		limit    int64
		samples  int
		failures int64
		events   int
	}{
		{"at the limit", int64(len(body)), 2, 0, 3},
		{"one byte over", int64(len(body)) - 1, 0, 1, 0},
	} {
		sink := &recordSink{}
		reg := obs.NewRegistry()
		sc := NewScraper(testDecoder(sink, reg), ScrapeConfig{
			Targets: []string{srv.URL}, MaxBodyBytes: tc.limit, Metrics: reg,
		})
		if n := sc.Sweep(context.Background()); n != tc.samples {
			t.Errorf("%s: ingested %d samples, want %d", tc.name, n, tc.samples)
		}
		if v := reg.Counter("nodesentry_scrape_failures_total").Value(); v != tc.failures {
			t.Errorf("%s: scrape failures = %d, want %d", tc.name, v, tc.failures)
		}
		if v := reg.Counter("nodesentry_intake_samples_total").Value(); v != int64(tc.samples) {
			t.Errorf("%s: samples counter = %d, want %d", tc.name, v, tc.samples)
		}
		if got := sink.all(); len(got) != tc.events {
			t.Errorf("%s: sink saw %q, want %d events", tc.name, got, tc.events)
		}
	}
}
