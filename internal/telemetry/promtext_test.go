package telemetry

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nodesentry/internal/mts"
)

func scrapeFrame() *mts.NodeFrame {
	return &mts.NodeFrame{
		Node:    "cn-0042",
		Metrics: []string{"node_cpu_busy_total", "node_mem_used_total"},
		Data: [][]float64{
			{12.5, math.NaN(), 99},
			{3e9, 4e9, 5e9},
		},
		Start: 1700000000,
		Step:  60,
	}
}

func TestFormatParseScrapeRoundTrip(t *testing.T) {
	f := scrapeFrame()
	series, err := ParseSeries(FormatScrape(f, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := []Series{
		{Name: "node_cpu_busy_total", Labels: `{node="cn-0042"}`, Value: 12.5, TimeMs: f.TimeAt(0) * 1000},
		{Name: "node_mem_used_total", Labels: `{node="cn-0042"}`, Value: 3e9, TimeMs: f.TimeAt(0) * 1000},
	}
	if len(series) != len(want) {
		t.Fatalf("parsed %d series, want %d: %+v", len(series), len(want), series)
	}
	for i := range want {
		if series[i] != want[i] {
			t.Errorf("series %d = %+v, want %+v", i, series[i], want[i])
		}
	}
	if got := LabelValue(series[0].Labels, "node"); got != "cn-0042" {
		t.Errorf("node label = %q", got)
	}
}

func TestFormatScrapeOmitsNaN(t *testing.T) {
	f := scrapeFrame()
	text := FormatScrape(f, 1) // cpu sample missing
	if strings.Contains(text, "node_cpu_busy_total{") {
		t.Error("NaN sample was exported")
	}
	series, err := ParseSeries(text)
	if err != nil {
		t.Fatal(err)
	}
	// The hole stays a hole on the wire; ingest.Decoder restores the
	// layout with NaN in it (TestDecoderVectorNaNSemantics).
	if len(series) != 1 || series[0].Name != "node_mem_used_total" || series[0].Value != 4e9 {
		t.Errorf("series = %+v, want node_mem_used_total alone", series)
	}
}

// TestParseScrapeErrors pins what a malformed scrape body is rejected
// with: the 1-based line number counts comment and blank lines, and the
// message names the offending field.
func TestParseScrapeErrors(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{"node_x{node=\"a\"} notanumber 1000", `telemetry: series line 1: bad value "notanumber"`},
		{"# c\n\nnode_x{node=\"a\" 1 1000", `telemetry: series line 3: unterminated labels`},
		{"ok 1\nnode_x", `telemetry: series line 2: no value`},
		{"ok 1\r\nnode_x{node=\"a\"} 1 xx\n", `telemetry: series line 2: bad timestamp "xx"`},
		{"node_x{node=\"a\"}\t1\t2\t3", `telemetry: series line 1: want value [timestamp]`},
		{"node_x{node=\"a\"}   ", `telemetry: series line 1: want value [timestamp]`},
	} {
		series, err := ParseSeries(tc.body)
		if err == nil || err.Error() != tc.want {
			t.Errorf("ParseSeries(%q) error = %v, want %s", tc.body, err, tc.want)
		}
		if series != nil {
			t.Errorf("ParseSeries(%q) returned %d series beside its error", tc.body, len(series))
		}
	}
}

func TestParseScrapeBareMetric(t *testing.T) {
	series, err := ParseSeries("up 1 1700000000000\n")
	if err != nil {
		t.Fatal(err)
	}
	if want := (Series{Name: "up", Value: 1, TimeMs: 1700000000000}); len(series) != 1 || series[0] != want {
		t.Errorf("series = %+v, want %+v", series, want)
	}
}

func TestScrapeIntoMonitorVector(t *testing.T) {
	// End-to-end: generated frame -> exposition text -> parsed series
	// carrying the frame's own columns, in the frame's order.
	g := &Generator{Catalog: BuildCatalog(CatalogOptions{Cores: 1}), Step: 60, Seed: 3, NoiseStd: 0}
	spans := []mts.JobSpan{{Job: 1, Start: 0, End: 600}}
	f := g.Generate("cn-1", spans, map[int64]string{1: "cfd"}, 10, nil)
	series, err := ParseSeries(FormatScrape(f, 4))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for m, name := range f.Metrics {
		want := f.Data[m][4]
		if math.IsNaN(want) {
			continue // omitted from the scrape
		}
		if next == len(series) {
			t.Fatalf("scrape ends before metric %s", name)
		}
		s := series[next]
		next++
		// 'g' -1 formatting round-trips a float64 exactly.
		if s.Name != name || math.Float64bits(s.Value) != math.Float64bits(want) {
			t.Fatalf("metric %d: series %+v, want %s = %v", m, s, name, want)
		}
	}
	if next != len(series) {
		t.Errorf("scrape carries %d series beyond the frame's", len(series)-next)
	}
}

// TestParseSeriesAllocations pins the in-place line and field cutting: a
// body costs the growth of the returned slice and nothing per line.
func TestParseSeriesAllocations(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "metric_%03d{node=\"cn-1\"} %d.5 60000\n", i, i)
	}
	body := b.String()
	allocs := testing.AllocsPerRun(20, func() {
		if series, err := ParseSeries(body); err != nil || len(series) != 1000 {
			t.Fatalf("parsed %d series, err %v", len(series), err)
		}
	})
	if allocs > 32 {
		t.Errorf("ParseSeries of a 1,000-line body: %v allocations, want <= 32", allocs)
	}
}
