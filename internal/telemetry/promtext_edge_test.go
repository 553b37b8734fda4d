package telemetry

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// These tests pin ParseSeries' behavior on the rough edges of the text
// exposition format: real exporters emit NaN/Inf samples, mangled label
// bytes and truncated bodies, and the gateway feeds whatever it scrapes
// straight through this parser.

func TestParseSeriesTimestamps(t *testing.T) {
	series, err := ParseSeries(strings.Join([]string{
		`a{node="n"} 1 60000`,
		`b{node="n"} 2`,
		`c 3 -250`,
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("parsed %d series, want 3", len(series))
	}
	if series[0].TimeMs != 60000 {
		t.Errorf("a TimeMs = %d, want 60000", series[0].TimeMs)
	}
	if series[1].TimeMs != 0 {
		t.Errorf("timestamp-free line TimeMs = %d, want 0", series[1].TimeMs)
	}
	if series[2].TimeMs != -250 {
		t.Errorf("negative TimeMs = %d, want -250", series[2].TimeMs)
	}
}

func TestParseSeriesSpecialValues(t *testing.T) {
	// strconv.ParseFloat accepts the exposition spellings of the IEEE
	// specials, so scrapes of crashed collectors still parse.
	series, err := ParseSeries("a NaN\nb +Inf\nc -Inf\n")
	if err != nil {
		t.Fatal(err)
	}
	m := SeriesMap(series)
	if !math.IsNaN(m["a"]) {
		t.Errorf("a = %v, want NaN", m["a"])
	}
	if !math.IsInf(m["b"], 1) || !math.IsInf(m["c"], -1) {
		t.Errorf("b = %v, c = %v, want ±Inf", m["b"], m["c"])
	}
	// A finite spelling that overflows float64 is a parse error, not a
	// silent Inf.
	if _, err := ParseSeries("d 1e400\n"); err == nil {
		t.Error("out-of-range value accepted")
	}
}

func TestParseSeriesBadUTF8Labels(t *testing.T) {
	// The parser is byte-oriented: label values that are not valid UTF-8
	// pass through unmangled rather than erroring or panicking.
	line := "m{node=\"\xff\xfe-broken\"} 1 1000\n"
	series, err := ParseSeries(line)
	if err != nil {
		t.Fatal(err)
	}
	if got := LabelValue(series[0].Labels, "node"); got != "\xff\xfe-broken" {
		t.Errorf("LabelValue = %q", got)
	}
}

func TestParseSeriesTruncatedLines(t *testing.T) {
	for _, bad := range []string{
		"cpu",                   // name only
		"cpu{node=\"a\"",        // unterminated label block
		"cpu{node=\"a\"}",       // no value after labels
		"cpu{node=\"a\"} 1 2 3", // too many fields
		"cpu{node=\"a\"} wat",   // non-numeric value
		"cpu{node=\"a\"} 1 1.5", // fractional timestamp
	} {
		if _, err := ParseSeries(bad); err == nil {
			t.Errorf("ParseSeries(%q) accepted", bad)
		}
	}
}

func TestParseSeriesDuplicateKeepsLast(t *testing.T) {
	series, err := ParseSeries("x{s=\"0\"} 1\nx{s=\"0\"} 2\nx{s=\"1\"} 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("parsed %d series, want all 3 kept in order", len(series))
	}
	m := SeriesMap(series)
	if m[`x{s="0"}`] != 2 {
		t.Errorf("duplicate key = %v, want the last value 2", m[`x{s="0"}`])
	}
	if m[`x{s="1"}`] != 3 {
		t.Errorf("distinct label set = %v, want 3", m[`x{s="1"}`])
	}
}

func TestLabelValue(t *testing.T) {
	for _, tc := range []struct{ labels, key, want string }{
		{`{node="cn-1",shard="3"}`, "node", "cn-1"},
		{`{node="cn-1",shard="3"}`, "shard", "3"},
		{`{node="cn-1",shard="3"}`, "absent", ""},
		{`{node="unterminated`, "node", ""},
		// The key matches at a label boundary only, never as the suffix of
		// a longer key: federation's exported_node=, k8s_node=, supernode=.
		{`{supernode="rack-7",node="cn-1"}`, "node", "cn-1"},
		{`{exported_node="gw-2",node="cn-1"}`, "node", "cn-1"},
		{`{k8s_node="worker-9",job="x",node="cn-1"}`, "node", "cn-1"},
		{`{supernode="rack-7"}`, "node", ""},
		{`{nodes="4",node="cn-1"}`, "node", "cn-1"},
		// Hand-written bodies put blanks after the separator.
		{`{job="x", node="cn-1"}`, "node", "cn-1"},
		{`{node="",shard="3"}`, "node", ""},
		{``, "node", ""},
	} {
		if got := LabelValue(tc.labels, tc.key); got != tc.want {
			t.Errorf("LabelValue(%s, %q) = %q, want %q", tc.labels, tc.key, got, tc.want)
		}
	}
}

func fuzzSeedBodies() []string {
	return []string{
		"",
		"# TYPE cpu gauge\ncpu{node=\"a\"} 0.5 60000\n",
		"up 1\n",
		"a NaN\nb +Inf\nc -Inf\n",
		"x{s=\"0\"} 1\nx{s=\"0\"} 2\n",
		"m{node=\"\xff\xfe\"} 1 1000\n",
		"cpu{node=\"a\"",
		"cpu{node=\"a\"} 1 1.5",
		"{} 1\n",
		"} 1\n",
		"nodesentry_job_transition{node=\"n\"} 7 120000\n",
		"d 1e400\n",
	}
}

// FuzzParseSeries asserts the parser's hard invariants: it never panics,
// and any body it accepts indexes cleanly through SeriesMap.
func FuzzParseSeries(f *testing.F) {
	for _, seed := range fuzzSeedBodies() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		series, err := ParseSeries(body)
		if err != nil {
			return
		}
		m := SeriesMap(series)
		if len(m) > len(series) {
			t.Fatalf("SeriesMap grew: %d keys from %d series", len(m), len(series))
		}
		for _, s := range series {
			if _, ok := m[s.Key()]; !ok {
				t.Fatalf("series %q missing from its own map", s.Key())
			}
			_ = LabelValue(s.Labels, "node")
		}
	})
}

// FuzzParseScrape pins the scrape round trip on arbitrary bodies: what
// ParseSeries accepts, rendered back one `name{labels} value [timestamp]`
// line per series the way FormatScrape writes them, parses to the same
// series — names, label strings, value bits and timestamps.
func FuzzParseScrape(f *testing.F) {
	for _, seed := range fuzzSeedBodies() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		series, err := ParseSeries(body)
		if err != nil {
			return
		}
		var b strings.Builder
		for _, s := range series {
			b.WriteString(s.Key() + " " + formatValue(s.Value))
			if s.TimeMs != 0 {
				b.WriteString(" " + strconv.FormatInt(s.TimeMs, 10))
			}
			b.WriteByte('\n')
		}
		again, err := ParseSeries(b.String())
		if err != nil {
			t.Fatalf("re-rendered body %q rejected: %v", b.String(), err)
		}
		if len(again) != len(series) {
			t.Fatalf("%d series re-parsed from %d", len(again), len(series))
		}
		for i, s := range series {
			a := again[i]
			if a.Name != s.Name || a.Labels != s.Labels || a.TimeMs != s.TimeMs ||
				math.Float64bits(a.Value) != math.Float64bits(s.Value) {
				t.Fatalf("series %d: %+v re-parsed as %+v", i, s, a)
			}
		}
	})
}
