package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"nodesentry/internal/mts"
)

// This file implements the Prometheus text exposition format the paper's
// deployment collects metrics through ("Prometheus collects granular
// performance metrics from all nodes"). FormatScrape renders one node's
// sample as a scrape body; ParseSeries reads any exposition body back —
// so the streaming monitor can ingest either simulated frames or real
// node-exporter output (ingest.Decoder maps the series onto node layouts).

// FormatScrape renders the frame's sample at index t as a Prometheus text
// exposition body with millisecond timestamps and a `node` label. Missing
// samples (NaN) are omitted, exactly as a scrape would omit a failed
// collector.
func FormatScrape(f *mts.NodeFrame, t int) string {
	var b strings.Builder
	tsMillis := f.TimeAt(t) * 1000
	for m, name := range f.Metrics {
		v := f.Data[m][t]
		if math.IsNaN(v) {
			continue
		}
		fmt.Fprintf(&b, "# TYPE %s gauge\n", name)
		fmt.Fprintf(&b, "%s{node=%q} %s %d\n", name, f.Node, formatValue(v), tsMillis)
	}
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// splitSeriesLine separates `name{labels}` from the value fields after
// it (labels is "" for a bare metric).
func splitSeriesLine(line string) (name, labels, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	if brace < 0 {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return "", "", "", fmt.Errorf("no value")
		}
		return line[:sp], "", line[sp+1:], nil
	}
	end := strings.IndexByte(line, '}')
	if end < brace {
		return "", "", "", fmt.Errorf("unterminated labels")
	}
	return line[:brace], line[brace : end+1], line[end+1:], nil
}

// cutField peels the next whitespace-separated field off s ("" when none
// is left), in place: a series line is cut without allocating.
func cutField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// Series is one parsed exposition series: the full name{labels} key and
// its value. Node scrapes and NodeSentry's own /metrics endpoint
// (internal/obs) — where several series share a metric name and differ
// only in labels — read back through the same type.
type Series struct {
	// Name is the bare metric name.
	Name string
	// Labels is the canonical `{k="v",…}` string ("" when unlabeled).
	Labels string
	// Value is the sample value.
	Value float64
	// TimeMs is the optional exposition timestamp in milliseconds
	// (0 when the line carried none, as registry expositions do).
	TimeMs int64
}

// Key returns the series' full identity, name plus labels.
func (s Series) Key() string { return s.Name + s.Labels }

// ParseSeries parses a text exposition body into its individual series,
// labels intact — several series may share a metric name and differ only
// in labels, as the per-priority / per-stage series of a registry
// exposition do. Comment lines are skipped; duplicate keys are all
// returned, in body order (SeriesMap keeps the last value, as a scraper
// would). The body is parsed whole before anything is returned, so a
// caller that applies the result never applies part of a rejected body.
func ParseSeries(text string) ([]Series, error) {
	var out []Series
	for ln := 1; text != ""; ln++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, rest, err := splitSeriesLine(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: series line %d: %w", ln, err)
		}
		value, rest := cutField(rest)
		stamp, rest := cutField(rest)
		if extra, _ := cutField(rest); value == "" || extra != "" {
			return nil, fmt.Errorf("telemetry: series line %d: want value [timestamp]", ln)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: series line %d: bad value %q", ln, value)
		}
		var millis int64
		if stamp != "" {
			millis, err = strconv.ParseInt(stamp, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: series line %d: bad timestamp %q", ln, stamp)
			}
		}
		out = append(out, Series{Name: name, Labels: labels, Value: v, TimeMs: millis})
	}
	return out, nil
}

// SeriesMap indexes parsed series by Key for assertion-style lookups.
func SeriesMap(series []Series) map[string]float64 {
	out := make(map[string]float64, len(series))
	for _, s := range series {
		out[s.Key()] = s.Value
	}
	return out
}

// LabelValue extracts one label's value from a canonical `{k="v",…}`
// label string ("" when absent). The key matches only at a label
// boundary — right after `{` or `,`, blanks skipped — so `node` is never
// read out of `supernode=` or Prometheus's own `exported_node=`. It
// assumes values without embedded escaped quotes, which holds for
// everything FormatScrape and the obs registry emit.
func LabelValue(labels, key string) string {
	for {
		i := strings.IndexAny(labels, "{,")
		if i < 0 {
			return ""
		}
		labels = strings.TrimLeft(labels[i+1:], " \t")
		if strings.HasPrefix(labels, key) && strings.HasPrefix(labels[len(key):], `="`) {
			value, _, closed := strings.Cut(labels[len(key)+2:], `"`)
			if !closed {
				return ""
			}
			return value
		}
	}
}
