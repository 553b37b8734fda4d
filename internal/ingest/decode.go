package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"slices"
	"sync"
	"time"

	"nodesentry/internal/obs"
	"nodesentry/internal/telemetry"
)

// DecoderConfig parameterizes a Decoder.
type DecoderConfig struct {
	// Metrics, when non-nil, receives decode counters (samples, jobs,
	// parse errors, auto-registrations, clock fallbacks).
	Metrics *obs.Registry
	// Logger, when non-nil, receives decode warnings.
	Logger *slog.Logger
	// Now supplies fallback timestamps (Unix seconds) for samples whose
	// wire form carried none. Defaults to the wall clock; tests inject.
	Now func() int64
}

// Decoder turns wire telemetry — Prometheus text exposition or JSONL
// batches — into Sink calls. It remembers each node's ordered metric
// layout: layouts arrive explicitly (Register, or a JSONL metrics
// line), and a sample for an unknown node auto-registers its sorted
// metric names. Exposition samples are written by name into the layout's
// columns, with NaN for metrics a scrape dropped; JSONL samples are
// positional. Safe for concurrent use; per-node event order follows call
// order (Intake and Scraper push bodies in order).
type Decoder struct {
	sink Sink
	cfg  DecoderConfig

	mu      sync.Mutex
	layouts map[string]layout

	samples       *obs.Counter
	jobs          *obs.Counter
	parseErrs     *obs.Counter
	autoReg       *obs.Counter
	skipped       *obs.Counter
	unknown       *obs.Counter
	clockFallback *obs.Counter
	shape         *obs.Counter
}

// layout is a node's name and ordered metric names plus the name →
// column index built once, when the layout is declared. A name declared
// twice fills its first column only. node is the string a JSONL line
// for the node passes on, so that decoding one allocates no name.
type layout struct {
	node  string
	names []string
	col   map[string]int
}

func newLayout(node string, names []string) layout {
	col := make(map[string]int, len(names))
	for i, name := range names {
		if _, dup := col[name]; !dup {
			col[name] = i
		}
	}
	return layout{node: node, names: names, col: col}
}

// NewDecoder wraps a sink.
func NewDecoder(sink Sink, cfg DecoderConfig) *Decoder {
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().Unix() }
	}
	r := cfg.Metrics
	return &Decoder{
		sink:          sink,
		cfg:           cfg,
		layouts:       map[string]layout{},
		samples:       r.Counter("nodesentry_intake_samples_total"),
		jobs:          r.Counter("nodesentry_intake_jobs_total"),
		parseErrs:     r.Counter("nodesentry_intake_parse_errors_total"),
		autoReg:       r.Counter("nodesentry_intake_autoregistered_total"),
		skipped:       r.Counter("nodesentry_intake_skipped_series_total"),
		unknown:       r.Counter("nodesentry_intake_unknown_metrics_total"),
		clockFallback: r.Counter("nodesentry_intake_clock_fallback_total"),
		shape:         r.Counter("nodesentry_intake_shape_mismatch_total"),
	}
}

// Register declares a node's ordered metric layout ahead of samples —
// what cmd/sentryd does for every node of its training dataset, so
// exposition pushes score against the exact layout the detector was
// trained on rather than an auto-registered sorted one.
func (d *Decoder) Register(node string, metrics []string) {
	l := newLayout(node, append([]string(nil), metrics...))
	d.mu.Lock()
	d.layouts[node] = l
	d.mu.Unlock()
	d.sink.RegisterNode(node, l.names)
}

// PushExposition decodes one Prometheus text body. Series need a node
// label (others are counted and skipped — a self-scrape of the obs
// registry decodes to nothing, harmlessly); consecutive series sharing
// (node, timestamp) form one sample vector, and JobTransitionSeries
// lines become ObserveJob calls in body order. The body is parsed whole
// first: one that returns an error has touched the sink not at all.
// Returns the number of samples ingested.
func (d *Decoder) PushExposition(text string) (int, error) {
	series, err := telemetry.ParseSeries(text)
	if err != nil {
		d.parseErrs.Inc()
		return 0, err
	}
	var (
		n     int
		vec   []float64    // this call's scratch: see Sink.Ingest on ownership
		node  string       // the open sample's node
		group = series[:0] // the open sample's series, compacted in place
	)
	flush := func() {
		if len(group) == 0 {
			return
		}
		vec = d.fitByName(vec, node, group)
		d.sink.Ingest(node, d.seconds(group[0].TimeMs), vec)
		d.samples.Inc()
		n++
		group = group[:0]
	}
	for _, s := range series {
		sn := telemetry.LabelValue(s.Labels, "node")
		switch {
		case sn == "":
			d.skipped.Inc()
		case s.Name == JobTransitionSeries:
			flush()
			d.sink.ObserveJob(sn, int64(s.Value), d.seconds(s.TimeMs))
			d.jobs.Inc()
		default:
			if len(group) > 0 && (sn != node || s.TimeMs != group[0].TimeMs) {
				flush()
			}
			node = sn
			group = append(group, s)
		}
	}
	flush()
	return n, nil
}

// seconds converts an exposition timestamp to Unix seconds; a line that
// carried none takes the clock, counted.
func (d *Decoder) seconds(ms int64) int64 {
	if ms == 0 {
		d.clockFallback.Inc()
		return d.cfg.Now()
	}
	return ms / 1000
}

// nanVec resizes the scratch vector to n columns, all NaN (a dropped
// collector), allocating only when it has to grow.
func nanVec(vec []float64, n int) []float64 {
	if cap(vec) < n {
		vec = make([]float64, n)
	}
	vec = vec[:n]
	for i := range vec {
		vec[i] = math.NaN()
	}
	return vec
}

// fitByName writes one exposition sample into the node's layout by
// column: a repeated series keeps its last value, and a series whose name
// the layout lacks is counted, not ingested.
func (d *Decoder) fitByName(vec []float64, node string, group []telemetry.Series) []float64 {
	l := d.layoutOf(node, group)
	vec = nanVec(vec, len(l.names))
	for _, s := range group {
		if c, ok := l.col[s.Name]; ok {
			vec[c] = s.Value
		} else {
			d.unknown.Inc()
		}
	}
	return vec
}

// fitByPosition fits one JSONL sample, in place, to its node's declared
// width: missing trailing columns become NaN (a dropped collector) and
// extra ones are cut, both counted. Without this a hostile or buggy agent
// pushing a short vector for a registered node would reach frame
// assembly with the wrong width. Unregistered nodes pass through at
// their own width — the monitor discards their samples as unregistered.
// It returns the node's name (see declared) and the fitted vector.
func (d *Decoder) fitByPosition(node []byte, vec []float64) (string, []float64) {
	name, l, known := d.declared(node)
	if !known || len(vec) == len(l.names) {
		return name, vec
	}
	d.shape.Inc()
	if d.cfg.Logger != nil {
		d.cfg.Logger.Warn("sample shape mismatch", "node", name,
			"got", len(vec), "want", len(l.names))
	}
	for len(vec) < len(l.names) {
		vec = append(vec, math.NaN())
	}
	return name, vec[:len(l.names)]
}

// declared looks a node up without allocating. A declared node's name is
// its layout's own string; any other is copied out of the line.
func (d *Decoder) declared(node []byte) (string, layout, bool) {
	d.mu.Lock()
	l, ok := d.layouts[string(node)]
	d.mu.Unlock()
	if !ok {
		return string(node), l, false
	}
	return l.node, l, true
}

// layoutOf returns the node's layout, auto-registering the sorted,
// de-duplicated metric names of this first sample for nodes never
// declared.
func (d *Decoder) layoutOf(node string, group []telemetry.Series) layout {
	d.mu.Lock()
	if l, ok := d.layouts[node]; ok {
		d.mu.Unlock()
		return l
	}
	names := make([]string, len(group))
	for i, s := range group {
		names[i] = s.Name
	}
	slices.Sort(names)
	l := newLayout(node, slices.Compact(names))
	d.layouts[node] = l
	d.mu.Unlock()
	d.autoReg.Inc()
	if d.cfg.Logger != nil {
		d.cfg.Logger.Debug("auto-registered node", "node", node, "metrics", len(l.names))
	}
	d.sink.RegisterNode(node, l.names)
	return l
}

// PushJSONL decodes a stream of Line records (see Line for the wire
// shapes). Lines are applied as they decode; the first malformed line
// aborts with its line number, everything before it already ingested.
// Each line is scanned in one pass when it is in the Forwarder's
// canonical form (jsonlLine.scan) and decoded by encoding/json
// otherwise. Returns the number of sample lines ingested.
func (d *Decoder) PushJSONL(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var l jsonlLine // this call's scratch: see Sink.Ingest on ownership
	n, ln := 0, 0
	for sc.Scan() {
		ln++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if !l.scan(raw) {
			var line Line
			if err := json.Unmarshal(raw, &line); err != nil {
				d.parseErrs.Inc()
				return n, fmt.Errorf("ingest: jsonl line %d: %w", ln, err)
			}
			l.setLine(line)
		}
		switch {
		case len(l.node) == 0:
			d.parseErrs.Inc()
			return n, fmt.Errorf("ingest: jsonl line %d: missing node", ln)
		case len(l.metrics) > 0:
			d.Register(string(l.node), l.metrics)
		case l.hasJob:
			node, _, _ := d.declared(l.node)
			d.sink.ObserveJob(node, l.job, l.start)
			d.jobs.Inc()
		case l.hasValues:
			ts := l.time
			if ts == 0 {
				ts = d.cfg.Now()
				d.clockFallback.Inc()
			}
			var node string
			node, l.values = d.fitByPosition(l.node, l.values)
			d.sink.Ingest(node, ts, l.values)
			d.samples.Inc()
			n++
		default:
			d.parseErrs.Inc()
			return n, fmt.Errorf("ingest: jsonl line %d: no metrics, job, or values", ln)
		}
	}
	if err := sc.Err(); err != nil {
		d.parseErrs.Inc()
		return n, fmt.Errorf("ingest: jsonl: %w", err)
	}
	return n, nil
}
