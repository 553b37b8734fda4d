package runtime

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nodesentry/internal/core"
	"nodesentry/internal/obs"
	"nodesentry/internal/telemetry"
)

// TestMonitorMetricsExposed replays the fixture dataset through an
// instrumented monitor and scrapes the registry over HTTP — the §5.1 loop
// where Prometheus collects from the detector itself. The acceptance bar:
// at least 10 distinct metric series, including ingest/drop counts, the
// score-latency histogram, per-node threshold gauges, and alert counts.
func TestMonitorMetricsExposed(t *testing.T) {
	ds, det := fixture(t)
	reg := obs.NewRegistry()
	m, err := NewMonitor(det, Config{Step: ds.Step, ScoringWorkers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	alerts := Replay(ds, m, ds.SplitTime(), ds.Horizon)
	if len(alerts) == 0 {
		t.Fatal("no alerts on a fault-injected test window")
	}

	srv := httptest.NewServer(obs.Handler(reg, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // body fully read; close error is inert
	if err != nil {
		t.Fatal(err)
	}
	series, err := telemetry.ParseSeries(string(body))
	if err != nil {
		t.Fatalf("parse self-scrape: %v\n%s", err, body)
	}
	sm := telemetry.SeriesMap(series)

	distinct := 0
	for _, s := range series {
		if strings.HasPrefix(s.Name, "nodesentry_") {
			distinct++
		}
	}
	if distinct < 10 {
		t.Fatalf("self-scrape exposes %d nodesentry series, want >= 10:\n%s", distinct, body)
	}

	var samples int
	for _, f := range ds.TestFrames() {
		samples += f.Len()
	}
	if got := sm["nodesentry_ingest_samples_total"]; got != float64(samples) {
		t.Errorf("ingest counter = %v, want %d", got, samples)
	}
	warn := sm[`nodesentry_alerts_total{priority="warning"}`]
	crit := sm[`nodesentry_alerts_total{priority="critical"}`]
	if int(warn+crit) != len(alerts)+int(m.Dropped()) {
		t.Errorf("alert counters %v+%v != %d delivered + %d dropped", warn, crit, len(alerts), m.Dropped())
	}
	if got := sm["nodesentry_alerts_delivered_total"]; got != float64(len(alerts)) {
		t.Errorf("delivered counter = %v, want %d", got, len(alerts))
	}
	if got := sm["nodesentry_alerts_dropped_total"]; got != float64(m.Dropped()) {
		t.Errorf("dropped counter = %v, want %d", got, m.Dropped())
	}
	if sm["nodesentry_score_latency_seconds_count"] <= 0 {
		t.Error("score latency histogram never observed")
	}
	if sm["nodesentry_score_latency_seconds_count"] != sm["nodesentry_windows_scored_total"] {
		t.Error("score latency count != windows scored")
	}
	if got := sm["nodesentry_nodes"]; got != float64(len(ds.Nodes())) {
		t.Errorf("nodes gauge = %v, want %d", got, len(ds.Nodes()))
	}
	// Every node that scored a window publishes a live threshold gauge.
	for _, st := range m.Snapshot() {
		if st.Consumed == 0 {
			continue
		}
		key := fmt.Sprintf(`nodesentry_threshold_value{node=%q}`, st.Node)
		if _, ok := sm[key]; !ok {
			t.Errorf("missing threshold gauge %s", key)
		}
	}
}

// TestThresholdGaugeIsNextSampleBound pins what nodesentry_threshold_value
// (and NodeStatus.Threshold) means: the exact bound core.KSigmaThreshold
// holds the node's next score to. A next score equal to the gauge does not
// alert; the next float64 above it does.
func TestThresholdGaugeIsNextSampleBound(t *testing.T) {
	ds, det := fixture(t)
	reg := obs.NewRegistry()
	m, err := NewMonitor(det, Config{Step: ds.Step, ScoringWorkers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	Replay(ds, m, ds.SplitTime(), ds.Horizon)
	winSec, k := det.OnlineParams()
	checked := 0
	for _, status := range m.Snapshot() {
		if status.Consumed == 0 {
			continue
		}
		thr := reg.Gauge("nodesentry_threshold_value", "node", status.Node).Value()
		if thr != status.Threshold {
			t.Errorf("%s: gauge %v, NodeStatus.Threshold %v", status.Node, thr, status.Threshold)
		}
		st := m.nodes[status.Node]
		hist := append(append([]float64(nil), st.scores...), 0)
		last := len(hist) - 1
		hist[last] = thr
		if core.KSigmaThreshold(hist, ds.Step, winSec, k)[last] {
			t.Errorf("%s: a next score equal to the gauge (%v) alerts", status.Node, thr)
		}
		hist[last] = math.Nextafter(thr, math.Inf(1))
		if !core.KSigmaThreshold(hist, ds.Step, winSec, k)[last] {
			t.Errorf("%s: the next score above the gauge (%v) does not alert", status.Node, thr)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no node scored a window; the check is vacuous")
	}
}

// TestReplayIdenticalWithObsOnOff asserts the acceptance criterion that
// instrumentation is observation only: the alert stream is byte-identical
// whether or not a registry (and logger) is attached.
func TestReplayIdenticalWithObsOnOff(t *testing.T) {
	ds, det := fixture(t)
	run := func(reg *obs.Registry) string {
		m, err := NewMonitor(det, Config{Step: ds.Step, ScoringWorkers: 2, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		alerts := Replay(ds, m, ds.SplitTime(), ds.Horizon)
		var b strings.Builder
		for _, a := range alerts {
			fmt.Fprintf(&b, "%+v\n", a)
		}
		return b.String()
	}
	off := run(nil)
	on := run(obs.NewRegistry())
	if off != on {
		t.Fatalf("alert streams diverge with observability on:\n--- off ---\n%s--- on ---\n%s", off, on)
	}
	if off == "" {
		t.Fatal("empty alert stream cannot witness equivalence")
	}
}

// TestSnapshotDroppedAndScoreLag covers the ROADMAP note on cross-node
// operator invariants: per-node drop counts must reconcile with the global
// Dropped(), and ScoreLagSec must expose how far scoring trails ingestion.
func TestSnapshotDroppedAndScoreLag(t *testing.T) {
	ds, det := fixture(t)
	// A 1-slot alert buffer that nobody consumes plus a 1-second cooldown
	// forces drops on any node raising more than one alert.
	m, err := NewMonitor(det, Config{Step: ds.Step, ScoringWorkers: 2, AlertBuffer: 1, CooldownSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range ds.Nodes() {
		f := ds.Frames[node]
		view := f.Slice(f.IndexOf(ds.SplitTime()), f.IndexOf(ds.Horizon))
		m.RegisterNode(node, view.Metrics)
		spans := ds.SpansForNode(node, ds.SplitTime(), ds.Horizon)
		si := 0
		for i := 0; i < view.Len(); i++ {
			ts := view.TimeAt(i)
			for si < len(spans) && spans[si].Start <= ts {
				m.ObserveJob(node, spans[si].Job, spans[si].Start)
				si++
			}
			m.Ingest(node, ts, view.Window(i))
		}
	}
	snap := m.Snapshot()
	var perNode int64
	for _, st := range snap {
		perNode += st.Dropped
		if st.ScoreLagSec < 0 {
			t.Errorf("node %s: negative score lag %d", st.Node, st.ScoreLagSec)
		}
		if st.Matched && st.Consumed > 0 {
			// With everything ingested, the lag is exactly the buffered
			// samples awaiting the next full window.
			if want := int64(st.Buffered) * ds.Step; st.ScoreLagSec != want {
				t.Errorf("node %s: lag = %ds, want %ds (%d buffered)", st.Node, st.ScoreLagSec, want, st.Buffered)
			}
		}
	}
	if perNode != m.Dropped() {
		t.Errorf("per-node dropped sums to %d, global Dropped() = %d", perNode, m.Dropped())
	}
	if m.Dropped() == 0 {
		t.Error("expected drops with an unconsumed 1-slot alert buffer")
	}
}
