package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// specPath is BENCHMARK.json seen from this package's directory.
const specPath = "../../BENCHMARK.json"

// TestSpecMatchesHarness holds BENCHMARK.json against what the harness
// implements: workloads, metric names in both modes, the run command.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadBenchSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(raw.Workloads) != len(ws) {
		t.Fatalf("spec lists %d workloads, harness has %d", len(raw.Workloads), len(ws))
	}
	for i, w := range ws {
		if raw.Workloads[i].Name != w.name || raw.Workloads[i].Why != w.why {
			t.Errorf("workload %d: spec %q (%q), harness %q (%q)", i, raw.Workloads[i].Name, raw.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.name)
		}
	}
	names := func(ms []specMetric) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Name
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("end_to_end: spec %v, harness %v", got, endToEndMetrics)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayerMetrics) {
		t.Errorf("per_layer: spec %v, harness %v", got, perLayerMetrics)
	}
	var setup *specMetric
	for i, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, m := range spec.EndToEnd {
		if setup != nil && m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if len(raw.Paths) != 1 || raw.Paths[0] != "bench" {
		t.Errorf("paths = %v", raw.Paths)
	}
	if len(raw.Command) != 2 || raw.Command[0] != "bash" || raw.Command[1] != "bench/run.sh" {
		t.Errorf("command = %v", raw.Command)
	}
	if _, err := os.Stat(filepath.Join("..", "run.sh")); err != nil {
		t.Errorf("command's script: %v", err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// checkResult validates one run's result against the spec's metric list
// for its mode: exactly those names, their units, all finite, and the
// operation counts of a correct run.
func checkResult(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, strings.Join(res.notes, "\n"))
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("result does not marshal: %v", err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range back {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result keys %v", keys)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("run reported %d metrics, spec lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, spec says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func smokeConfig(t *testing.T, w workload, traced bool) runConfig {
	dir := t.TempDir()
	return runConfig{
		w: w, seed: 4, seconds: 1, traced: traced, spoolDir: dir,
		spansPath: filepath.Join(dir, "spans.jsonl"), setupReps: 1, microBudget: 200 * time.Microsecond,
	}
}

// TestSmokeEndToEnd runs a miniature trace through the whole untraced
// path — set-up through daemon.New, paced phase, saturation phase,
// shutdown, reference replay — and validates what it reports.
func TestSmokeEndToEnd(t *testing.T) {
	spec, err := loadBenchSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	formats := []wireFormat{formatJSONL, formatExposition}
	if testing.Short() {
		formats = formats[:1]
	}
	for _, format := range formats {
		w := miniWorkload(format)
		w.alertTier = format == formatExposition
		res, err := run(smokeConfig(t, w, false))
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, spec.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v; they must never be 0", name, m.Value)
			}
		}
	}
}

// TestSmokeTraced does the same for the traced run: the literal daemon
// for the overhead baseline, the hand-wired replica with shims, micro
// rows, and a span file whose every line parses.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke run skipped in -short mode")
	}
	spec, err := loadBenchSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, alertTier := range []bool{false, true} {
		w := miniWorkload(formatJSONL)
		w.alertTier = alertTier
		if alertTier {
			w.batchWindows = 0
		}
		cfg := smokeConfig(t, w, true)
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, spec.PerLayer)

		f, err := os.Open(cfg.spansPath)
		if err != nil {
			t.Fatal(err)
		}
		spans, layers := map[string]int{}, map[string]int{}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var l struct{ Span, Layer string }
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				t.Fatalf("span file line %q: %v", sc.Text(), err)
			}
			if l.Span != "" {
				spans[l.Span]++
			} else {
				layers[l.Layer]++
			}
		}
		_ = f.Close()
		for _, name := range []string{"push", "decode", "route", "queue", "monitor.ingest"} {
			if spans[name] == 0 || spans[name] != spans["push"] {
				t.Errorf("span file: %d %q spans for %d bodies", spans[name], name, spans["push"])
			}
		}
		for _, name := range []string{"process.cpu", "gen", "decode", "route", "queue", "monitor.ingest", "match", "score", "alert", "webhook", "gc"} {
			if layers[name] != 1 {
				t.Errorf("span file: %d summary lines for layer %q", layers[name], name)
			}
		}
	}
}
