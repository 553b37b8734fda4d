package ingest

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"nodesentry/internal/obs"
)

// fuzzSink checks the decoder's sink-call contract under hostile input:
// no call may carry an empty node name (a phantom node), and once a
// node's layout is declared, every later sample vector must arrive at
// exactly the layout's width — the invariant frame assembly depends on.
type fuzzSink struct {
	t       *testing.T
	layouts map[string]int
	calls   int
}

func (s *fuzzSink) RegisterNode(node string, metrics []string) {
	s.calls++
	if node == "" {
		s.t.Error("RegisterNode with empty node")
	}
	s.layouts[node] = len(metrics)
}

func (s *fuzzSink) ObserveJob(node string, job int64, start int64) {
	s.calls++
	if node == "" {
		s.t.Error("ObserveJob with empty node")
	}
}

func (s *fuzzSink) Ingest(node string, ts int64, values []float64) {
	s.calls++
	if node == "" {
		s.t.Error("Ingest with empty node")
	}
	if want, ok := s.layouts[node]; ok && len(values) != want {
		s.t.Errorf("ingest %q: vector width %d, want %d", node, len(values), want)
	}
}

// jsonlSeeds are FuzzPushJSONL's seed bodies; FuzzJSONLFastPath takes
// their lines one by one.
var jsonlSeeds = []string{
	`{"node":"a","metrics":["m0","m1"]}` + "\n" + `{"node":"a","time":60,"values":[1,2]}`,
	// Short and long vectors against a declared layout.
	`{"node":"a","metrics":["m0","m1","m2"]}` + "\n" + `{"node":"a","time":60,"values":[1]}`,
	`{"node":"a","metrics":["m0"]}` + "\n" + `{"node":"a","time":60,"values":[1,2,3]}`,
	// Non-finite values travel as quoted strings.
	`{"node":"a","time":60,"values":["NaN","+Inf","-Inf"]}`,
	// Duplicate timestamps.
	`{"node":"a","time":60,"values":[1]}` + "\n" + `{"node":"a","time":60,"values":[1]}`,
	// Job transitions, idle id, zero time (clock fallback).
	`{"node":"a","job":7,"start":1200}`,
	`{"node":"a","job":-1,"start":0}`,
	`{"node":"a","values":[0.5]}`,
	// Malformed shapes.
	`{node:`,
	`{"node":""}`,
	`{"node":"a"}`,
	`{"time":60,"values":[1]}`,
	`{"node":"a","values":[]}`,
	"{\"node\":\"\xff\xfe\",\"values\":[1]}",
	`{"node":"a","values":["nope"]}`,
	"\n\n" + `{"node":"a","metrics":["m0"]}` + "\n\n",
}

// FuzzPushJSONL pins the JSONL decode path against hostile batches:
// malformed JSON, NaN/Inf values, bad UTF-8 in labels, duplicate
// timestamps, and — the historical panic — sample vectors narrower or
// wider than the node's declared layout. It must never panic, never
// emit a phantom (empty-name) node, and never hand a registered node a
// mis-shaped vector.
func FuzzPushJSONL(f *testing.F) {
	for _, s := range jsonlSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		sink := &fuzzSink{t: t, layouts: map[string]int{}}
		dec := NewDecoder(sink, DecoderConfig{
			Metrics: obs.NewRegistry(),
			Now:     func() int64 { return 1_700_000_000 },
		})
		n, err := dec.PushJSONL(strings.NewReader(body))
		if n < 0 {
			t.Errorf("negative sample count %d", n)
		}
		if err != nil && n > len(strings.Split(body, "\n")) {
			t.Errorf("counted %d samples from %d lines", n, len(strings.Split(body, "\n")))
		}
	})
}

// FuzzJSONLFastPath holds the one-pass scanner to encoding/json, which
// defines the format: whenever the scanner takes a line, json.Unmarshal
// into Line must accept it too and agree on every field — the same
// presence of values, and values bit for bit.
func FuzzJSONLFastPath(f *testing.F) {
	for _, body := range jsonlSeeds {
		for _, line := range strings.Split(body, "\n") {
			f.Add(line)
		}
	}
	for _, l := range wireShapes() {
		f.Add(string(appendLineJSON(nil, l)))
	}
	// Canonical lines spelled oddly, and lines only the library may take.
	for _, line := range []string{
		" {\t\"values\" : [ 1 , \"NaN\" ] ,\"node\":\"a\"\r} ",
		`{"node":"a","values":[1],"values":[],"job":1,"job":-2}`,
		`{"node":"a\tb","metrics":["x\u0079"]}`,
		`{"Node":"a","values":[1]}`,
		`{"node":"a","values":[1],"extra":0}`,
		`{"node":"a","values":null}`,
		`{"node":"a","time":1.0,"values":[1]}`,
		`{"node":"a","values":["0x1p-2","1_0",-01,1e400]}`,
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var got jsonlLine
		if !got.scan([]byte(raw)) {
			return
		}
		var want Line
		if err := json.Unmarshal([]byte(raw), &want); err != nil {
			t.Fatalf("fast path took %q, encoding/json rejects it: %v", raw, err)
		}
		if diff := fastPathDiff(got, want); diff != "" {
			t.Errorf("%q: %s", raw, diff)
		}
	})
}

// fastPathDiff describes where a scanned line disagrees with the Line
// encoding/json decoded from the same bytes, or returns "".
func fastPathDiff(got jsonlLine, want Line) string {
	wantJob := int64(0)
	if want.Job != nil {
		wantJob = *want.Job
	}
	switch {
	case string(got.node) != want.Node:
		return fmt.Sprintf("node %q, want %q", got.node, want.Node)
	case got.time != want.Time || got.start != want.Start:
		return fmt.Sprintf("time/start %d/%d, want %d/%d", got.time, got.start, want.Time, want.Start)
	case got.hasJob != (want.Job != nil) || got.job != wantJob:
		return fmt.Sprintf("job %v %d, want %v", got.hasJob, got.job, want.Job)
	case !slices.Equal(got.metrics, want.Metrics):
		return fmt.Sprintf("metrics %q, want %q", got.metrics, want.Metrics)
	case got.hasValues != (want.Values != nil) || len(got.values) != len(want.Values):
		return fmt.Sprintf("values %v (present %v), want %v (present %v)",
			got.values, got.hasValues, want.Values, want.Values != nil)
	}
	for i, v := range want.Values {
		if math.Float64bits(got.values[i]) != math.Float64bits(float64(v)) {
			return fmt.Sprintf("value %d = %v, want %v", i, got.values[i], float64(v))
		}
	}
	return ""
}

// FuzzPushExposition pins the exposition decode path against hostile
// bodies, some nodes declared ahead and the rest auto-registering: it
// must never panic, never emit a phantom (empty-name) node, never hand a
// registered node a mis-shaped vector — and a body it rejects must leave
// the sink untouched, the atomicity the chaos soak's exact ledger (a
// garbled scrape contributes one parse error and zero samples) rests on.
func FuzzPushExposition(f *testing.F) {
	seeds := []string{
		"",
		"# TYPE cpu gauge\ncpu{node=\"a\"} 0.5 60000\n",
		"up 1\n",
		"a NaN\nb +Inf\nc -Inf\n",
		"m{node=\"\xff\xfe\"} 1 1000\n",
		"{} 1\n",
		"nodesentry_job_transition{node=\"n\"} 7 120000\n",
		// Several nodes and timestamps in one body, a job line between
		// two samples, unlabelled series inside one.
		"cpu{node=\"a\"} 1 60000\nmem{node=\"a\"} 2 60000\ncpu{node=\"b\"} 3 60000\ncpu{node=\"a\"} 4 120000\n",
		"cpu{node=\"a\"} 1 60000\nnodesentry_job_transition{node=\"a\"} -1 60000\nmem{node=\"a\"} 2 60000\n",
		"cpu{node=\"a\"} 1\nup 1\nmem{node=\"a\"} 2\nrogue{node=\"a\"} 3\ncpu{node=\"a\"} 4\n",
		"z{node=\"u\"} 1 1000\na{node=\"u\"} 2 1000\nz{node=\"u\"} 3 1000\nq{node=\"u\"} 4 2000\n",
		"cpu{supernode=\"a\",node=\"b\"} 1 1000\ncpu{exported_node=\"a\"} 2 1000\ncpu{node=\"\"} 3 1000\n",
		// Good samples ahead of a line the parser rejects: nothing of
		// the body may reach the sink.
		"cpu{node=\"a\"} 1 60000\nmem{node=\"a\"} 2 60000\ncpu{node=\"b\"",
		"cpu{node=\"a\"} 1 60000\nnodesentry_job_transition{node=\"a\"} 7 60000\ncpu{node=\"a\"} 1 1.5",
		"cpu{node=\"u\"} 1 60000\nd 1e400\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		sink := &fuzzSink{t: t, layouts: map[string]int{}}
		dec := NewDecoder(sink, DecoderConfig{
			Metrics: obs.NewRegistry(),
			Now:     func() int64 { return 1_700_000_000 },
		})
		dec.Register("a", []string{"cpu", "mem"})
		dec.Register("b", []string{"cpu"})
		declared := sink.calls
		n, err := dec.PushExposition(body)
		if err != nil && (n != 0 || sink.calls != declared) {
			t.Errorf("rejected body (%v) counted %d samples and made %d sink calls", err, n, sink.calls-declared)
		}
		if n < 0 || n > sink.calls-declared {
			t.Errorf("counted %d samples over %d sink calls", n, sink.calls-declared)
		}
	})
}
