package ingest

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"nodesentry/internal/mts"
	"nodesentry/internal/obs"
	"nodesentry/internal/telemetry"
)

func testDecoder(sink Sink, reg *obs.Registry) *Decoder {
	return NewDecoder(sink, DecoderConfig{
		Metrics: reg,
		Now:     func() int64 { return 9999 }, // deterministic fallback clock
	})
}

func TestDecoderExpositionGrouping(t *testing.T) {
	sink := &recordSink{}
	dec := testDecoder(sink, nil)
	dec.Register("cn-1", []string{"cpu", "mem"})
	// Two timesteps with a job transition between them, mem omitted at
	// the second step (a dropped collector).
	body := strings.Join([]string{
		`cpu{node="cn-1"} 0.5 60000`,
		`mem{node="cn-1"} 100 60000`,
		`nodesentry_job_transition{node="cn-1"} 7 120000`,
		`cpu{node="cn-1"} 0.75 120000`,
	}, "\n")
	n, err := dec.PushExposition(body)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ingested %d samples, want 2", n)
	}
	got := sink.all()
	want := []string{
		"reg cn-1 [cpu mem]",
		"ing cn-1 60 [0.5 100]",
		"job cn-1 7 120",
		"ing cn-1 120 [0.75 NaN]",
	}
	if len(got) != len(want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestDecoderAutoRegisterSorted(t *testing.T) {
	sink := &recordSink{}
	reg := obs.NewRegistry()
	dec := testDecoder(sink, reg)
	n, err := dec.PushExposition("zz{node=\"n\"} 1 1000\naa{node=\"n\"} 2 1000\n")
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	got := sink.all()
	if got[0] != "reg n [aa zz]" {
		t.Errorf("auto-registration = %q, want sorted [aa zz]", got[0])
	}
	if got[1] != "ing n 1 [2 1]" {
		t.Errorf("sample = %q, want layout order [2 1]", got[1])
	}
	if v := reg.Counter("nodesentry_intake_autoregistered_total").Value(); v != 1 {
		t.Errorf("autoregistered counter = %d, want 1", v)
	}
}

func TestDecoderSkipsAndCounts(t *testing.T) {
	sink := &recordSink{}
	reg := obs.NewRegistry()
	dec := testDecoder(sink, reg)
	dec.Register("n", []string{"cpu"})
	// A registry self-scrape has no node labels: skipped, not an error.
	if n, err := dec.PushExposition("up 1\nhttp_requests_total{code=\"200\"} 7\n"); err != nil || n != 0 {
		t.Fatalf("self-scrape n=%d err=%v", n, err)
	}
	if v := reg.Counter("nodesentry_intake_skipped_series_total").Value(); v != 2 {
		t.Errorf("skipped = %d, want 2", v)
	}
	// A metric outside the registered layout is counted, not ingested.
	if _, err := dec.PushExposition("cpu{node=\"n\"} 1 1000\nrogue{node=\"n\"} 2 1000\n"); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("nodesentry_intake_unknown_metrics_total").Value(); v != 1 {
		t.Errorf("unknown metrics = %d, want 1", v)
	}
	// A timestamp-free sample falls back to the injected clock.
	if _, err := dec.PushExposition("cpu{node=\"n\"} 3\n"); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("nodesentry_intake_clock_fallback_total").Value(); v != 1 {
		t.Errorf("clock fallbacks = %d, want 1", v)
	}
	events := sink.forNode("n")
	last := events[len(events)-1]
	if last != "ing n 9999 [3]" {
		t.Errorf("fallback sample = %q, want ing n 9999 [3]", last)
	}
	// A malformed body errors and is counted.
	if _, err := dec.PushExposition("cpu{node=\"n\" 1"); err == nil {
		t.Error("unterminated labels accepted")
	}
	if v := reg.Counter("nodesentry_intake_parse_errors_total").Value(); v != 1 {
		t.Errorf("parse errors = %d, want 1", v)
	}
}

func TestDecoderJSONL(t *testing.T) {
	sink := &recordSink{}
	dec := testDecoder(sink, nil)
	batch := strings.Join([]string{
		`{"node":"cn-2","metrics":["cpu","mem"]}`,
		`{"node":"cn-2","job":5,"start":100}`,
		`{"node":"cn-2","time":160,"values":[0.25,"NaN"]}`,
		``,
		`{"node":"cn-2","time":220,"values":["+Inf",3]}`,
	}, "\n")
	n, err := dec.PushJSONL(strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ingested %d samples, want 2", n)
	}
	want := []string{
		"reg cn-2 [cpu mem]",
		"job cn-2 5 100",
		"ing cn-2 160 [0.25 NaN]",
		"ing cn-2 220 [+Inf 3]",
	}
	got := sink.all()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestDecoderJSONLErrors(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"not json", "nope\n"},
		{"missing node", `{"time":1,"values":[1]}` + "\n"},
		{"empty line shape", `{"node":"n"}` + "\n"},
		{"bad value", `{"node":"n","time":1,"values":["wat"]}` + "\n"},
	} {
		dec := testDecoder(&recordSink{}, nil)
		if _, err := dec.PushJSONL(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Lines before the bad one are already applied.
	sink := &recordSink{}
	dec := testDecoder(sink, nil)
	body := `{"node":"n","metrics":["m"]}` + "\n" + `{"node":"n","time":5,"values":[1]}` + "\ngarbage\n"
	n, err := dec.PushJSONL(strings.NewReader(body))
	if err == nil {
		t.Fatal("garbage line accepted")
	}
	if n != 1 || len(sink.all()) != 2 {
		t.Errorf("applied %d samples, %d events before failing; want 1, 2", n, len(sink.all()))
	}
}

func TestDecoderVectorNaNSemantics(t *testing.T) {
	sink := &recordSink{}
	dec := testDecoder(sink, nil)
	dec.Register("n", []string{"a", "b", "c"})
	if _, err := dec.PushExposition("b{node=\"n\"} 2 1000\n"); err != nil {
		t.Fatal(err)
	}
	ev := sink.all()[1]
	if !strings.Contains(ev, "[NaN 2 NaN]") {
		t.Errorf("missing metrics not NaN-filled: %q", ev)
	}
}

func TestDecoderJSONLShapeConform(t *testing.T) {
	sink := &recordSink{}
	reg := obs.NewRegistry()
	dec := testDecoder(sink, reg)
	dec.Register("n", []string{"a", "b", "c"})
	body := `{"node":"n","time":5,"values":[1]}` + "\n" +
		`{"node":"n","time":6,"values":[1,2,3,4]}` + "\n" +
		`{"node":"n","time":7,"values":[1,2,3]}` + "\n" +
		`{"node":"u","time":8,"values":[9]}` + "\n"
	if _, err := dec.PushJSONL(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	events := sink.all()
	if want := "ing n 5 [1 NaN NaN]"; events[1] != want {
		t.Errorf("short vector: got %q, want %q", events[1], want)
	}
	if want := "ing n 6 [1 2 3]"; events[2] != want {
		t.Errorf("long vector: got %q, want %q", events[2], want)
	}
	// Unregistered nodes pass through unchanged; exact-width vectors are
	// untouched; two repairs counted.
	if want := "ing u 8 [9]"; events[4] != want {
		t.Errorf("unregistered: got %q, want %q", events[4], want)
	}
	if got := reg.Counter("nodesentry_intake_shape_mismatch_total").Value(); got != 2 {
		t.Errorf("shape mismatch counter = %d, want 2", got)
	}
}

// TestDecoderExpositionRules pins, one body per rule, how PushExposition
// cuts a body into samples and fits them to a layout.
func TestDecoderExpositionRules(t *testing.T) {
	intake := func(name string) string { return "nodesentry_intake_" + name + "_total" }
	for _, tc := range []struct {
		name     string
		register map[string][]string
		body     []string
		want     []string // sink events after the registrations above
		counters map[string]int64
	}{
		{
			name:     "an unlabelled series inside a sample is skipped without splitting it",
			register: map[string][]string{"n": {"cpu", "mem"}},
			body:     []string{`cpu{node="n"} 1 1000`, `up 1`, `mem{node="n"} 2 1000`},
			want:     []string{"ing n 1 [1 2]"},
			counters: map[string]int64{intake("skipped_series"): 1, intake("samples"): 1},
		},
		{
			name:     "a job line ends the sample",
			register: map[string][]string{"n": {"cpu", "mem"}},
			body:     []string{`cpu{node="n"} 1 1000`, `nodesentry_job_transition{node="n"} 7 1000`, `mem{node="n"} 2 1000`},
			want:     []string{"ing n 1 [1 NaN]", "job n 7 1", "ing n 1 [NaN 2]"},
			counters: map[string]int64{intake("samples"): 2, intake("jobs"): 1},
		},
		{
			name:     "a new node or a new timestamp starts a sample",
			register: map[string][]string{"a": {"cpu"}, "b": {"cpu"}},
			body:     []string{`cpu{node="a"} 1 1000`, `cpu{node="b"} 2 1000`, `cpu{node="a"} 3 1000`, `cpu{node="a"} 4 2000`},
			want:     []string{"ing a 1 [1]", "ing b 1 [2]", "ing a 1 [3]", "ing a 2 [4]"},
		},
		{
			name:     "a repeated series keeps its last value",
			register: map[string][]string{"n": {"cpu", "mem"}},
			body:     []string{`cpu{node="n"} 1 1000`, `cpu{node="n"} 5 1000`},
			want:     []string{"ing n 1 [5 NaN]"},
		},
		{
			name:     "a timestamp-free sample takes the clock once however many series it has, and so does a job line",
			register: map[string][]string{"n": {"cpu", "mem"}},
			body:     []string{`cpu{node="n"} 1`, `mem{node="n"} 2`, `nodesentry_job_transition{node="n"} 7`},
			want:     []string{"ing n 9999 [1 2]", "job n 7 9999"},
			counters: map[string]int64{intake("clock_fallback"): 2},
		},
		{
			name:     "unknown names are counted per series line",
			register: map[string][]string{"n": {"cpu"}},
			body:     []string{`rogue{node="n"} 1 1000`, `cpu{node="n"} 2 1000`, `rogue{node="n"} 3 1000`, `other{node="n"} 4 1000`},
			want:     []string{"ing n 1 [2]"},
			counters: map[string]int64{intake("unknown_metrics"): 3},
		},
		{
			name:     "a first sample that repeats a name auto-registers it once",
			body:     []string{`b{node="u"} 1 1000`, `a{node="u"} 2 1000`, `b{node="u"} 3 1000`},
			want:     []string{"reg u [a b]", "ing u 1 [2 3]"},
			counters: map[string]int64{intake("autoregistered"): 1, intake("unknown_metrics"): 0},
		},
		{
			name:     "a layout that declares a name twice fills its first column",
			register: map[string][]string{"n": {"x", "y", "x"}},
			body:     []string{`x{node="n"} 1 1000`, `y{node="n"} 2 1000`},
			want:     []string{"ing n 1 [1 2 NaN]"},
			counters: map[string]int64{intake("unknown_metrics"): 0},
		},
		{
			name:     "node is read at a label boundary, not out of a longer key",
			register: map[string][]string{"cn-1": {"cpu"}, "rack-7": {"cpu"}},
			body:     []string{`cpu{supernode="rack-7",node="cn-1"} 1 1000`, `cpu{exported_node="rack-7"} 2 1000`},
			want:     []string{"ing cn-1 1 [1]"},
			counters: map[string]int64{intake("skipped_series"): 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &recordSink{}
			reg := obs.NewRegistry()
			dec := testDecoder(sink, reg)
			for node, metrics := range tc.register {
				dec.Register(node, metrics)
			}
			if _, err := dec.PushExposition(strings.Join(tc.body, "\n")); err != nil {
				t.Fatal(err)
			}
			got := sink.all()[len(tc.register):]
			if !slices.Equal(got, tc.want) {
				t.Errorf("events %q, want %q", got, tc.want)
			}
			for name, want := range tc.counters {
				if v := reg.Counter(name).Value(); v != want {
					t.Errorf("%s = %d, want %d", name, v, want)
				}
			}
		})
	}
}

// wideBody renders one exposition body of the wide_exposition shape:
// nodes × metrics series in FormatScrape's own spelling, one timestamp.
func wideBody(nodes, metrics int) (names, layout []string, body string) {
	for m := 0; m < metrics; m++ {
		layout = append(layout, fmt.Sprintf("node_metric_%03d_total", m))
	}
	var b strings.Builder
	for n := 0; n < nodes; n++ {
		f := &mts.NodeFrame{Node: fmt.Sprintf("cn-%04d", n), Metrics: layout, Start: 1_700_000_000, Step: 60}
		for m := range layout {
			f.Data = append(f.Data, []float64{float64(n) + float64(m)/1000})
		}
		names = append(names, f.Node)
		b.WriteString(telemetry.FormatScrape(f, 0))
	}
	return names, layout, b.String()
}

// nopSink swallows decoded telemetry, so allocation pins count the
// decoder alone.
type nopSink struct{}

func (nopSink) RegisterNode(string, []string)   {}
func (nopSink) ObserveJob(string, int64, int64) {}
func (nopSink) Ingest(string, int64, []float64) {}

// TestPushExpositionAllocations pins what decoding costs between the body
// and the sink: the parsed series slice and one scratch vector per body,
// nothing per line and nothing per sample (the parent: ≈ 145 a sample).
func TestPushExpositionAllocations(t *testing.T) {
	const nodes, metrics = 16, 130
	names, layout, body := wideBody(nodes, metrics)
	dec := testDecoder(nopSink{}, nil)
	for _, n := range names {
		dec.Register(n, layout)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if n, err := dec.PushExposition(body); err != nil || n != nodes {
			t.Fatalf("n=%d err=%v", n, err)
		}
	})
	if perSample := allocs / nodes; perSample > 2 {
		t.Errorf("PushExposition: %.1f allocations per sample (%v per body), want <= 2", perSample, allocs)
	}
}

// TestDecoderScratchIsCopiedByRouter pins the ownership rule on
// Sink.Ingest from the keeping side: the decoder refills one scratch
// vector for every sample of a body, so the router — whose queue outlives
// the call — must hold its own copy of each. With the first sample parked
// behind a gated sink, the second sample of the same body (and a second
// body) overwrite the scratch before either is delivered.
func TestDecoderScratchIsCopiedByRouter(t *testing.T) {
	sink := &gateSink{gate: make(chan struct{})}
	r := NewShardRouter(sink, RouterConfig{Shards: 1, QueueSize: 8})
	dec := testDecoder(r, nil)
	dec.Register("n", []string{"a", "b"})
	for _, body := range []string{
		"a{node=\"n\"} 1 60000\nb{node=\"n\"} 2 60000\na{node=\"n\"} 3 120000\nb{node=\"n\"} 4 120000\n",
		"a{node=\"n\"} 5 180000\n",
	} {
		if _, err := dec.PushExposition(body); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dec.PushJSONL(strings.NewReader(`{"node":"n","time":240,"values":[6,7]}` + "\n" + `{"node":"n","time":300,"values":[8,9]}`)); err != nil {
		t.Fatal(err)
	}
	close(sink.gate)
	r.Drain()
	want := []string{"reg n [a b]", "ing n 60 [1 2]", "ing n 120 [3 4]", "ing n 180 [5 NaN]", "ing n 240 [6 7]", "ing n 300 [8 9]"}
	if got := sink.all(); !slices.Equal(got, want) {
		t.Errorf("delivered %q, want %q: a queued vector aliased the decoder's scratch", got, want)
	}
}

// TestPushJSONLAllocations pins what decoding a JSONL body costs between
// the body and the sink, for declared nodes: the Scanner's buffer and the
// one scratch vector, once per body — nothing per line and nothing per
// sample (encoding/json: ≈ 14 a sample).
func TestPushJSONLAllocations(t *testing.T) {
	const nodes, width = 8, 50
	layout := make([]string, width)
	for m := range layout {
		layout[m] = fmt.Sprintf("m%02d", m)
	}
	dec := testDecoder(nopSink{}, nil)
	for i := 0; i < nodes; i++ {
		dec.Register(fmt.Sprintf("cn-%04d", i), layout)
	}
	perBody := func(samples int) float64 {
		job := int64(3)
		b := appendLineJSON(nil, Line{Node: "cn-0000", Job: &job, Start: 60})
		for i := 0; i < samples; i++ {
			vals := make([]JSONFloat, width)
			for m := range vals {
				vals[m] = JSONFloat(float64(i*width+m) / 7)
			}
			vals[i%width] = JSONFloat(math.NaN())
			b = appendLineJSON(b, Line{Node: fmt.Sprintf("cn-%04d", i%nodes), Time: int64(60 * (i + 1)), Values: vals})
		}
		body := string(b)
		rd := strings.NewReader(body)
		return testing.AllocsPerRun(10, func() {
			rd.Reset(body)
			if n, err := dec.PushJSONL(rd); err != nil || n != samples {
				t.Fatalf("n=%d err=%v", n, err)
			}
		})
	}
	// The Scanner's 64 KiB buffer and the scratch vector, sized once on
	// the body's first sample.
	const want = 2
	if small, large := perBody(8), perBody(64); small != want || large != want {
		t.Errorf("PushJSONL: %v allocations for 8 samples, %v for 64; want %d for both", small, large, want)
	}
}
