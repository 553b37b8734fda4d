package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// recordSink captures Sink calls as formatted strings so tests can
// assert exact event order and content.
type recordSink struct {
	mu     sync.Mutex
	events []string
}

func (r *recordSink) add(s string) {
	r.mu.Lock()
	r.events = append(r.events, s)
	r.mu.Unlock()
}

func (r *recordSink) RegisterNode(node string, metrics []string) {
	r.add(fmt.Sprintf("reg %s %v", node, metrics))
}

func (r *recordSink) ObserveJob(node string, job int64, start int64) {
	r.add(fmt.Sprintf("job %s %d %d", node, job, start))
}

func (r *recordSink) Ingest(node string, ts int64, values []float64) {
	r.add(fmt.Sprintf("ing %s %d %v", node, ts, values))
}

func (r *recordSink) all() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

// forNode filters events mentioning one node, preserving order.
func (r *recordSink) forNode(node string) []string {
	var out []string
	for _, e := range r.all() {
		if strings.Contains(e, " "+node+" ") {
			out = append(out, e)
		}
	}
	return out
}

// wireShapes is a Line of every wire shape the Forwarder sends, with
// non-finite values and names that need escapes among them.
func wireShapes() []Line {
	job := int64(7)
	return []Line{
		{Node: "cn-1", Metrics: []string{"cpu_load", "mem_used"}},
		{Node: "cn-1", Job: &job, Start: 1200},
		{Node: "cn-1", Time: 1260, Values: []JSONFloat{0.4, JSONFloat(math.NaN()), 1e9}},
		{Node: "cn-2", Time: 60, Values: []JSONFloat{JSONFloat(math.Inf(1)), JSONFloat(math.Inf(-1)), -2.25e-9}},
		{Node: "weird \"node\"\n", Time: 1, Values: []JSONFloat{1}},
		{Node: "html<&>", Metrics: []string{"a<b", "ünïcode", "tab\there"}},
		{Node: "zero-start", Job: &job},
		{Node: "empty-vals", Time: 5, Values: []JSONFloat{}},
	}
}

// TestAppendLineJSONMatchesEncodingJSON pins the Forwarder's hand-rolled
// line encoder to json.Encoder byte-for-byte, across every wire shape,
// non-finite values, and strings needing escapes.
func TestAppendLineJSONMatchesEncodingJSON(t *testing.T) {
	for _, l := range wireShapes() {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(l); err != nil {
			t.Fatalf("encode %+v: %v", l, err)
		}
		if l.Node == "empty-vals" {
			// The one intended difference: json.Encoder drops an empty
			// vector under omitempty, leaving a line with no shape that
			// the gateway rejects, and the batch with it. A zero-width
			// sample keeps its "values":[].
			want.Reset()
			want.WriteString(`{"node":"empty-vals","time":5,"values":[]}` + "\n")
		}
		got := appendLineJSON(nil, l)
		if string(got) != want.String() {
			t.Errorf("line %+v:\n got  %q\n want %q", l, got, want.String())
		}
	}
}

// TestFastPathTakesForwarderLines pins what the one-pass scanner must
// cover: every line appendLineJSON writes for names it leaves unescaped —
// each wire shape, NaN and ±Inf, the empty vector, and random samples and
// job transitions — is taken on the fast path and decodes back to the
// Line it came from. Names needing escapes or beyond ASCII are the
// library's.
func TestFastPathTakesForwarderLines(t *testing.T) {
	lines := wireShapes()
	rng := rand.New(rand.NewSource(1))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-300, 1e21, 123456789}
	for i := 0; i < 500; i++ {
		vals := make([]JSONFloat, rng.Intn(60))
		for j := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[j] = JSONFloat(special[rng.Intn(len(special))])
			case 1:
				vals[j] = JSONFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
			default:
				vals[j] = JSONFloat(rng.Int63n(1e6))
			}
		}
		node := fmt.Sprintf("cn-%04d.rack_%d", i, rng.Intn(9))
		job := rng.Int63() - rng.Int63()
		lines = append(lines,
			Line{Node: node, Time: rng.Int63n(2e9), Values: vals},
			Line{Node: node, Job: &job, Start: rng.Int63n(2e9)})
	}
	for _, l := range lines {
		raw := appendLineJSON(nil, l)
		if bytes.ContainsFunc(raw, func(r rune) bool { return r == '\\' || r > '~' }) {
			continue
		}
		var got jsonlLine
		if !got.scan(bytes.TrimSpace(raw)) {
			t.Errorf("fast path refused %q", raw)
		} else if diff := fastPathDiff(got, l); diff != "" {
			t.Errorf("%q: %s", raw, diff)
		}
	}
}

func TestJSONFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -2.25e9, math.NaN(), math.Inf(1), math.Inf(-1)} {
		b, err := JSONFloat(v).MarshalJSON()
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back JSONFloat
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		got := float64(back)
		if math.IsNaN(v) {
			if !math.IsNaN(got) {
				t.Errorf("NaN round-tripped to %v", got)
			}
		} else if got != v {
			t.Errorf("%v round-tripped to %v via %s", v, got, b)
		}
	}
	var bad JSONFloat
	if err := bad.UnmarshalJSON([]byte(`"wat"`)); err == nil {
		t.Error("non-numeric string accepted")
	}
}
