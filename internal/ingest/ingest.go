// Package ingest is the network tier between "telemetry exists" and
// "the detector scores it" — the collection layer the paper's deployment
// workflow assumes (§5.1, Fig. 7: Prometheus scrapes every compute node
// while NodeSentry consumes the same stream). It is stdlib-only, like
// the rest of the repository.
//
// Three components compose into a gateway:
//
//   - Intake: an HTTP handler accepting pushed batches (POST /push,
//     Prometheus text exposition or JSONL, gzip-aware, size-limited),
//     plus Scraper, a poller that pulls /metrics from a target list on
//     an interval. Both read their body once, bounded, as a string
//     (ReadLimited) and feed a shared Decoder that remembers each node's
//     metric layout and turns wire samples into Sink calls.
//   - ShardRouter: consistently hashes node names onto N bounded worker
//     queues, each drained by one goroutine, with an explicit
//     backpressure policy (Block or DropOldest, counted) so one slow
//     node cannot stall the fleet.
//   - Forwarder: the agent-side client — batches samples by size and
//     age, sends with context timeouts and jittered exponential
//     Backoff, keeps a bounded retry queue, and drains gracefully on
//     shutdown.
//
// One ownership rule covers every sample vector on the way: the values
// handed to Sink.Ingest are valid only for the duration of the call, and a
// sink that keeps them copies them. The Decoder therefore fills one
// scratch vector per body, and the ShardRouter's copy onto its queue is
// the single allocation a sample costs between the socket and the
// monitor's ring.
//
// Everything is instrumented through internal/obs (nil-safe: a nil
// registry disables instrumentation). runtime.Monitor satisfies Sink,
// so cmd/sentryd can wire scrape/push intake straight into streaming
// detection; tests substitute recording sinks.
package ingest

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Sink consumes decoded telemetry. runtime.Monitor implements it; the
// ShardRouter and Forwarder both implement it too, so tiers stack
// (agent Forwarder → gateway Intake → ShardRouter → Monitor).
type Sink interface {
	// RegisterNode declares a node's ordered metric layout before
	// ingestion; values in later Ingest calls follow this order.
	RegisterNode(node string, metrics []string)
	// ObserveJob notifies of a job transition on a node at start
	// (Unix seconds).
	ObserveJob(node string, job int64, start int64)
	// Ingest feeds one sample: the node's full metric vector at ts
	// (Unix seconds), ordered per the registered layout. values is valid
	// only for the duration of the call; a sink that keeps it copies it.
	Ingest(node string, ts int64, values []float64)
}

// JobTransitionSeries is the well-known exposition series name that
// carries scheduler job transitions in pushed/scraped text bodies:
//
//	nodesentry_job_transition{node="cn-1"} <job-id> <start-ms>
//
// The value is the job id (mts.IdleJobID for idle) and the exposition
// timestamp is the transition time. JSONL batches carry transitions as
// {"node":…,"job":…,"start":…} lines instead.
const JobTransitionSeries = "nodesentry_job_transition"

// eventKind discriminates queued gateway events.
type eventKind uint8

const (
	evSample eventKind = iota
	evRegister
	evJob
)

// event is one unit of work on a shard queue.
type event struct {
	kind    eventKind
	node    string
	ts      int64     // sample time or job start (Unix seconds)
	values  []float64 // evSample
	metrics []string  // evRegister
	job     int64     // evJob
	// at is the enqueue wall time, recorded only when observability is
	// on; it feeds the intake→score latency histogram.
	at time.Time
}

// Line is one JSONL wire record, the push format the Forwarder emits
// and Intake accepts. Exactly one of the three shapes must be present:
//
//	{"node":"cn-1","metrics":["cpu_load","mem_used"]}       registration
//	{"node":"cn-1","job":7,"start":1200}                    job transition
//	{"node":"cn-1","time":1260,"values":[0.4,"NaN",1e9]}    sample
//
// Times are Unix seconds. NaN and ±Inf sample values — legal telemetry
// (a dropped collector is NaN) that encoding/json rejects as bare
// numbers — travel as the strings "NaN", "+Inf", "-Inf".
type Line struct {
	Node    string      `json:"node"`
	Time    int64       `json:"time,omitempty"`
	Values  []JSONFloat `json:"values,omitempty"`
	Metrics []string    `json:"metrics,omitempty"`
	Job     *int64      `json:"job,omitempty"`
	Start   int64       `json:"start,omitempty"`
}

// JSONFloat is a float64 whose JSON encoding round-trips NaN and ±Inf
// as quoted strings.
type JSONFloat float64

// MarshalJSON encodes finite values as bare numbers and non-finite ones
// as the strings strconv.ParseFloat accepts back.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON accepts bare numbers and the quoted non-finite forms.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("ingest: bad sample value %s", b)
	}
	*f = JSONFloat(v)
	return nil
}

// appendLineJSON appends l's JSONL wire encoding — byte-for-byte what
// json.Encoder produces for Line, trailing newline included — without
// the per-value reflection and digit-buffer allocations that dominate a
// sustained feed. TestAppendLineJSONMatchesEncodingJSON pins the parity
// and its one exception: a non-nil empty Values, which omitempty would
// drop, is written as "values":[] so that a zero-width sample stays a
// sample.
func appendLineJSON(b []byte, l Line) []byte {
	b = append(b, `{"node":`...)
	b = appendJSONString(b, l.Node)
	if l.Time != 0 {
		b = append(b, `,"time":`...)
		b = strconv.AppendInt(b, l.Time, 10)
	}
	if l.Values != nil { // an empty vector is a zero-width sample, not no sample
		b = append(b, `,"values":[`...)
		for i, v := range l.Values {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, float64(v))
		}
		b = append(b, ']')
	}
	if len(l.Metrics) > 0 {
		b = append(b, `,"metrics":[`...)
		for i, m := range l.Metrics {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, m)
		}
		b = append(b, ']')
	}
	if l.Job != nil {
		b = append(b, `,"job":`...)
		b = strconv.AppendInt(b, *l.Job, 10)
	}
	if l.Start != 0 {
		b = append(b, `,"start":`...)
		b = strconv.AppendInt(b, l.Start, 10)
	}
	return append(b, '}', '\n')
}

// appendJSONFloat appends JSONFloat's encoding of v.
func appendJSONFloat(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendJSONString appends the encoding/json encoding of s (HTML
// escaping on, matching json.Encoder's default). Plain ASCII takes the
// allocation-free fast path; anything needing escapes falls back to the
// library so the two encodings can never drift.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			esc, _ := json.Marshal(s) // marshaling a string cannot fail
			return append(b, esc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// jsonFloats wraps a plain vector for marshaling.
func jsonFloats(in []float64) []JSONFloat {
	out := make([]JSONFloat, len(in))
	for i, v := range in {
		out[i] = JSONFloat(v)
	}
	return out
}
