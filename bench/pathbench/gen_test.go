package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"nodesentry/internal/ingest"
	"nodesentry/internal/mts"
	"nodesentry/internal/telemetry"
)

// miniWorkload is a trace small enough for unit tests: a few nodes, a
// short history, the given wire format.
func miniWorkload(format wireFormat) workload {
	return workload{
		name: "mini", nodes: 5, cores: 2, affine: 1, constants: 2, format: format, scheduleSeed: 7,
		kinds: churnKinds(), matchPeriodSec: 600, faultsPerNode: 2, meanFaultSec: 600,
		trainTicks: 240, serveTicks: 80, clusters: 2, epochs: 1,
		// A rate the race detector's tenfold slowdown still sustains.
		batchWindows: 4, pacedTicksPerSec: 100,
	}
}

// shifted is the frame as a later pass would see it: same values, clock
// advanced by delta seconds.
func shifted(f *mts.NodeFrame, delta int64) *mts.NodeFrame {
	g := f.Slice(0, f.Len())
	g.Start += delta
	return g
}

// TestRestampMatchesReencoding pins the generator's central shortcut: a
// body of pass k, produced by patching pass 0's time fields in place, is
// byte for byte what encoding the shifted records afresh would give — with
// the repository's own encoders (encoding/json over ingest.Line for JSONL,
// telemetry.FormatScrape for the exposition format) as the reference.
func TestRestampMatchesReencoding(t *testing.T) {
	for _, format := range []wireFormat{formatJSONL, formatExposition} {
		w := miniWorkload(format)
		tr := buildTrace(w, 3)
		const pass = 7
		delta := pass * w.passSpan()
		enc := &bodyEncoder{format: format}
		next := make([]int, len(tr.nodes))
		refNext := make([]int, len(tr.nodes))
		sawJob := false
		for tick := 0; tick < w.serveTicks; tick++ {
			tr.encodeTick(enc, tick, next)
			body := append([]byte(nil), enc.buf...)
			if err := restamp(body, enc.offs, format.timeWidth(), delta*format.timeScale()); err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}

			var want bytes.Buffer
			for i, node := range tr.nodes {
				if tick < tr.firstTick(i) {
					continue
				}
				tr.tickEvents(i, tick, refNext, func(job, start int64) {
					sawJob = true
					if format == formatJSONL {
						raw, err := json.Marshal(ingest.Line{Node: node, Job: &job, Start: start + delta})
						if err != nil {
							t.Fatal(err)
						}
						want.Write(raw)
						want.WriteByte('\n')
						return
					}
					want.WriteString(ingest.JobTransitionSeries)
					want.WriteString(`{node="` + node + `"} `)
					want.WriteString(jsonInt(job) + " " + jsonInt((start+delta)*1000) + "\n")
				})
				f := shifted(tr.serve[node], baseTime-tr.splitAt+delta)
				if format == formatExposition {
					want.WriteString(telemetry.FormatScrape(f, tick))
					continue
				}
				vec := f.Window(tick)
				vals := make([]ingest.JSONFloat, len(vec))
				for m, v := range vec {
					vals[m] = ingest.JSONFloat(v)
				}
				raw, err := json.Marshal(ingest.Line{Node: node, Time: f.TimeAt(tick), Values: vals})
				if err != nil {
					t.Fatal(err)
				}
				want.Write(raw)
				want.WriteByte('\n')
			}
			if !bytes.Equal(body, want.Bytes()) {
				t.Fatalf("format %d tick %d: restamped body differs from re-encoding\n got: %.200s\nwant: %.200s",
					format, tick, firstDiff(body, want.Bytes()), firstDiff(want.Bytes(), body))
			}
		}
		if !sawJob {
			t.Fatalf("format %d: trace announced no job transition; the test covers nothing", format)
		}
	}
}

func jsonInt(v int64) string {
	raw, _ := json.Marshal(v) // an int64 always marshals
	return string(raw)
}

// firstDiff returns a's tail from shortly before its first difference to b.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	if i > 40 {
		i -= 40
	} else {
		i = 0
	}
	return a[i:]
}

// TestDecodersAcceptBodies feeds every body of a pass to the real decoder
// and checks it yields exactly the samples and transitions the trace holds
// — the encoder speaks the wire format, not just something restampable.
func TestDecodersAcceptBodies(t *testing.T) {
	for _, format := range []wireFormat{formatJSONL, formatExposition} {
		w := miniWorkload(format)
		tr := buildTrace(w, 5)
		sink := &countSink{}
		dec := ingest.NewDecoder(sink, ingest.DecoderConfig{})
		for _, n := range tr.nodes {
			dec.Register(n, tr.metrics)
		}
		enc := &bodyEncoder{format: format}
		next := make([]int, len(tr.nodes))
		wantSamples, wantJobs := 0, 0
		for tick := 0; tick < w.serveTicks; tick++ {
			tr.encodeTick(enc, tick, next)
			wantSamples += tr.samplesAt(tick)
			var n int
			var err error
			if format == formatJSONL {
				n, err = dec.PushJSONL(bytes.NewReader(enc.buf))
			} else {
				n, err = dec.PushExposition(string(enc.buf))
			}
			if err != nil {
				t.Fatalf("format %d tick %d: %v", format, tick, err)
			}
			if n != tr.samplesAt(tick) {
				t.Fatalf("format %d tick %d: decoder took %d samples, body holds %d", format, tick, n, tr.samplesAt(tick))
			}
		}
		for _, c := range next {
			wantJobs += c
		}
		if sink.samples != wantSamples || sink.jobs != wantJobs {
			t.Fatalf("format %d: sink saw %d samples, %d jobs; trace holds %d, %d",
				format, sink.samples, sink.jobs, wantSamples, wantJobs)
		}
		if sink.width != len(tr.metrics) {
			t.Fatalf("format %d: vectors are %d wide, layout is %d", format, sink.width, len(tr.metrics))
		}
	}
}

type countSink struct{ samples, jobs, width int }

func (s *countSink) RegisterNode(string, []string)   {}
func (s *countSink) ObserveJob(string, int64, int64) { s.jobs++ }
func (s *countSink) Ingest(_ string, _ int64, v []float64) {
	s.samples++
	s.width = len(v)
}

// passHash is the SHA-256 of a whole encoded pass read back from a spool.
func passHash(t *testing.T, w workload, seed int64) [32]byte {
	t.Helper()
	tr := buildTrace(w, seed)
	sp, err := writeSpool(tr, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sp.close() }()
	h := sha256.New()
	buf := make([]byte, sp.maxRec)
	var offs []uint32
	for tick := range sp.recs {
		body, o, err := sp.read(tick, 0, w.passSpan(), buf, offs)
		if err != nil {
			t.Fatal(err)
		}
		offs = o
		h.Write(body)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// TestSeedDeterminism: the same seed gives the same bytes, another seed
// gives other bytes — on both formats.
func TestSeedDeterminism(t *testing.T) {
	for _, format := range []wireFormat{formatJSONL, formatExposition} {
		w := miniWorkload(format)
		a, b, c := passHash(t, w, 11), passHash(t, w, 11), passHash(t, w, 12)
		if a != b {
			t.Errorf("format %d: seed 11 encoded two different passes", format)
		}
		if a == c {
			t.Errorf("format %d: seeds 11 and 12 encoded the same pass", format)
		}
	}
}

// TestSpoolRestampsOnRead: reading tick t for pass k from the spool is the
// in-memory encoding restamped by k passes, and reading never disturbs the
// stored pass 0.
func TestSpoolRestampsOnRead(t *testing.T) {
	w := miniWorkload(formatJSONL)
	tr := buildTrace(w, 2)
	sp, err := writeSpool(tr, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sp.close() }()
	buf := make([]byte, sp.maxRec)
	enc := &bodyEncoder{format: w.format}
	next := make([]int, len(tr.nodes))
	for tick := 0; tick < w.serveTicks; tick++ {
		tr.encodeTick(enc, tick, next)
		for _, pass := range []int64{3, 0} {
			want := append([]byte(nil), enc.buf...)
			if err := restamp(want, enc.offs, w.format.timeWidth(), pass*w.passSpan()); err != nil {
				t.Fatal(err)
			}
			got, _, err := sp.read(tick, pass, w.passSpan(), buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("tick %d pass %d: spool body differs from restamped encoding", tick, pass)
			}
		}
	}
}

func TestRestampRejectsOverflowAndGarbage(t *testing.T) {
	body := []byte(`{"time":9999999990}`)
	if err := restamp(body, []uint32{8}, 10, 5); err != nil {
		t.Fatalf("in-range restamp: %v", err)
	}
	if !strings.Contains(string(body), "9999999995") {
		t.Fatalf("restamp wrote %s", body)
	}
	if err := restamp(body, []uint32{8}, 10, 10); err == nil {
		t.Error("restamp past ten digits did not fail")
	}
	if err := restamp([]byte(`{"time":12345x7890}`), []uint32{8}, 10, 1); err == nil {
		t.Error("restamp over a non-digit did not fail")
	}
}

// TestPacerLateness drives the pacer with a fake clock: on-time sends
// sleep exactly to their slot and report zero lateness; a send that
// overran charges the next slots by how far behind the schedule is.
func TestPacerLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	now := start
	clock := func() time.Time { return now }
	var slept []time.Duration
	sleep := func(d time.Duration) { slept = append(slept, d); now = now.Add(d) }
	p := newPacer(start, 100) // 10 ms slots

	if late := p.wait(0, clock, sleep); late != 0 || len(slept) != 0 {
		t.Fatalf("send 0: late %v, slept %v", late, slept)
	}
	now = now.Add(2 * time.Millisecond) // the send took 2 ms
	if late := p.wait(1, clock, sleep); late != 0 || slept[len(slept)-1] != 8*time.Millisecond {
		t.Fatalf("send 1: late %v, slept %v", late, slept)
	}
	now = now.Add(27 * time.Millisecond) // a stall: slots 2 and 3 are missed
	n := len(slept)
	if late := p.wait(2, clock, sleep); late != 17*time.Millisecond || len(slept) != n {
		t.Fatalf("send 2 after a stall: late %v, slept %v", late, slept[n:])
	}
	if late := p.wait(3, clock, sleep); late != 7*time.Millisecond || len(slept) != n {
		t.Fatalf("send 3 after a stall: late %v, slept %v", late, slept[n:])
	}
	if late := p.wait(4, clock, sleep); late != 0 || slept[len(slept)-1] != 3*time.Millisecond {
		t.Fatalf("send 4 back on schedule: late %v, slept %v", late, slept[n:])
	}
	if got := p.due(250).Sub(start); got != 2500*time.Millisecond {
		t.Fatalf("due(250) = start + %v", got)
	}
}
