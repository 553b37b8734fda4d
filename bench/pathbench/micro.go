package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"nodesentry/internal/cluster"
	"nodesentry/internal/core"
	"nodesentry/internal/diagnose"
	"nodesentry/internal/features"
	"nodesentry/internal/ingest"
	"nodesentry/internal/mat"
	"nodesentry/internal/mts"
	"nodesentry/internal/nn"
	nsruntime "nodesentry/internal/runtime"
	"nodesentry/internal/summary"
)

// Micro rows time one layer's public function directly, on inputs taken
// from the run's own trace. Each is the fastest of microRounds timed
// rounds of microBudget — interference only ever slows a round down, so
// the fastest is the one nearest the code's own cost. They are diagnostic,
// ungated numbers.
const (
	microRounds = 5
	microBudget = 25 * time.Millisecond
)

// microResult is one micro row: cost per op() call.
type microResult struct {
	ns, allocs float64
}

// measure times op: one untimed call to warm caches and arenas, then
// microRounds rounds of at least budget each.
func (h *harness) measure(op func()) microResult {
	budget := h.cfg.microBudget
	if budget <= 0 {
		budget = microBudget
	}
	op()
	var ns, allocs []float64
	for r := 0; r < microRounds; r++ {
		m0, t0, n := mallocs(), time.Now(), 0
		for time.Since(t0) < budget {
			op()
			n++
		}
		el := time.Since(t0)
		ns = append(ns, float64(el)/float64(n))
		allocs = append(allocs, float64(mallocs()-m0)/float64(n))
	}
	return microResult{ns: quantile(ns, 0), allocs: median(allocs)}
}

// nopSink swallows decoded telemetry, so decoder rows time decoding alone.
type nopSink struct{}

func (nopSink) RegisterNode(string, []string)   {}
func (nopSink) ObserveJob(string, int64, int64) {}
func (nopSink) Ingest(string, int64, []float64) {}

// discardWriter is the ResponseWriter of the intake micro row.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// microBodies encodes the first n serve ticks in the given format.
func microBodies(tr *trace, format wireFormat, n int) (bodies [][]byte, samples int) {
	enc := &bodyEncoder{format: format}
	next := make([]int, len(tr.nodes))
	for t := 0; t < n && t < tr.w.serveTicks; t++ {
		tr.encodeTick(enc, t, next)
		bodies = append(bodies, append([]byte(nil), enc.buf...))
		samples += tr.samplesAt(t)
	}
	return bodies, samples
}

// microRows fills in every per-layer metric that is a micro row.
func (h *harness) microRows(tr *trace, det *core.Detector, ref reference) error {
	r, measure := h.res, h.measure
	d, err := det.Clone()
	if err != nil {
		return fmt.Errorf("micro: %w", err)
	}
	W := d.WindowLen()

	// --- ingest: decoders and the intake handler on this trace's bodies ---
	const microTicks = 40
	dec := ingest.NewDecoder(nopSink{}, ingest.DecoderConfig{})
	for _, n := range tr.nodes {
		dec.Register(n, tr.metrics)
	}
	var decodeErr error
	note := func(err error) {
		if err != nil && decodeErr == nil {
			decodeErr = err
		}
	}
	jsonBodies, jsonSamples := microBodies(tr, formatJSONL, microTicks)
	mj := measure(func() {
		for _, b := range jsonBodies {
			_, err := dec.PushJSONL(bytes.NewReader(b))
			note(err)
		}
	})
	r.set("ingest.decode_jsonl.ns_per_sample", mj.ns/float64(jsonSamples), "ns")
	r.set("ingest.decode_jsonl.allocs_per_sample", mj.allocs/float64(jsonSamples), "count")

	expoBodies, expoSamples := microBodies(tr, formatExposition, microTicks)
	expoText := make([]string, len(expoBodies))
	for i, b := range expoBodies {
		expoText[i] = string(b)
	}
	me := measure(func() {
		for _, b := range expoText {
			_, err := dec.PushExposition(b)
			note(err)
		}
	})
	r.set("ingest.decode_expo.ns_per_sample", me.ns/float64(expoSamples), "ns")
	r.set("ingest.decode_expo.allocs_per_sample", me.allocs/float64(expoSamples), "count")

	// The intake's own share of a body: the whole handler minus the
	// decoder call it wraps, on the workload's own wire format. The two
	// are timed back to back on each body, so that whatever the machine is
	// doing at that moment slows both and cancels in the difference.
	handler := ingest.NewIntake(dec, ingest.IntakeConfig{}).Handler()
	dw := &discardWriter{h: http.Header{}}
	var handlerNs, decodeNs time.Duration
	var bodies int
	measure(func() {
		own := jsonBodies
		if tr.w.format == formatExposition {
			own = expoBodies
		}
		for i, b := range own {
			req, err := http.NewRequest(http.MethodPost, "/push", bytes.NewReader(b))
			if err != nil {
				note(err)
				return
			}
			req.Header.Set("Content-Type", tr.w.format.contentType())
			t0 := time.Now()
			handler.ServeHTTP(dw, req)
			t1 := time.Now()
			if tr.w.format == formatExposition {
				_, err = dec.PushExposition(expoText[i])
			} else {
				_, err = dec.PushJSONL(bytes.NewReader(b))
			}
			note(err)
			handlerNs += t1.Sub(t0)
			decodeNs += time.Since(t1)
			bodies++
		}
	})
	intake := float64(handlerNs-decodeNs) / float64(bodies)
	if intake < 0 {
		intake = 0
	}
	r.set("ingest.intake.ns_per_body", intake, "ns")
	if decodeErr != nil {
		return fmt.Errorf("micro: decode: %w", decodeErr)
	}

	// --- frames from the trace: one probe and a pool of windows ---
	probeLen := int(d.MatchPeriodSec() / stepSec)
	probe := tr.serve[tr.nodes[0]].Slice(0, probeLen)
	clusterOf := d.MatchPattern(probe).Cluster
	const pool = 64
	frames := make([]*mts.NodeFrame, pool)
	offsets := make([]int, pool)
	for i := range frames {
		f := tr.serve[tr.nodes[i%len(tr.nodes)]]
		lo := (i / len(tr.nodes) * W) % (f.Len() - W)
		frames[i] = f.Slice(lo, lo+W)
		offsets[i] = 100 + lo
	}

	// --- core ---
	mm := measure(func() { d.MatchPattern(probe) })
	r.set("core.match.ns_per_call", mm.ns, "ns")
	r.set("core.match.allocs_per_call", mm.allocs, "count")
	i := 0
	ms := measure(func() { d.ScoreFrame(frames[i%pool], clusterOf, offsets[i%pool]); i++ })
	r.set("core.score_seq.ns_per_window", ms.ns, "ns")
	for _, b := range []int{1, 8, 64} {
		b := b
		m := measure(func() { d.ScoreFrameBatch(frames[:b], clusterOf, offsets[:b]) })
		r.set(fmt.Sprintf("core.score_b%d.ns_per_window", b), m.ns/float64(b), "ns")
		if b == 8 {
			r.set("core.score.allocs_per_window", m.allocs/float64(b), "count")
		}
	}
	mp := measure(func() { d.Preprocess(frames[i%pool]); i++ })
	r.set("core.preprocess.ns_per_window", mp.ns, "ns")

	// --- nn: the trained architecture, fresh weights ---
	cfg := core.DefaultOptions().Model
	cfg.InputDim = len(d.ReducedMetricNames())
	cfg.UseMoE, cfg.SegmentAwarePE, cfg.Seed = true, true, 1
	model, err := nn.NewReconstructor(cfg)
	if err != nil {
		return fmt.Errorf("micro: %w", err)
	}
	rng := rand.New(rand.NewSource(1))
	randMat := func(rows, cols int) *mat.Matrix {
		m := mat.New(rows, cols)
		for k := range m.Data {
			m.Data[k] = rng.NormFloat64()
		}
		return m
	}
	for _, b := range []int{1, 8, 64} {
		x := randMat(b*W, cfg.InputDim)
		pos, seg := make([]int, b*W), make([]int, b*W)
		for k := range pos {
			pos[k] = 100 + k%W
		}
		m := measure(func() { model.ForwardWindows(x, W, pos, seg) })
		r.set(fmt.Sprintf("nn.forward_b%d.ns_per_window", b), m.ns/float64(b), "ns")
		if b == 8 {
			r.set("nn.forward.allocs_per_window", m.allocs/float64(b), "count")
			r.set("nn.moe.expert_imbalance", expertImbalance(model.ExpertLoads()), "ratio")
		}
	}
	// The layers below run outside a Reconstructor, so without its arena:
	// they allocate their outputs, which the in-model path does not.
	tokens := randMat(W, cfg.ModelDim)
	attn, err := nn.NewMultiHeadAttention(cfg.ModelDim, cfg.Heads, rng)
	if err != nil {
		return fmt.Errorf("micro: %w", err)
	}
	r.set("nn.attention.ns_per_window", measure(func() { attn.Forward(tokens) }).ns, "ns")
	moe, err := nn.NewMoE(cfg.ModelDim, cfg.Hidden, cfg.Experts, cfg.TopK, rng)
	if err != nil {
		return fmt.Errorf("micro: %w", err)
	}
	r.set("nn.moe.ns_per_window", measure(func() { moe.Forward(tokens) }).ns, "ns")

	// --- mat: one window's projection (serial) and a batch of 8 (above
	// the kernels' fan-out threshold) ---
	gflops := func(rows int, mul func(dst, a, b *mat.Matrix)) float64 {
		a, b, dst := randMat(rows, cfg.ModelDim), randMat(cfg.ModelDim, cfg.ModelDim), mat.New(rows, cfg.ModelDim)
		m := measure(func() { mul(dst, a, b) })
		return 2 * float64(rows*cfg.ModelDim*cfg.ModelDim) / m.ns
	}
	r.set("mat.mul_into.serial_gflops", gflops(W, mat.MulInto), "GFLOP/s")
	r.set("mat.mul_into.batched_gflops", gflops(8*W, mat.MulInto), "GFLOP/s")
	r.set("mat.mul_t_into.batched_gflops", gflops(8*W, mat.MulTInto), "GFLOP/s")

	// --- features / cluster: the two halves of a pattern match ---
	reduced := d.Preprocess(probe)
	seg := mts.Segment{Node: reduced.Node, Job: mts.IdleJobID, Lo: 0, Hi: reduced.Len()}
	r.set("features.segment_vector.ns_per_call", measure(func() { features.SegmentVector(reduced, seg) }).ns, "ns")
	vec := features.SegmentVector(reduced, seg)
	centroids := mat.New(tr.w.clusters, len(vec))
	for c := 0; c < centroids.Rows; c++ {
		for k, v := range vec {
			centroids.Row(c)[k] = v + float64(c)
		}
	}
	r.set("cluster.assign.ns_per_call", measure(func() { cluster.Assign(vec, centroids) }).ns, "ns")

	// --- runtime: threshold, assembly allocations, per-node state ---
	hist := make([]float64, 100)
	for k := range hist {
		hist[k] = 1 + 0.1*rng.NormFloat64()
	}
	winSec, k := d.OnlineParams()
	r.set("runtime.threshold.ns_per_window", measure(func() { core.KSigmaThreshold(hist, stepSec, winSec, k) }).ns, "ns")
	assembleAllocs, bytesPerNode, err := monitorState(tr, det)
	if err != nil {
		return err
	}
	r.set("runtime.assemble.allocs_per_sample", assembleAllocs, "count")
	r.set("runtime.node_state.bytes_per_node", bytesPerNode, "B")

	// --- alert path, on the reference replay's alerts ---
	return h.alertRows(tr, d, ref.alerts)
}

// expertImbalance is the busiest expert's token count over the mean, for
// the first encoder block of the latest forward pass.
func expertImbalance(loads [][]int) float64 {
	if len(loads) == 0 {
		return 0
	}
	return maxOverMean(loads[0])
}

// maxOverMean is the largest load over the mean load (1 = balanced).
func maxOverMean[T int | int64](loads []T) float64 {
	var sum, max T
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(loads)) / float64(sum)
}

// monitorState drives a bare monitor node by node to read two things no
// timing can: allocations per assembled sample (the nineteen Ingest calls
// between two windows of a matched node), and the heap a node's streaming
// state keeps (the growth from holding the second half of the fleet, the
// detector clones and arenas being warm by then).
func monitorState(tr *trace, det *core.Detector) (assembleAllocs, bytesPerNode float64, err error) {
	mon, err := nsruntime.NewMonitor(det, nsruntime.Config{
		Step: stepSec, ScoringWorkers: 1, AlertBuffer: tr.w.serveTicks * len(tr.nodes),
	})
	if err != nil {
		return 0, 0, fmt.Errorf("micro: %w", err)
	}
	defer mon.Close()
	W := det.WindowLen()
	probeLen := int(det.MatchPeriodSec() / stepSec)
	// Matched at sample probeLen-1, with probeLen/W windows scored; the
	// next W-1 samples only assemble.
	quiet := W - 1 - probeLen%W
	vec := make([]float64, len(tr.metrics))
	var allocs uint64
	var calls int
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	feed := func(node string, t int) {
		f := tr.serve[node]
		for m := range f.Data {
			vec[m] = f.Data[m][t]
		}
		mon.Ingest(node, baseTime+int64(t)*stepSec, vec)
	}
	half := len(tr.nodes) / 2
	var atHalf uint64
	for i, node := range tr.nodes {
		if i == half {
			atHalf = heap()
		}
		mon.RegisterNode(node, tr.metrics)
		mon.ObserveJob(node, 1, baseTime)
		for t := 0; t < probeLen; t++ {
			feed(node, t)
		}
		m0 := mallocs()
		for t := probeLen; t < probeLen+quiet; t++ {
			feed(node, t)
		}
		allocs += mallocs() - m0
		calls += quiet
	}
	atEnd := heap()
	if calls > 0 {
		assembleAllocs = float64(allocs) / float64(calls)
	}
	if n := len(tr.nodes) - half; n > 0 && atEnd > atHalf {
		bytesPerNode = float64(atEnd-atHalf) / float64(n)
	}
	return assembleAllocs, bytesPerNode, nil
}

// alertRows times what one alert costs after it is raised: diagnosis,
// the summarizer hand-off, and webhook delivery to a loopback receiver.
func (h *harness) alertRows(tr *trace, d *core.Detector, alerts []nsruntime.Alert) error {
	r, measure := h.res, h.measure
	if len(alerts) == 0 {
		// A trace without a single alert still reports the rows: time
		// them on one synthetic alert on the first node.
		alerts = []nsruntime.Alert{{Node: tr.nodes[0], Time: baseTime + 100*stepSec, Score: 9}}
	}
	W := d.WindowLen()
	i := 0
	md := measure(func() {
		a := alerts[i%len(alerts)]
		i++
		f := tr.serve[a.Node]
		tick := int(tickOf(a.Time))
		lo := tick - tick%W
		if lo+W > f.Len() {
			lo = f.Len() - W
		}
		diagnose.Alarm(d, f.Slice(lo, lo+W), tick-lo, 3)
	})
	r.set("diagnose.alarm.ns_per_alert", md.ns, "ns")

	scfg := replaySummary()
	sum := summary.New(*scfg)
	now := time.Now()
	mo := measure(func() {
		sum.Observe(summary.FromAlert(alerts[i%len(alerts)]))
		if i++; i%1024 == 0 {
			sum.Flush(now)
		}
	})
	sum.Close()
	r.set("summary.observe.ns_per_alert", mo.ns, "ns")

	// Fold ratio: the pass's alerts through a fresh summarizer, flushed at
	// the cadence the paced phase would give it.
	fold := summary.New(*scfg)
	perFlush := int64(scfg.Window.Seconds() * tr.w.pacedTicksPerSec)
	if perFlush < 1 {
		perFlush = 1
	}
	lastFlush := int64(0)
	for _, a := range alerts {
		tick := tickOf(a.Time)
		for ; lastFlush+perFlush <= tick; lastFlush += perFlush {
			now = now.Add(scfg.Window)
			fold.Flush(now)
		}
		fold.Observe(summary.FromAlert(a))
	}
	fold.Close()
	if st := fold.Stats(); st.Observed > 0 {
		r.set("summary.fold_ratio", float64(st.Folded)/float64(st.Observed), "ratio")
	} else {
		r.set("summary.fold_ratio", 0, "ratio")
	}

	hook, err := startHookReceiver()
	if err != nil {
		return err
	}
	sink := &nsruntime.WebhookSink{URL: hook.url}
	var sendErr error
	mw := measure(func() {
		if err := sink.Send(alerts[i%len(alerts)]); err != nil && sendErr == nil {
			sendErr = err
		}
		i++
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hook.close(ctx); err != nil {
		return fmt.Errorf("micro: webhook receiver: %w", err)
	}
	if sendErr != nil {
		return fmt.Errorf("micro: webhook: %w", sendErr)
	}
	r.set("runtime.webhook.ns_per_alert", mw.ns, "ns")
	return nil
}
