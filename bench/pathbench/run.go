package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/obs"
)

// endToEndMetrics and perLayerMetrics are the names a run reports, in
// BENCHMARK.json's order; the smoke test holds them against that file.
var endToEndMetrics = []string{
	"setup_s", "cpu_ms_per_window", "allocs_per_window", "rss_mb",
}

var perLayerMetrics = []string{
	"ingest.intake.ns_per_body",
	"ingest.decode_jsonl.ns_per_sample", "ingest.decode_jsonl.allocs_per_sample",
	"ingest.decode_expo.ns_per_sample", "ingest.decode_expo.allocs_per_sample",
	"ingest.router.enqueue_ns_per_sample", "ingest.router.queue_wait_p50_ms", "ingest.router.queue_wait_p99_ms",
	"ingest.router.blocked_share", "ingest.router.shard_skew", "ingest.router.dropped",
	"runtime.assemble.ns_per_sample", "runtime.assemble.allocs_per_sample", "runtime.score_call.ns_per_window",
	"runtime.batch.mean_fill", "runtime.batch.wait_p50_ms", "runtime.threshold.ns_per_window",
	"runtime.webhook.ns_per_alert", "runtime.alerts.delivered", "runtime.alerts.dropped",
	"runtime.node_state.bytes_per_node",
	"core.match.ns_per_call", "core.match.allocs_per_call", "core.match.calls",
	"core.score_seq.ns_per_window", "core.score_b1.ns_per_window", "core.score_b8.ns_per_window",
	"core.score_b64.ns_per_window", "core.score.allocs_per_window", "core.preprocess.ns_per_window",
	"core.load.ms", "core.clone.ms", "core.model.bytes",
	"core.train.preprocess_s", "core.train.features_s", "core.train.hac_s", "core.train.models_s",
	"nn.forward_b1.ns_per_window", "nn.forward_b8.ns_per_window", "nn.forward_b64.ns_per_window",
	"nn.attention.ns_per_window", "nn.moe.ns_per_window", "nn.moe.expert_imbalance", "nn.forward.allocs_per_window",
	"mat.mul_into.serial_gflops", "mat.mul_into.batched_gflops", "mat.mul_t_into.batched_gflops",
	"features.segment_vector.ns_per_call", "cluster.assign.ns_per_call",
	"diagnose.alarm.ns_per_alert", "summary.observe.ns_per_alert", "summary.fold_ratio",
	"daemon.start.ms", "daemon.close.ms",
	"proc.gc.cycles", "proc.gc.pause_ms", "proc.heap_live_mb",
	"windows_per_s", "score_latency_p50_ms", "score_latency_p90_ms", "score_latency_p99_ms", "alert_latency_p50_ms", "alert_latency_p90_ms", "detect_auc",
	"gen.late_p99_ms", "gen.cpu_share",
	"trace.overhead_pct", "trace.cpu_attributed_pct",
	"trace.share.ingest_pct", "trace.share.runtime_pct", "trace.share.match_pct", "trace.share.model_pct",
	"trace.share.alert_pct", "trace.share.gc_pct", "trace.share.gen_pct",
}

// run executes one benchmark run and returns the result restricted to the
// metrics its mode reports.
func run(cfg runConfig) (*result, error) {
	runtime.GOMAXPROCS(benchProcs)
	// The generator is this goroutine. Pinning it to its thread makes its
	// CPU time readable (gen.cpu_share) in both modes alike.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if cfg.setupReps <= 0 {
		cfg.setupReps = setupReps
	}
	h := &harness{cfg: cfg, res: &result{Metrics: map[string]metric{}}}
	tr := buildTrace(cfg.w, cfg.seed)
	sp, err := writeSpool(tr, cfg.spoolDir)
	if err != nil {
		return nil, err
	}
	defer func() { _ = sp.close() }() // unlinked scratch; nothing to flush
	h.sp = sp

	var det *core.Detector
	var lt *layerTrace
	var summaries []summaryLine
	if cfg.traced {
		det, lt, summaries, err = h.runTraced(tr)
	} else {
		det, err = h.runEndToEnd(tr)
	}
	if err != nil {
		return nil, err
	}

	// The untimed reference replay. The trace is regenerated from the seed:
	// it was dropped before the measured phases to keep it out of rss_mb.
	tr = buildTrace(cfg.w, cfg.seed)
	ref, err := replayReference(tr, det)
	if err != nil {
		return nil, err
	}
	h.check(ref)
	h.res.set("detect_auc", ref.auc, "auc")
	h.res.notef("reference: %d windows and %d alerts per pass, detect_auc %.4f; %d pushes sent",
		ref.ledger.windows, ref.ledger.alerts, ref.auc, h.pushes)

	want := endToEndMetrics
	if cfg.traced {
		want = perLayerMetrics
		if err := h.microRows(tr, det, ref); err != nil {
			return nil, err
		}
		if cfg.spansPath != "" {
			if err := lt.writeSpans(cfg.spansPath, summaries); err != nil {
				return nil, err
			}
			h.res.notef("spans written to %s", cfg.spansPath)
		}
	}
	out := make(map[string]metric, len(want))
	for _, name := range want {
		m, ok := h.res.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not produced", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// An empty sample (a seed whose paced phase raised no alert,
			// say). End-to-end metrics must be numbers; a per-layer one
			// is reported as 0 and said so.
			if !cfg.traced {
				return nil, fmt.Errorf("metric %s has no value", name)
			}
			h.res.notef("%s had no samples; reported as 0", name)
			m.Value = 0
		}
		out[name] = m
		delete(h.res.Metrics, name)
	}
	for name, m := range h.res.Metrics {
		h.res.notef("also measured: %s = %.6g %s", name, m.Value, m.Unit)
	}
	h.res.Metrics = out
	return h.res, nil
}

// runEndToEnd is the untraced run behind the end-to-end metrics: set-up
// (repeated, median reported), paced phase, saturation phase, shutdown.
func (h *harness) runEndToEnd(tr *trace) (*core.Detector, error) {
	r := h.res
	var (
		stk    *stack
		det    *core.Detector
		totals []float64
		last   setupTimes
	)
	for rep := 0; rep < h.cfg.setupReps; rep++ {
		if stk != nil {
			if _, err := h.retire(fmt.Sprintf("set-up %d", rep), stk); err != nil {
				return nil, err
			}
		}
		var err error
		if stk, det, last, err = h.setup(tr, nil); err != nil {
			return nil, err
		}
		totals = append(totals, last.total.Seconds())
	}
	r.set("setup_s", median(totals), "s")
	r.notef("setup_s: %d set-ups %.3f s; last: train %v, load %v, daemon.New %v, warm-up pass %v; HeapSys after training %.0f MB",
		len(totals), totals, last.train.Round(time.Millisecond), last.load.Round(time.Millisecond),
		last.start.Round(time.Millisecond), last.warm.Round(time.Millisecond), last.heapSysMB)

	// Everything set-up needed and serving does not — the trace, the
	// training frames, the discarded detectors — goes back to the OS
	// before the resident set is watched.
	tr = nil
	debug.FreeOSMemory()
	rss, err := startRSSSampler()
	if err != nil {
		return nil, err
	}

	pacedPasses, pacedSec := h.cfg.w.pacedPasses(0.4*h.cfg.seconds, 1)
	ps, err := h.paced(stk, pacedPasses)
	if err != nil {
		return nil, err
	}
	satBudget := time.Duration((h.cfg.seconds - pacedSec) * float64(time.Second))
	passes, err := h.saturate(stk, satBudget, 5)
	if err != nil {
		return nil, err
	}
	r.set("rss_mb", rss.stop(), "MB")
	if _, err := h.retire("measured", stk); err != nil {
		return nil, err
	}

	h.reportPaced(ps)
	s := h.summarize("saturation", passes)
	r.set("windows_per_s", s.windowsPerSec, "1/s")
	r.set("cpu_ms_per_window", s.cpuMsPerWindow, "ms")
	r.set("allocs_per_window", s.allocsPerWindow, "count")
	return det, nil
}

// procSnapshot is the process-level state read at phase boundaries.
type procSnapshot struct {
	cpu, genCPU, gcCPU float64
	numGC              uint32
	pauseNs            uint64
}

func takeProcSnapshot() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{
		cpu: cpuSeconds(), genCPU: threadCPUSeconds(), gcCPU: gcCPUSeconds(),
		numGC: ms.NumGC, pauseNs: ms.PauseTotalNs,
	}
}

// heapLiveMB is the heap the last collection found live.
func heapLiveMB() float64 { return runtimeMetric("/gc/heap/live:bytes") / (1 << 20) }

// runTraced is the run behind the per-layer metrics: one timed set-up and
// a short untraced saturation phase through the literal daemon (the base
// of trace.overhead_pct), then the traced replica through warm-up, paced
// and saturation phases.
func (h *harness) runTraced(tr *trace) (*core.Detector, *layerTrace, []summaryLine, error) {
	r, w := h.res, h.cfg.w
	tracer := obs.NewTracer(nil)
	stk, det, st, err := h.setup(tr, tracer)
	if err != nil {
		return nil, nil, nil, err
	}
	stages := map[string]float64{}
	for _, rec := range tracer.Records() {
		stages[rec.Stage] += rec.Wall().Seconds()
	}
	r.set("core.train.preprocess_s", stages["preprocess"], "s")
	r.set("core.train.features_s", stages["features"], "s")
	r.set("core.train.hac_s", stages["hac"], "s")
	r.set("core.train.models_s", stages["train_models"], "s")
	r.set("core.load.ms", st.load.Seconds()*1e3, "ms")
	r.set("core.model.bytes", float64(st.modelBytes), "B")
	r.set("daemon.start.ms", st.start.Seconds()*1e3, "ms")
	r.set("setup_s", st.total.Seconds(), "s")
	t0 := time.Now()
	if _, err := det.Clone(); err != nil {
		return nil, nil, nil, fmt.Errorf("clone: %w", err)
	}
	r.set("core.clone.ms", time.Since(t0).Seconds()*1e3, "ms")

	layouts, nodes := tr.layouts(), tr.nodes
	tr = nil
	debug.FreeOSMemory()

	base, err := h.saturate(stk, time.Duration(0.2*h.cfg.seconds*float64(time.Second)), 3)
	if err != nil {
		return nil, nil, nil, err
	}
	untraced := h.summarize("untraced saturation (daemon.New)", base)
	took, err := h.retire("untraced", stk)
	if err != nil {
		return nil, nil, nil, err
	}
	r.set("daemon.close.ms", took.Seconds()*1e3, "ms")

	stk, lt, err := startTraced(det, w, nodes, layouts)
	if err != nil {
		return nil, nil, nil, err
	}
	h.lt = lt
	if err := h.warmUp(stk); err != nil {
		_ = stk.close()
		return nil, nil, nil, err
	}

	// Three passes at least: the alert-latency tail needs a hundred alerts.
	pacedPasses, _ := w.pacedPasses(0.3*h.cfg.seconds, 3)
	lt.pacedFirst.Store(h.pass * int64(w.serveTicks))
	ps, err := h.paced(stk, pacedPasses)
	if err != nil {
		_ = stk.close()
		return nil, nil, nil, err
	}

	lt.satFirst.Store(h.pass * int64(w.serveTicks))
	regBefore := readRegistry(stk.reg)
	before := takeProcSnapshot()
	passes, err := h.saturate(stk, time.Duration(0.3*h.cfg.seconds*float64(time.Second)), 3)
	if err != nil {
		_ = stk.close()
		return nil, nil, nil, err
	}
	after := takeProcSnapshot()
	regAfter := readRegistry(stk.reg)
	r.set("proc.heap_live_mb", heapLiveMB(), "MB")
	skew := maxOverMean(stk.router.ShardLoads())
	if _, err := h.retire("traced", stk); err != nil {
		return nil, nil, nil, err
	}
	h.lt = nil

	h.reportPaced(ps)
	traced := h.summarize("traced saturation (replica with shims)", passes)
	// The throughput reported is the literal daemon's; the replica's only
	// feeds trace.overhead_pct.
	r.set("windows_per_s", untraced.windowsPerSec, "1/s")
	r.set("trace.overhead_pct", 100*(untraced.windowsPerSec-traced.windowsPerSec)/untraced.windowsPerSec, "%")
	r.set("ingest.router.shard_skew", skew, "ratio")
	r.set("ingest.router.dropped", float64(stk.router.Dropped()), "count")
	r.set("runtime.alerts.dropped", float64(stk.mon.Dropped()), "count")
	var delivered int64
	for k := int64(0); k < h.verify[len(h.verify)-1].passes; k++ {
		delivered += stk.col.passes[k].alerts.Load()
	}
	r.set("runtime.alerts.delivered", float64(delivered), "count")
	summaries := h.reportLayers(lt, traced, before, after, regBefore, regAfter)
	return det, lt, summaries, nil
}

// registrySnapshot is the handful of the daemon's own series the traced
// run reads: model and match call counts and time, scored windows.
type registrySnapshot struct {
	scoreCalls, matchCalls, windows int64
	scoreSec, matchSec              float64
}

func readRegistry(reg *obs.Registry) registrySnapshot {
	score := reg.Histogram("nodesentry_score_latency_seconds", obs.LatencyBuckets)
	match := reg.Histogram("nodesentry_match_latency_seconds", obs.LatencyBuckets)
	return registrySnapshot{
		scoreCalls: score.Count(), scoreSec: score.Sum(),
		matchCalls: match.Count(), matchSec: match.Sum(),
		windows: reg.Counter("nodesentry_windows_scored_total").Value(),
	}
}

// reportLayers turns the traced saturation and paced phases into the
// runtime/ingest per-layer metrics, the layer shares, and the span file's
// summary lines. Self time is a span's duration minus what its children
// cover; waits (blocked enqueues, queueing, the alert channel) are listed
// beside it, never inside it.
func (h *harness) reportLayers(lt *layerTrace, sat satSummary, before, after procSnapshot, regBefore, regAfter registrySnapshot) []summaryLine {
	r := h.res
	t := &lt.totals[phaseSat]
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	perN := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}

	samples := t.assembleCalls.Load() + t.scoreCalls.Load()
	r.set("ingest.router.enqueue_ns_per_sample", perN(t.routeNs.Load()-t.blockedNs.Load(), t.routeCalls.Load()-t.blockedCalls.Load()), "ns")
	r.set("ingest.router.blocked_share", perN(t.blockedCalls.Load(), t.routeCalls.Load()), "ratio")
	r.set("runtime.assemble.ns_per_sample", perN(t.assembleNs.Load(), t.assembleCalls.Load()), "ns")
	r.set("runtime.score_call.ns_per_window", perN(t.scoreCallNs.Load(), sat.windows), "ns")

	queue := lt.queueWait[phasePaced].ms()
	r.set("ingest.router.queue_wait_p50_ms", median(queue), "ms")
	if _, v, err := highestPercentile(queue, 90, 99); err == nil {
		r.set("ingest.router.queue_wait_p99_ms", v, "ms")
	} else {
		r.set("ingest.router.queue_wait_p99_ms", quantile(queue, 1), "ms")
	}
	r.set("runtime.batch.wait_p50_ms", median(lt.batchWait[phasePaced].ms()), "ms")

	scoreCalls := regAfter.scoreCalls - regBefore.scoreCalls
	windows := regAfter.windows - regBefore.windows
	r.set("runtime.batch.mean_fill", perN(windows, scoreCalls), "windows")
	matchCalls := regAfter.matchCalls - regBefore.matchCalls
	r.set("core.match.calls", perN(matchCalls, int64(sat.passes)), "1/pass")

	r.set("proc.gc.cycles", float64(after.numGC-before.numGC), "count")
	r.set("proc.gc.pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, "ms")

	// Layer self times over the saturation phase, in ms of wall clock on
	// the goroutine that did the work.
	cpuMs := 1e3 * (after.cpu - before.cpu)
	modelMs := 1e3 * (regAfter.scoreSec - regBefore.scoreSec)
	matchMs := 1e3 * (regAfter.matchSec - regBefore.matchSec)
	decodeMs := ms(t.handleNs.Load() - t.routeNs.Load())
	routeMs := ms(t.routeNs.Load() - t.blockedNs.Load())
	runtimeMs := ms(t.assembleNs.Load()+t.scoreCallNs.Load()) - modelMs - matchMs
	alertMs := ms(t.observeNs.Load() + t.webhookNs.Load())
	gcMs := 1e3 * (after.gcCPU - before.gcCPU)
	genMs := 1e3 * (after.genCPU - before.genCPU)
	share := func(v float64) float64 { return 100 * v / cpuMs }
	r.set("gen.cpu_share", share(genMs)/100, "ratio")
	r.set("trace.share.ingest_pct", share(decodeMs+routeMs), "%")
	r.set("trace.share.runtime_pct", share(runtimeMs), "%")
	r.set("trace.share.match_pct", share(matchMs), "%")
	r.set("trace.share.model_pct", share(modelMs), "%")
	r.set("trace.share.alert_pct", share(alertMs), "%")
	r.set("trace.share.gc_pct", share(gcMs), "%")
	r.set("trace.share.gen_pct", share(genMs), "%")
	r.set("trace.cpu_attributed_pct", share(decodeMs+routeMs+runtimeMs+matchMs+modelMs+alertMs+gcMs+genMs), "%")

	r.notef("layers (saturation, %d samples, %d windows, process CPU %.0f ms): decode %.0f ms, route %.0f ms (+%.0f ms blocked), queue wait %.0f ms, runtime %.0f ms, match %.0f ms, model %.0f ms, alert path %.0f ms (wait %.0f ms), gc %.0f ms, generator %.0f ms",
		samples, sat.windows, cpuMs, decodeMs, routeMs, ms(t.blockedNs.Load()), ms(t.queueNs.Load()),
		runtimeMs, matchMs, modelMs, alertMs, ms(t.alertWaitNs.Load()), gcMs, genMs)

	return []summaryLine{
		{Summary: "saturation", Layer: "process.cpu", SelfMs: cpuMs},
		{Summary: "saturation", Layer: "gen", SelfMs: genMs, N: t.bodies.Load()},
		{Summary: "saturation", Layer: "decode", SelfMs: decodeMs, N: t.bodies.Load()},
		{Summary: "saturation", Layer: "route", SelfMs: routeMs, WaitMs: ms(t.blockedNs.Load()), N: t.routeCalls.Load()},
		{Summary: "saturation", Layer: "queue", WaitMs: ms(t.queueNs.Load()), N: samples},
		{Summary: "saturation", Layer: "monitor.ingest", SelfMs: runtimeMs, N: samples},
		{Summary: "saturation", Layer: "match", SelfMs: matchMs, N: matchCalls},
		{Summary: "saturation", Layer: "score", SelfMs: modelMs, N: windows},
		{Summary: "saturation", Layer: "alert", SelfMs: ms(t.observeNs.Load()), WaitMs: ms(t.alertWaitNs.Load()), N: t.alerts.Load()},
		{Summary: "saturation", Layer: "webhook", SelfMs: ms(t.webhookNs.Load()), N: t.webhookCalls.Load()},
		{Summary: "saturation", Layer: "gc", SelfMs: gcMs},
	}
}
