package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/obs"
)

// runConfig is one benchmark run.
type runConfig struct {
	w        workload
	seed     int64
	seconds  float64
	traced   bool
	spoolDir string
	// spansPath receives the traced run's span file ("" = none).
	spansPath string
	// setupReps overrides how often set-up is repeated, microBudget the
	// length of a micro-row round (tests shrink both).
	setupReps   int
	microBudget time.Duration
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports: the contract's four keys, plus notes for
// a human (sample counts, quartiles) that never reach the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records n failed operations with the reason.
func (r *result) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.notef("FAILED x%d: %s", n, fmt.Sprintf(format, args...))
}

func rusageSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return math.NaN() // cannot fail for a valid who and pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 { return rusageSeconds(syscall.RUSAGE_SELF) }

// threadCPUSeconds is the calling thread's CPU time so far; the generator
// goroutine is locked to its thread, so this is the generator's own cost.
func threadCPUSeconds() float64 { return rusageSeconds(syscall.RUSAGE_THREAD) }

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// gcCPUSeconds is the collector's cumulative CPU time (runtime/metrics'
// estimate, refreshed at the end of each cycle).
func gcCPUSeconds() float64 { return runtimeMetric("/cpu/classes/gc/total:cpu-seconds") }

// runtimeMetric reads one scalar runtime/metrics value (0 when this
// toolchain does not export it).
func runtimeMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	}
	return 0
}

// rssSampler tracks the process's peak resident set over the measured
// phases by reading /proc/self/status four times a second into a fixed
// buffer (no allocation, so it does not perturb what it measures).
type rssSampler struct {
	f     *os.File
	stopC chan struct{}
	wg    sync.WaitGroup
	maxKB int64
}

func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return nil, fmt.Errorf("rss sampler: %w", err)
	}
	s := &rssSampler{f: f, stopC: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopC:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s, nil
}

func (s *rssSampler) sample() {
	var buf [4096]byte
	n, err := s.f.ReadAt(buf[:], 0)
	if n == 0 && err != nil {
		return
	}
	if kb := parseVmRSS(buf[:n]); kb > s.maxKB {
		s.maxKB = kb
	}
}

// parseVmRSS extracts the VmRSS value (kB) from /proc/self/status text.
func parseVmRSS(status []byte) int64 {
	i := bytes.Index(status, []byte("VmRSS:"))
	if i < 0 {
		return 0
	}
	var kb int64
	seen := false
	for _, c := range status[i+len("VmRSS:"):] {
		if c >= '0' && c <= '9' {
			kb = kb*10 + int64(c-'0')
			seen = true
		} else if seen {
			break
		}
	}
	return kb
}

// stop ends sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopC)
	s.wg.Wait()
	s.sample()
	_ = s.f.Close() // read-only descriptor
	return float64(s.maxKB) / 1024
}

// harness is the state one run threads through its phases.
type harness struct {
	cfg runConfig
	res *result
	sp  *spool
	// pass is the next pass index of the current stack.
	pass int64
	// lt, when set, is the traced stack's recorder: the generator tells it
	// which body is in flight and when it left and was acknowledged.
	lt *layerTrace
	// pushes / pushFailures count HTTP sends and non-202 answers.
	pushes, pushFailures int64
	// verify lists the passes of every retired stack.
	verify []verifyItem
}

type verifyItem struct {
	label  string
	col    *collector
	passes int64
}

// setupTimes are the stages of one set-up.
type setupTimes struct {
	total, train, load, start, warm time.Duration
	modelBytes                      int
	heapSysMB                       float64
}

// setup performs one full set-up: Train → Save → Load → start the stack →
// one unmeasured warm-up pass.
func (h *harness) setup(tr *trace, tracer *obs.Tracer) (*stack, *core.Detector, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	in := tr.train
	in.Trace = tracer
	trained, err := core.Train(in, tr.options())
	if err != nil {
		return nil, nil, st, fmt.Errorf("train: %w", err)
	}
	st.train = time.Since(t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.heapSysMB = float64(ms.HeapSys) / (1 << 20)

	var snap bytes.Buffer
	if err := trained.Save(&snap); err != nil {
		return nil, nil, st, fmt.Errorf("save: %w", err)
	}
	st.modelBytes = snap.Len()
	t1 := time.Now()
	det, err := core.Load(&snap)
	if err != nil {
		return nil, nil, st, fmt.Errorf("load: %w", err)
	}
	st.load = time.Since(t1)

	t2 := time.Now()
	stk, err := startDaemon(det, h.cfg.w, tr.nodes, tr.layouts())
	if err != nil {
		return nil, nil, st, err
	}
	st.start = time.Since(t2)

	t3 := time.Now()
	if err := h.warmUp(stk); err != nil {
		_ = stk.close()
		return nil, nil, st, err
	}
	st.warm = time.Since(t3)
	st.total = time.Since(t0)
	return stk, det, st, nil
}

// warmUp replays pass 0 of a fresh stack closed-loop, unmeasured: caches
// fill, arenas grow, every node is registered and matched once.
func (h *harness) warmUp(stk *stack) error {
	snd, err := newSender(stk.addr, h.sp, h.cfg.w.passSpan())
	if err != nil {
		return err
	}
	defer func() { _ = snd.close() }() // the pass is over; nothing to flush
	h.pass = 0
	return h.replay(snd, h.cfg.w.serveTicks, nil)
}

// replay sends n consecutive ticks starting at the current pass boundary,
// closed-loop on the 202 — the next body leaves when the previous one was
// accepted — calling before(i) ahead of send i, and advances h.pass by the
// whole passes sent.
func (h *harness) replay(snd *sender, n int, before func(i int)) error {
	T := h.cfg.w.serveTicks
	for i := 0; i < n; i++ {
		if before != nil {
			before(i)
		}
		pass := h.pass + int64(i/T)
		var b *bodySpan
		if h.lt != nil {
			tick := pass*int64(T) + int64(i%T)
			h.lt.cur.Store(tick)
			if b = h.lt.body(tick); b != nil {
				b.sendNs = nowNs()
			}
		}
		status, err := snd.send(i%T, pass)
		if err != nil {
			return err
		}
		if b != nil {
			b.ackNs = nowNs()
		}
		h.pushes++
		if status != 202 {
			h.pushFailures++
		}
	}
	h.pass += int64(n / T)
	return nil
}

// pacedStats is what the open-loop phase measured.
type pacedStats struct {
	probe *probe
	// lateMs is how late each send left, against its due time.
	lateMs []float64
	// depthFirst/depthSecond are the mean router backlog seen just before
	// each send, over the two halves of the phase.
	depthFirst, depthSecond float64
}

// paced replays whole passes open-loop at the workload's fixed tick rate.
// Every send has a due time fixed before the phase starts; latencies are
// taken from it, so a stall charges every send it delays.
func (h *harness) paced(stk *stack, passes int) (pacedStats, error) {
	w := h.cfg.w
	n := passes * w.serveTicks
	snd, err := newSender(stk.addr, h.sp, w.passSpan())
	if err != nil {
		return pacedStats{}, err
	}
	defer func() { _ = snd.close() }() // the phase is over; nothing to flush

	// Windows per pass never exceed samples/window; alerts are rarer.
	capacity := passes * (w.serveTicks*w.nodes/int(stk.col.win) + w.nodes)
	p := &probe{
		first:    h.pass * int64(w.serveTicks),
		due:      make([]int64, n),
		scoreLat: make([]int64, capacity),
		alertLat: make([]int64, capacity),
	}
	pc := newPacer(time.Now().Add(10*time.Millisecond), w.pacedTicksPerSec)
	for i := range p.due {
		p.due[i] = int64(pc.due(i).Sub(epoch))
	}
	stk.col.probe.Store(p)

	ps := pacedStats{probe: p, lateMs: make([]float64, 0, n)}
	var sumFirst, sumSecond float64
	err = h.replay(snd, n, func(i int) {
		late := pc.wait(i, time.Now, time.Sleep)
		ps.lateMs = append(ps.lateMs, float64(late)/1e6)
		if d := stk.queueDepth(); i < n/2 {
			sumFirst += d
		} else {
			sumSecond += d
		}
	})
	ps.depthFirst = sumFirst / float64(n/2)
	ps.depthSecond = sumSecond / float64(n-n/2)
	return ps, err
}

// pacedPasses is how many whole passes fill about budget seconds at the
// workload's paced rate (at least min).
func (w workload) pacedPasses(budget float64, min int) (passes int, seconds float64) {
	passSec := float64(w.serveTicks) / w.pacedTicksPerSec
	passes = int(math.Round(budget / passSec))
	if passes < min {
		passes = min
	}
	return passes, float64(passes) * passSec
}

// passSample is one saturation pass.
type passSample struct {
	wall    time.Duration
	cpu     float64
	mallocs uint64
	windows int64
}

// saturate replays passes closed-loop until budget has elapsed (at least
// minPasses), sampling wall, CPU, allocations and scored windows at every
// pass boundary. The pipeline stays full across boundaries, so a pass is
// the interval between two pass starts, not a drained batch.
func (h *harness) saturate(stk *stack, budget time.Duration, minPasses int) ([]passSample, error) {
	snd, err := newSender(stk.addr, h.sp, h.cfg.w.passSpan())
	if err != nil {
		return nil, err
	}
	defer func() { _ = snd.close() }() // the phase is over; nothing to flush
	var out []passSample
	begin := time.Now()
	for len(out) < minPasses || time.Since(begin) < budget {
		t0, c0, m0, w0 := time.Now(), cpuSeconds(), mallocs(), stk.col.windows.Load()
		if err := h.replay(snd, h.cfg.w.serveTicks, nil); err != nil {
			return out, err
		}
		out = append(out, passSample{
			wall:    time.Since(t0),
			cpu:     cpuSeconds() - c0,
			mallocs: mallocs() - m0,
			windows: stk.col.windows.Load() - w0,
		})
	}
	return out, nil
}

// satSummary is the saturation phase reduced to per-pass medians.
type satSummary struct {
	windowsPerSec, cpuMsPerWindow, allocsPerWindow float64
	passes                                         int
	windows                                        int64
	cpu                                            float64
	wall                                           time.Duration
}

// summarize reduces saturation passes to medians across passes and notes
// the quartiles beside them.
func (h *harness) summarize(label string, passes []passSample) satSummary {
	var wps, cpuMs, allocs []float64
	var s satSummary
	for _, p := range passes {
		if p.windows == 0 {
			continue
		}
		wps = append(wps, float64(p.windows)/p.wall.Seconds())
		cpuMs = append(cpuMs, 1e3*p.cpu/float64(p.windows))
		allocs = append(allocs, float64(p.mallocs)/float64(p.windows))
		s.windows += p.windows
		s.cpu += p.cpu
		s.wall += p.wall
	}
	s.passes = len(wps)
	s.windowsPerSec, s.cpuMsPerWindow, s.allocsPerWindow = median(wps), median(cpuMs), median(allocs)
	h.res.notef("%s: %d passes, %d windows; q1/median/q3 windows/s %.0f / %.0f / %.0f; CPU ms/window %.3f / %.3f / %.3f; allocs/window %.1f / %.1f / %.1f",
		label, s.passes, s.windows, quantile(wps, 0.25), median(wps), quantile(wps, 0.75),
		quantile(cpuMs, 0.25), median(cpuMs), quantile(cpuMs, 0.75),
		quantile(allocs, 0.25), median(allocs), quantile(allocs, 0.75))
	return s
}

// retire closes a stack and queues its passes for verification.
func (h *harness) retire(label string, stk *stack) (time.Duration, error) {
	t0 := time.Now()
	err := stk.close()
	took := time.Since(t0)
	h.verify = append(h.verify, verifyItem{label: label, col: stk.col, passes: h.pass})
	h.res.fail(stk.router.Dropped(), "%s: samples dropped by the router", label)
	h.res.fail(stk.mon.Dropped(), "%s: alerts dropped by the monitor", label)
	return took, err
}

// check holds every completed pass of every retired stack against the
// reference replay and settles the attempted/failed counts.
func (h *harness) check(ref reference) {
	r := h.res
	r.Attempted += h.pushes
	r.fail(h.pushFailures, "pushes not answered 202")
	for _, v := range h.verify {
		for k := int64(0); k < v.passes; k++ {
			got := v.col.passes[k].load()
			r.Attempted += ref.ledger.windows + ref.ledger.alerts
			r.fail(abs64(got.windows-ref.ledger.windows), "%s pass %d: %d windows scored, reference %d",
				v.label, k, got.windows, ref.ledger.windows)
			r.fail(abs64(got.alerts-ref.ledger.alerts), "%s pass %d: %d alerts, reference %d",
				v.label, k, got.alerts, ref.ledger.alerts)
			if got.windows == ref.ledger.windows && got.windowHash != ref.ledger.windowHash {
				r.fail(1, "%s pass %d: window scores differ from the reference", v.label, k)
			}
			if got.alerts == ref.ledger.alerts && got.alertHash != ref.ledger.alertHash {
				r.fail(1, "%s pass %d: alert set differs from the reference", v.label, k)
			}
		}
	}
	r.Correct = r.Failed == 0
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// latencyMs converts a probe's nanosecond samples to milliseconds.
func latencyMs(ns []int64, n int64) []float64 {
	if n > int64(len(ns)) {
		n = int64(len(ns))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(ns[i]) / 1e6
	}
	return out
}

// reportPaced turns the paced phase into latency metrics, and fails the
// run when the rate was not sustained.
func (h *harness) reportPaced(ps pacedStats) {
	r := h.res
	score := latencyMs(ps.probe.scoreLat, ps.probe.scoreN.Load())
	alert := latencyMs(ps.probe.alertLat, ps.probe.alertN.Load())
	r.set("score_latency_p50_ms", median(score), "ms")
	r.set("alert_latency_p50_ms", median(alert), "ms")
	r.notef("paced: %d sends at %.0f ticks/s; score latency p50 %.2f ms over %d windows; alert latency p50 %.2f ms over %d alerts",
		len(ps.lateMs), h.cfg.w.pacedTicksPerSec, median(score), len(score), median(alert), len(alert))
	// Tails: the named percentile when ten samples lie beyond it, else the
	// highest one the sample supports (said in the note).
	tail := func(name string, vals []float64, want float64) {
		p, v, err := highestPercentile(vals, 50, 75, 90, want)
		if err != nil {
			p, v = 50, median(vals)
		}
		r.set(name, v, "ms")
		if p < want {
			r.notef("paced: %s is p%g — %d samples do not support p%g", name, p, len(vals), want)
		}
	}
	tail("score_latency_p90_ms", score, 90)
	tail("score_latency_p99_ms", score, 99)
	tail("alert_latency_p90_ms", alert, 90)
	tail("gen.late_p99_ms", ps.lateMs, 99)
	late := 0
	for _, l := range ps.lateMs {
		if l > lateLimitMs {
			late++
		}
	}
	r.notef("paced: generator late > %.0f ms on %d of %d sends (p50 %.3f ms, max %.3f ms); router backlog %.1f → %.1f events",
		lateLimitMs, late, len(ps.lateMs), median(ps.lateMs), quantile(ps.lateMs, 1), ps.depthFirst, ps.depthSecond)
	// The rate was not sustained when the backlog grew by more than one
	// body's worth of events between the halves of the phase and ended up
	// filling a quarter of the shard queues: latencies measured against
	// such a phase describe the queue, not the daemon.
	r.Attempted++
	if ps.depthSecond-ps.depthFirst > float64(h.cfg.w.nodes) && ps.depthSecond > benchShards*benchQueueSize/4 {
		r.fail(1, "paced phase backlog grew from %.1f to %.1f events", ps.depthFirst, ps.depthSecond)
	}
}
