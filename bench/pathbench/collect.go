package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/eval"
	"nodesentry/internal/runtime"
)

// maxPasses bounds the per-pass ledgers; at the shortest pass the fastest
// machine could manage it is minutes of replay, far beyond the 60-second
// run cap.
const maxPasses = 4096

// epoch anchors the harness's monotonic nanosecond clock.
var epoch = time.Now()

// nowNs is the harness clock: monotonic nanoseconds since start-up.
func nowNs() int64 { return int64(time.Since(epoch)) }

// tickOf is the global tick (pass × ticks-per-pass + tick) of a wire time.
func tickOf(ts int64) int64 { return (ts - baseTime) / stepSec }

// mix64 folds v into h (a multiply-xorshift step); ledger hashes are sums
// of per-item hashes, so they do not depend on the order shards finish in.
func mix64(h, v uint64) uint64 {
	h ^= v
	h *= 0x9E3779B97F4A7C15
	return h ^ (h >> 29)
}

// windowHash identifies one scored window: node, window start relative to
// its pass, and the bit pattern of every score.
func windowHash(node int, relStart int64, scores []float64) uint64 {
	h := mix64(uint64(node)+1, uint64(relStart))
	for _, s := range scores {
		h = mix64(h, math.Float64bits(s))
	}
	return h
}

// alertHash identifies one alert: node, sample time relative to its pass,
// and the score's bit pattern.
func alertHash(node int, relTime int64, score float64) uint64 {
	return mix64(mix64(uint64(node)+1, uint64(relTime)), math.Float64bits(score))
}

// ledger is what one pass produced: how many windows and alerts, and an
// order-independent hash of each set. Two ledgers are equal exactly when
// the passes scored the same windows to the same bits and raised the same
// alerts.
type ledger struct {
	windows, alerts       int64
	windowHash, alertHash uint64
}

type atomicLedger struct {
	windows, alerts       atomic.Int64
	windowHash, alertHash atomic.Uint64
}

func (a *atomicLedger) load() ledger {
	return ledger{
		windows: a.windows.Load(), alerts: a.alerts.Load(),
		windowHash: a.windowHash.Load(), alertHash: a.alertHash.Load(),
	}
}

// probe is the paced phase's latency instrument: the due time of every
// paced send, fixed before the first one leaves, and the samples measured
// against it.
type probe struct {
	// first is the global tick (pass·T + t) of the phase's first send.
	first int64
	due   []int64 // harness-clock ns, one per paced send

	scoreLat []int64
	scoreN   atomic.Int64
	alertLat []int64
	alertN   atomic.Int64
}

// dueOf returns the due time of global tick g, if it belongs to the phase.
func (p *probe) dueOf(g int64) (int64, bool) {
	i := g - p.first
	if i < 0 || i >= int64(len(p.due)) {
		return 0, false
	}
	return p.due[i], true
}

func record(dst []int64, n *atomic.Int64, v int64) {
	if i := n.Add(1) - 1; i < int64(len(dst)) {
		dst[i] = v
	}
}

// raised is what the scoring goroutine knows about an alert the consumer
// has not seen yet.
type raised struct {
	atNs   int64
	winEnd int64 // global tick of the alerted window's last sample
}

type alertKey struct {
	node int
	time int64
}

// collector observes one daemon through its public seams — Monitor.Tap
// hooks on the scoring goroutines, daemon.Config.OnAlert on the consumer —
// and keeps a ledger per pass plus, during the paced phase, latencies.
type collector struct {
	nodeIdx map[string]int
	win     int64
	span    int64 // seconds one pass advances the wire clock

	passes []atomicLedger
	// windows advances once per OnScores; the traced stack's shim reads it
	// around Monitor.Ingest to tell scoring calls from assembling ones.
	windows atomic.Int64
	probe   atomic.Pointer[probe]

	// lastWinEnd[node] is the global tick of the node's newest scored
	// window's last sample; written and read on the node's own scoring
	// goroutine (OnScores, then OnAlert within the same call).
	lastWinEnd []int64

	mu      sync.Mutex
	pending map[alertKey]raised

	// Traced runs only: onWindow receives every scored window (node, the
	// global tick of its last sample, the time it was scored), onAlertSpan
	// every alert's raise → consumer hand-off.
	onWindow    func(node int, endTick, nowNs int64)
	onAlertSpan func(tick, raisedNs, seenNs int64)
}

func newCollector(nodes []string, win int, w workload) *collector {
	c := &collector{
		nodeIdx:    make(map[string]int, len(nodes)),
		win:        int64(win),
		span:       w.passSpan(),
		passes:     make([]atomicLedger, maxPasses),
		lastWinEnd: make([]int64, len(nodes)),
		pending:    map[alertKey]raised{},
	}
	for i, n := range nodes {
		c.nodeIdx[n] = i
	}
	return c
}

// hooks returns the Monitor.Tap set.
func (c *collector) hooks() runtime.Hooks {
	return runtime.Hooks{OnScores: c.onScores, OnAlert: c.onRaise}
}

// locate splits a wire time into its pass and the time relative to it.
func (c *collector) locate(ts int64) (pass, rel int64) {
	off := ts - baseTime
	pass = off / c.span
	return pass, off - pass*c.span
}

func (c *collector) onScores(node string, _ int, start int64, scores []float64) {
	now := nowNs()
	i := c.nodeIdx[node]
	pass, rel := c.locate(start)
	end := tickOf(start) + int64(len(scores)) - 1
	c.lastWinEnd[i] = end
	c.windows.Add(1)
	if pass >= 0 && pass < maxPasses {
		l := &c.passes[pass]
		l.windows.Add(1)
		l.windowHash.Add(windowHash(i, rel, scores))
	}
	if p := c.probe.Load(); p != nil {
		if due, ok := p.dueOf(end); ok {
			record(p.scoreLat, &p.scoreN, now-due)
		}
	}
	if c.onWindow != nil {
		c.onWindow(i, end, now)
	}
}

// onRaise runs on the scoring goroutine right after the window's OnScores:
// it pins the alert to the window that produced it.
func (c *collector) onRaise(a runtime.Alert) {
	i := c.nodeIdx[a.Node]
	tick := tickOf(a.Time)
	end := c.lastWinEnd[i]
	// The sequential path may score several contiguous windows before it
	// delivers their alerts; walk back to the one holding the sample.
	for tick <= end-c.win {
		end -= c.win
	}
	c.mu.Lock()
	c.pending[alertKey{i, a.Time}] = raised{atNs: nowNs(), winEnd: end}
	c.mu.Unlock()
}

// onAlert is daemon.Config.OnAlert: the alert has been through the
// consumer (summarizer hand-off, webhook) and is what an operator sees.
func (c *collector) onAlert(a runtime.Alert) {
	now := nowNs()
	i := c.nodeIdx[a.Node]
	pass, rel := c.locate(a.Time)
	if pass >= 0 && pass < maxPasses {
		l := &c.passes[pass]
		l.alerts.Add(1)
		l.alertHash.Add(alertHash(i, rel, a.Score))
	}
	key := alertKey{i, a.Time}
	c.mu.Lock()
	r, ok := c.pending[key]
	delete(c.pending, key)
	c.mu.Unlock()
	if !ok {
		return
	}
	if c.onAlertSpan != nil {
		c.onAlertSpan(tickOf(a.Time), r.atNs, now)
	}
	if p := c.probe.Load(); p != nil {
		if due, ok := p.dueOf(r.winEnd); ok {
			record(p.alertLat, &p.alertN, now-due)
		}
	}
}

// reference is the bare replay every daemon pass is held against.
type reference struct {
	ledger ledger
	// auc is eval.AdjustedAUC of the replay's scores against the trace's
	// fault labels, pooled over nodes.
	auc float64
	// alerts are the replay's alerts, the inputs of the alert-path micro
	// rows.
	alerts []runtime.Alert
}

// replayReference feeds pass 0 of the trace — the original float vectors,
// not the wire bodies — through a bare single-goroutine runtime.Monitor on
// the sequential ScoreFrame path: no HTTP, decoder, router or batching.
// The daemon must reproduce its windows bit for bit and its alerts one for
// one, whatever its own topology.
func replayReference(tr *trace, det *core.Detector) (reference, error) {
	mon, err := runtime.NewMonitor(det, runtime.Config{
		Step: stepSec, ScoringWorkers: 1,
		// Every alert of the pass must fit: nothing drains the channel
		// until the replay is over.
		AlertBuffer: tr.w.serveTicks * len(tr.nodes),
	})
	if err != nil {
		return reference{}, err
	}
	col := newCollector(tr.nodes, det.WindowLen(), tr.w)
	T := tr.w.serveTicks
	scores := make([][]float64, len(tr.nodes))
	for i := range scores {
		scores[i] = make([]float64, T)
	}
	mon.SetHooks(runtime.Hooks{OnScores: func(node string, cl int, start int64, s []float64) {
		col.onScores(node, cl, start, s)
		copy(scores[col.nodeIdx[node]][tickOf(start):], s)
	}})
	for _, n := range tr.nodes {
		mon.RegisterNode(n, tr.metrics)
	}
	next := make([]int, len(tr.nodes))
	vec := make([]float64, len(tr.metrics))
	for t := 0; t < T; t++ {
		for i, node := range tr.nodes {
			if t < tr.firstTick(i) {
				continue
			}
			tr.tickEvents(i, t, next, func(job, start int64) { mon.ObserveJob(node, job, start) })
			f := tr.serve[node]
			for m := range f.Data {
				vec[m] = f.Data[m][t]
			}
			mon.Ingest(node, baseTime+int64(t)*stepSec, vec)
		}
	}
	mon.Close()
	var ref reference
	for a := range mon.Alerts() {
		col.onAlert(a)
		ref.alerts = append(ref.alerts, a)
	}
	ref.ledger = col.passes[0].load()
	if d := mon.Dropped(); d != 0 {
		ref.ledger.alerts += d // surfaces as a mismatch against any daemon pass
	}

	// Pooled AUC: nodes are concatenated with one ignored sample between
	// them so a fault at a node's last tick cannot merge with the next
	// node's first.
	var all []float64
	var label, ignore []bool
	for i, node := range tr.nodes {
		f := tr.serve[node]
		all = append(append(all, scores[i]...), 0)
		label = append(append(label, tr.labels.Mask(f)...), false)
		ignore = append(append(ignore, eval.TransitionIgnoreMask(f, tr.spans[node], stepSec)...), true)
	}
	ref.auc = eval.AdjustedAUC(all, label, ignore)
	return ref, nil
}
