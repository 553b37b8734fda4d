package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/ingest"
	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
	"nodesentry/internal/summary"
)

// Phases of a traced stack's life; a sample's phase follows from its tick,
// not from a flag, because the queues lag the generator.
const (
	phaseWarm = iota
	phasePaced
	phaseSat
	numPhases
)

// blockedNs is the enqueue duration beyond which the decoder counts as
// blocked on a full shard queue (ingest.router.blocked_share).
const blockedNs = int64(time.Millisecond)

// ringMask sizes the per-node timestamp rings: a sample can wait in a
// 256-event shard queue for a handful of ticks, never a thousand.
const ringMask = 1023

// maxBodies bounds the per-body span table (paced + saturation ticks).
const maxBodies = 1 << 16

// maxWaitSamples bounds the queue-wait and batch-wait sample buffers.
const maxWaitSamples = 1 << 20

// layerTotals are one phase's sums over every seam the harness owns.
type layerTotals struct {
	bodies, handleNs          atomic.Int64
	routeCalls, routeNs       atomic.Int64
	blockedCalls, blockedNs   atomic.Int64
	queueNs                   atomic.Int64
	assembleCalls, assembleNs atomic.Int64
	scoreCalls, scoreCallNs   atomic.Int64
	// alerts and alertWaitNs cover raise → consumer; observeNs is what
	// the consumer then spent (summarizer hand-off), webhookNs what the
	// sink spent delivering.
	alerts, alertWaitNs                   atomic.Int64
	observeNs                             atomic.Int64
	webhookCalls, webhookNs, webhookFails atomic.Int64
}

// bodySpan is the trace of one push body: the spans of its journey share
// the body's sequence number (its global tick) as trace id.
type bodySpan struct {
	sendNs, ackNs         int64 // generator: write → 202 read
	handleStart, handleNs int64 // server handler (intake + decode + route)
	routeNs, blockedNs    int64 // Σ decoder→router sink calls; Σ of the blocked ones
	events                int64
	queueNs, ingestNs     atomic.Int64 // Σ over the body's samples (two shard goroutines)
	ingestCalls           atomic.Int64
}

// alertSpan is one alert's hand-off from the scoring goroutine to the
// consumer.
type alertSpan struct {
	tick, raisedNs, seenNs int64
}

// layerTrace is the traced stack's recorder. Spans live in memory and are
// written out once, after the stack has stopped.
type layerTrace struct {
	nodeIdx map[string]int
	// pacedFirst/satFirst are the global ticks at which the phases begin.
	pacedFirst, satFirst atomic.Int64
	// cur is the global tick of the body in flight (one connection, one
	// request at a time), set by the generator before it sends.
	cur atomic.Int64

	totals [numPhases]layerTotals
	bodies []bodySpan

	// enq[node][tick&ringMask] is when the sample was handed to the
	// router; ing[...] when Monitor.Ingest was called with it.
	enq, ing [][]int64

	queueWait, batchWait [numPhases]*waitBuf

	mu     sync.Mutex
	alerts []alertSpan

	windows func() int64 // scored-window counter (collector)
}

// waitBuf is a fixed-capacity, append-only sample buffer for concurrent
// writers.
type waitBuf struct {
	v []int64
	n atomic.Int64
}

func newWaitBuf(capacity int) *waitBuf { return &waitBuf{v: make([]int64, capacity)} }

func (b *waitBuf) add(v int64) { record(b.v, &b.n, v) }

func (b *waitBuf) ms() []float64 { return latencyMs(b.v, b.n.Load()) }

func newLayerTrace(nodes []string, col *collector) *layerTrace {
	lt := &layerTrace{
		nodeIdx: col.nodeIdx,
		bodies:  make([]bodySpan, maxBodies),
		enq:     make([][]int64, len(nodes)),
		ing:     make([][]int64, len(nodes)),
		windows: col.windows.Load,
	}
	lt.pacedFirst.Store(math.MaxInt64)
	lt.satFirst.Store(math.MaxInt64)
	for i := range nodes {
		lt.enq[i] = make([]int64, ringMask+1)
		lt.ing[i] = make([]int64, ringMask+1)
	}
	for p := range lt.queueWait {
		capacity := maxWaitSamples
		if p == phaseWarm {
			capacity = 0 // warm-up waits are not reported
		}
		lt.queueWait[p] = newWaitBuf(capacity)
		lt.batchWait[p] = newWaitBuf(capacity)
	}
	return lt
}

// phaseOf places a global tick in its phase.
func (lt *layerTrace) phaseOf(tick int64) int {
	switch {
	case tick >= lt.satFirst.Load():
		return phaseSat
	case tick >= lt.pacedFirst.Load():
		return phasePaced
	}
	return phaseWarm
}

// body returns the span record of a global tick, nil outside the traced
// phases.
func (lt *layerTrace) body(tick int64) *bodySpan {
	i := tick - lt.pacedFirst.Load()
	if i < 0 || i >= int64(len(lt.bodies)) {
		return nil
	}
	return &lt.bodies[i]
}

// handler times the intake handler: everything the server does for one
// body between reading it and answering 202.
func (lt *layerTrace) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := nowNs()
		next.ServeHTTP(w, r)
		d := nowNs() - t0
		tick := lt.cur.Load()
		tot := &lt.totals[lt.phaseOf(tick)]
		tot.bodies.Add(1)
		tot.handleNs.Add(d)
		if b := lt.body(tick); b != nil {
			b.handleStart, b.handleNs = t0, d
		}
	})
}

// routeShim sits between the decoder and the router: its call durations
// are the `route` span (enqueue, including any wait for queue space).
type routeShim struct {
	lt   *layerTrace
	next ingest.Sink
}

func (s routeShim) RegisterNode(node string, metrics []string) { s.next.RegisterNode(node, metrics) }

func (s routeShim) ObserveJob(node string, job, start int64) {
	t0 := nowNs()
	s.next.ObserveJob(node, job, start)
	s.lt.routed(s.lt.cur.Load(), nowNs()-t0)
}

func (s routeShim) Ingest(node string, ts int64, values []float64) {
	tick := tickOf(ts)
	t0 := nowNs()
	s.lt.enq[s.lt.nodeIdx[node]][tick&ringMask] = t0
	s.next.Ingest(node, ts, values)
	s.lt.routed(tick, nowNs()-t0)
}

func (lt *layerTrace) routed(tick, d int64) {
	tot := &lt.totals[lt.phaseOf(tick)]
	tot.routeCalls.Add(1)
	tot.routeNs.Add(d)
	b := lt.body(tick)
	if b != nil {
		b.routeNs += d
		b.events++
	}
	if d > blockedNs {
		tot.blockedCalls.Add(1)
		tot.blockedNs.Add(d)
		if b != nil {
			b.blockedNs += d
		}
	}
}

// ingestShim sits between the router and the monitor: the gap since the
// hand-off to the router is the `queue` wait, its call durations are the
// `monitor.ingest` span, and the scored-window counter tells scoring calls
// from assembling ones.
type ingestShim struct {
	lt   *layerTrace
	next ingest.Sink
}

func (s ingestShim) RegisterNode(node string, metrics []string) { s.next.RegisterNode(node, metrics) }

func (s ingestShim) ObserveJob(node string, job, start int64) {
	// A transition flushes the batcher, so this call can score windows.
	// It carries no sample time; charge it to the body in flight.
	tick := s.lt.cur.Load()
	w0, t0 := s.lt.windows(), nowNs()
	s.next.ObserveJob(node, job, start)
	s.lt.ingested(tick, nowNs()-t0, s.lt.windows() != w0)
}

func (s ingestShim) Ingest(node string, ts int64, values []float64) {
	lt := s.lt
	tick := tickOf(ts)
	i := lt.nodeIdx[node]
	w0, t0 := lt.windows(), nowNs()
	wait := t0 - lt.enq[i][tick&ringMask]
	lt.ing[i][tick&ringMask] = t0
	s.next.Ingest(node, ts, values)
	d := nowNs() - t0
	p := lt.phaseOf(tick)
	lt.totals[p].queueNs.Add(wait)
	lt.queueWait[p].add(wait)
	if b := lt.body(tick); b != nil {
		b.queueNs.Add(wait)
	}
	lt.ingested(tick, d, lt.windows() != w0)
}

func (lt *layerTrace) ingested(tick, d int64, scored bool) {
	tot := &lt.totals[lt.phaseOf(tick)]
	if scored {
		tot.scoreCalls.Add(1)
		tot.scoreCallNs.Add(d)
	} else {
		tot.assembleCalls.Add(1)
		tot.assembleNs.Add(d)
	}
	if b := lt.body(tick); b != nil {
		b.ingestNs.Add(d)
		b.ingestCalls.Add(1)
	}
}

// windowScored is the collector's OnScores tap: how long the window's last
// sample waited between entering Monitor.Ingest and being scored — batch
// fill wait plus the model call itself.
func (lt *layerTrace) windowScored(node int, endTick, now int64) {
	lt.batchWait[lt.phaseOf(endTick)].add(now - lt.ing[node][endTick&ringMask])
}

// startTraced stands up the same topology daemon.New builds for these
// configurations — monitor, alert consumer (summarizer, webhook sink),
// shard router, decoder with pre-registered layouts, intake server — by
// hand, because the timing shims must sit between decoder and router and
// between router and monitor, and daemon.Config has no seam there. The
// end-to-end metrics never come from this replica; trace.overhead_pct
// says how far it runs from the literal daemon.
func startTraced(det *core.Detector, w workload, nodes []string, layouts map[string][]string) (*stack, *layerTrace, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("intake listener: %w", err)
	}
	s := &stack{reg: obs.NewRegistry(), col: newCollector(nodes, det.WindowLen(), w), addr: ln.Addr().String()}
	lt := newLayerTrace(nodes, s.col)
	s.col.onWindow = lt.windowScored
	mon, err := runtime.NewMonitor(det, runtime.Config{
		Step: stepSec, ScoringWorkers: benchWorkers, BatchWindows: w.batchWindows, Metrics: s.reg,
	})
	if err != nil {
		_ = ln.Close()
		return nil, nil, err
	}
	mon.Tap(s.col.hooks())
	s.mon = mon

	var sum *summary.Summarizer
	sumDone := make(chan struct{})
	if w.alertTier {
		if s.hook, err = startHookReceiver(); err != nil {
			_ = ln.Close()
			mon.Close()
			return nil, nil, err
		}
		sink := &runtime.WebhookSink{URL: s.hook.url, Metrics: s.reg}
		scfg := *replaySummary()
		scfg.Metrics = s.reg
		// Delivery failures surface as a short runtime.alerts.delivered
		// count; the receiver is in-process and does not fail.
		scfg.OnRaw = func(e summary.Event) {
			if a, ok := e.Raw.(runtime.Alert); ok {
				lt.webhook(tickOf(a.Time), func() error { return sink.Send(a) })
			}
		}
		scfg.OnIncident = func(inc summary.Incident, tr summary.Transition) {
			if tr != summary.Opened && tr != summary.Resolved {
				return
			}
			if body, err := summary.WebhookJSON(inc, tr); err == nil {
				lt.webhook(lt.cur.Load(), func() error { return sink.SendRaw(body) })
			}
		}
		sum = summary.New(scfg)
		go func() {
			defer close(sumDone)
			// Background never cancels; Run exits via Summarizer.Close.
			sum.Run(context.Background())
		}()
	} else {
		close(sumDone)
	}

	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range mon.Alerts() {
			seen := nowNs()
			if sum != nil {
				sum.Observe(summary.FromAlert(a))
			}
			lt.totals[lt.phaseOf(tickOf(a.Time))].observeNs.Add(nowNs() - seen)
			s.col.onAlert(a)
		}
	}()
	s.col.onAlertSpan = lt.alertSeen

	s.router = ingest.NewShardRouter(ingestShim{lt: lt, next: mon}, ingest.RouterConfig{
		Shards: benchShards, QueueSize: benchQueueSize, Policy: ingest.Block, Metrics: s.reg,
	})
	dec := ingest.NewDecoder(routeShim{lt: lt, next: s.router}, ingest.DecoderConfig{Metrics: s.reg})
	for node, metrics := range layouts {
		dec.Register(node, metrics)
	}
	intake := ingest.NewIntake(dec, ingest.IntakeConfig{Metrics: s.reg})
	srv := &http.Server{
		Handler:           lt.handler(intake.Handler()),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Upstream to downstream, as Daemon.Close drains.
	s.stop = func(ctx context.Context) error {
		err := srv.Shutdown(ctx)
		if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		s.router.Drain()
		mon.Close()
		consumer.Wait()
		if sum != nil {
			sum.Close()
		}
		<-sumDone
		return err
	}
	s.bindDepth()
	return s, lt, nil
}

// webhook times one delivery through the sink.
func (lt *layerTrace) webhook(tick int64, send func() error) {
	t0 := nowNs()
	err := send()
	tot := &lt.totals[lt.phaseOf(tick)]
	tot.webhookCalls.Add(1)
	tot.webhookNs.Add(nowNs() - t0)
	if err != nil {
		tot.webhookFails.Add(1)
	}
}

// alertSeen is the collector's raise→consumer tap.
func (lt *layerTrace) alertSeen(tick, raisedNs, seenNs int64) {
	tot := &lt.totals[lt.phaseOf(tick)]
	tot.alerts.Add(1)
	tot.alertWaitNs.Add(seenNs - raisedNs)
	lt.mu.Lock()
	lt.alerts = append(lt.alerts, alertSpan{tick: tick, raisedNs: raisedNs, seenNs: seenNs})
	lt.mu.Unlock()
}

// spanLine is one record of the span file.
type spanLine struct {
	Trace  int64  `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns,omitempty"`
	Dur    int64  `json:"dur_ns"`
	// Self is Dur minus the part child spans cover.
	Self int64 `json:"self_ns"`
	// Wait is time spent waiting, not working: blocked on a full queue,
	// sitting in one, or parked on the alert channel.
	Wait int64 `json:"wait_ns,omitempty"`
	N    int64 `json:"n,omitempty"`
}

// summaryLine is one layer's total over a phase, appended after the spans.
type summaryLine struct {
	Summary string  `json:"summary"`
	Layer   string  `json:"layer"`
	SelfMs  float64 `json:"self_ms"`
	WaitMs  float64 `json:"wait_ms,omitempty"`
	N       int64   `json:"n,omitempty"`
}

// writeSpans writes the span file: per body push → decode → route → queue
// → monitor.ingest, per alert alert → deliver, then the layer summaries.
func (lt *layerTrace) writeSpans(path string, summaries []summaryLine) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("span file: %w", cerr)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	first := lt.pacedFirst.Load()
	for i := range lt.bodies {
		b := &lt.bodies[i]
		if b.sendNs == 0 {
			continue
		}
		tick := first + int64(i)
		lines := []spanLine{
			{Trace: tick, Span: "push", Start: b.sendNs, Dur: b.ackNs - b.sendNs, Self: b.ackNs - b.sendNs - b.handleNs},
			{Trace: tick, Span: "decode", Parent: "push", Start: b.handleStart, Dur: b.handleNs, Self: b.handleNs - b.routeNs},
			{Trace: tick, Span: "route", Parent: "decode", Dur: b.routeNs, Self: b.routeNs - b.blockedNs, Wait: b.blockedNs, N: b.events},
			{Trace: tick, Span: "queue", Parent: "route", Wait: b.queueNs.Load(), N: b.ingestCalls.Load()},
			{Trace: tick, Span: "monitor.ingest", Parent: "queue", Dur: b.ingestNs.Load(), Self: b.ingestNs.Load(), N: b.ingestCalls.Load()},
		}
		for _, l := range lines {
			if err := enc.Encode(l); err != nil {
				return fmt.Errorf("span file: %w", err)
			}
		}
	}
	lt.mu.Lock()
	alerts := lt.alerts
	lt.mu.Unlock()
	for _, a := range alerts {
		l := spanLine{Trace: a.tick, Span: "alert", Parent: "monitor.ingest", Start: a.raisedNs, Wait: a.seenNs - a.raisedNs}
		if err := enc.Encode(l); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
	}
	for _, s := range summaries {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
