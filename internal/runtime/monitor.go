// Package runtime implements the paper's deployment workflow (§5.1,
// Fig. 7): telemetry samples stream in per node, job transitions arrive
// from the scheduler, NodeSentry matches each new job's pattern after a
// short observation period, scores windows in real time, applies the
// dynamic threshold, and emits prioritized alerts with a fault-level
// diagnosis attached.
//
// Concurrency model: collectors may call Ingest and ObserveJob from any
// goroutine. Per-node state is guarded by a per-node mutex. Every window
// reaches the model the same way: it is queued on the scoring lane its
// node is bound to and scored when that lane is flushed (see lane.go), so
// ScoringWorkers lanes score concurrently and one node's windows stay in
// order. Alerts are delivered on a buffered channel; if the consumer falls
// behind, alerts are counted as dropped rather than blocking ingestion.
package runtime

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/diagnose"
	"nodesentry/internal/mts"
	"nodesentry/internal/obs"
)

// Alert is one prioritized anomaly notification.
type Alert struct {
	Node  string
	Time  int64
	Job   int64
	Score float64
	// Priority grows with how far the score exceeded the threshold.
	Priority Priority
	// Diagnosis attributes the alarm to metrics and a Table 1 fault level.
	Diagnosis diagnose.Report
	// Epoch identifies the detector generation that scored the alerted
	// window: 1 is the generation NewMonitor installed, and each
	// SwapDetector increments it. Consumers use it to attribute alerts
	// across a hot swap.
	Epoch int64
}

// Priority grades an alert.
type Priority int

// Alert priorities.
const (
	Warning Priority = iota
	Critical
)

// Config parameterizes a Monitor.
type Config struct {
	// Step is the sampling interval in seconds.
	Step int64
	// ScoringWorkers is the number of scoring lanes, each with its own
	// detector clone (default 2). Nodes are spread over the lanes round-
	// robin in the order the monitor first sees them.
	ScoringWorkers int
	// AlertBuffer is the alert channel capacity (default 256).
	AlertBuffer int
	// CooldownSec suppresses repeat alerts per node within the window
	// (default 300 s).
	CooldownSec int64
	// Metrics, when non-nil, receives the monitor's operational series
	// (ingest/alert counters, match/score latency histograms, per-node
	// threshold and backlog gauges — see DESIGN.md's observability
	// appendix). A nil registry disables instrumentation at the cost of
	// one nil check per record; detection output is identical either way.
	Metrics *obs.Registry
	// Logger, when non-nil, receives structured runtime events (job
	// transitions at Debug, alert drops at Warn). Nil disables logging.
	Logger *slog.Logger
	// BatchWindows is how many windows a scoring lane lets queue up before
	// it scores them: the queued windows that share a cluster go through
	// the model as one stacked invocation (core.ScoreFrameBatch). 0 or 1
	// is a batch of one — the Ingest call that completes a window scores it
	// before returning. Scores and alerts are byte-identical at every
	// value; only dispatch cost and latency change.
	BatchWindows int
	// BatchMaxDelay bounds how long a queued window may wait for batch
	// companions before the next Ingest on its lane flushes it anyway
	// (default 250 ms). Tests that need deterministic batches set it high
	// and call Flush explicitly.
	BatchMaxDelay time.Duration
}

// criticalFactor promotes an alert to Critical when its score sits this many
// times above the trailing window mean.
const criticalFactor = 2

func (c Config) withDefaults() Config {
	if c.ScoringWorkers <= 0 {
		c.ScoringWorkers = 2
	}
	if c.AlertBuffer <= 0 {
		c.AlertBuffer = 256
	}
	if c.CooldownSec <= 0 {
		c.CooldownSec = 300
	}
	if c.BatchMaxDelay <= 0 {
		c.BatchMaxDelay = 250 * time.Millisecond
	}
	return c
}

// sampleRing buffers a node's samples since its last consumed window:
// row-major values, width values per row, plus one timestamp per row. It
// holds the post-transition probe until the pattern is matched and the
// partial window afterwards, so it never outgrows the longer of the two.
type sampleRing struct {
	width int
	n     int // rows held
	vals  []float64
	ts    []int64
}

// push appends one sample, conforming it to the ring's width while writing
// the row (a short vector is NaN-padded, a long one truncated), and reports
// whether the vector had the registered shape. rows is the capacity to
// grow to when the ring is full.
func (r *sampleRing) push(ts int64, values []float64, rows int) bool {
	if r.n == len(r.ts) {
		rows = max(rows, 2*r.n, 1)
		//lint:ignore hotalloc grow-once per node: the ring is sized to the longer of probe and window on first use and kept across jobs
		vals, tss := make([]float64, rows*r.width), make([]int64, rows)
		copy(vals, r.vals[:r.n*r.width])
		copy(tss, r.ts[:r.n])
		r.vals, r.ts = vals, tss
	}
	row := r.vals[r.n*r.width : (r.n+1)*r.width]
	for i := copy(row, values); i < len(row); i++ {
		row[i] = math.NaN()
	}
	r.ts[r.n] = ts
	r.n++
	return len(values) == r.width
}

// drop discards the oldest k rows, copying the remainder down.
func (r *sampleRing) drop(k int) {
	copy(r.vals, r.vals[k*r.width:r.n*r.width])
	copy(r.ts, r.ts[k:r.n])
	r.n -= k
}

// nodeState is one node's streaming context.
type nodeState struct {
	mu       sync.Mutex
	node     string
	lane     *lane // fixed at creation
	metrics  []string
	job      int64
	jobStart int64

	ring    sampleRing
	matched bool
	cluster int
	// samples consumed since job start (drives job-aligned positions).
	consumed int
	// score history for the dynamic threshold.
	scores    []float64
	lastAlert int64
	// lastThr is the k-sigma bound the next sample will be compared
	// against, refreshed once per scored window (diagnostic: exported via
	// NodeStatus.Threshold and the per-node threshold gauge).
	lastThr float64

	// lastIngest/lastScored track the node's scoring lag: the newest
	// ingested sample timestamp vs. the newest timestamp covered by a
	// scored window.
	lastIngest int64
	lastScored int64
	// dropped counts this node's alerts discarded by a full alert channel
	// (atomic: bumped outside the node lock on the delivery path).
	dropped atomic.Int64

	// Per-node observability gauges (nil when metrics are disabled).
	thrGauge *obs.Gauge
	bufGauge *obs.Gauge
}

// monMetrics holds the monitor's pre-registered metric handles so the hot
// path never goes through the registry's map lock. Every handle is nil —
// a no-op — when observability is disabled.
type monMetrics struct {
	ingest       *obs.Counter
	unregistered *obs.Counter
	windows      *obs.Counter
	samples      *obs.Counter
	matchLat     *obs.Histogram
	scoreLat     *obs.Histogram
	matchedOK    *obs.Counter
	matchedMiss  *obs.Counter
	alertWarn    *obs.Counter
	alertCrit    *obs.Counter
	delivered    *obs.Counter
	dropped      *obs.Counter
	thrUpdates   *obs.Counter
	shape        *obs.Counter
	nodes        *obs.Gauge
	epoch        *obs.Gauge
	swaps        *obs.Counter
	swapPause    *obs.Histogram
}

func newMonMetrics(r *obs.Registry) monMetrics {
	return monMetrics{
		ingest:       r.Counter("nodesentry_ingest_samples_total"),
		unregistered: r.Counter("nodesentry_ingest_unregistered_total"),
		windows:      r.Counter("nodesentry_windows_scored_total"),
		samples:      r.Counter("nodesentry_samples_scored_total"),
		matchLat:     r.Histogram("nodesentry_match_latency_seconds", obs.LatencyBuckets),
		scoreLat:     r.Histogram("nodesentry_score_latency_seconds", obs.LatencyBuckets),
		matchedOK:    r.Counter("nodesentry_pattern_matches_total", "matched", "true"),
		matchedMiss:  r.Counter("nodesentry_pattern_matches_total", "matched", "false"),
		alertWarn:    r.Counter("nodesentry_alerts_total", "priority", "warning"),
		alertCrit:    r.Counter("nodesentry_alerts_total", "priority", "critical"),
		delivered:    r.Counter("nodesentry_alerts_delivered_total"),
		dropped:      r.Counter("nodesentry_alerts_dropped_total"),
		thrUpdates:   r.Counter("nodesentry_threshold_updates_total"),
		shape:        r.Counter("nodesentry_ingest_shape_mismatch_total"),
		nodes:        r.Gauge("nodesentry_nodes"),
		epoch:        r.Gauge("nodesentry_detector_epoch"),
		swaps:        r.Counter("nodesentry_detector_swaps_total"),
		swapPause:    r.Histogram("nodesentry_detector_swap_pause_seconds", obs.LatencyBuckets),
	}
}

// Hooks observe the monitor's hot path. All callbacks are optional and run
// synchronously with the node's scoring lane locked: OnMatch on the Ingest
// call that filled the probe, OnScores and OnAlert on whichever call
// flushed the lane (the Ingest that filled the batch, or ObserveJob,
// SwapDetector, Flush, Close). So they must be fast, must not call back
// into the Monitor, and must not retain the scores slice (copy it). OnMatch
// and OnScores also run with the node's lock held. The lifecycle drift
// detector and shadow scorer are the intended consumers.
type Hooks struct {
	// OnMatch fires after each pattern match with the assigned cluster,
	// the centroid distance, and whether it fell inside the match radius.
	OnMatch func(node string, cluster int, distance float64, matched bool)
	// OnScores fires after each scored window with the per-sample
	// normalized scores; start is the window's first sample timestamp
	// (Unix seconds), so taps can place the scores on the fleet timeline.
	OnScores func(node string, cluster int, start int64, scores []float64)
	// OnAlert fires for every alert the monitor raises, including ones the
	// alert channel then drops, right after the OnScores of the window that
	// raised it; the node's lock is not held.
	OnAlert func(a Alert)
}

// MergeHooks composes two hook sets: each callback invokes a's then b's,
// skipping nil entries. Used by Monitor.Tap to let multiple observers
// (lifecycle manager, fleetview aggregator) share the single hook slot.
func MergeHooks(a, b Hooks) Hooks {
	out := Hooks{}
	if a.OnMatch != nil || b.OnMatch != nil {
		am, bm := a.OnMatch, b.OnMatch
		out.OnMatch = func(node string, cluster int, distance float64, matched bool) {
			if am != nil {
				am(node, cluster, distance, matched)
			}
			if bm != nil {
				bm(node, cluster, distance, matched)
			}
		}
	}
	if a.OnScores != nil || b.OnScores != nil {
		as, bs := a.OnScores, b.OnScores
		out.OnScores = func(node string, cluster int, start int64, scores []float64) {
			if as != nil {
				as(node, cluster, start, scores)
			}
			if bs != nil {
				bs(node, cluster, start, scores)
			}
		}
	}
	if a.OnAlert != nil || b.OnAlert != nil {
		aa, ba := a.OnAlert, b.OnAlert
		out.OnAlert = func(al Alert) {
			if aa != nil {
				aa(al)
			}
			if ba != nil {
				ba(al)
			}
		}
	}
	return out
}

// Monitor is the streaming detection engine.
type Monitor struct {
	cfg Config
	// lanes are the scoring lanes, fixed at construction; batch is the
	// queue length at which a lane flushes (Config.BatchWindows, at least 1).
	lanes []*lane
	batch int

	mu    sync.Mutex
	nodes map[string]*nodeState

	alerts  chan Alert
	dropped atomic.Int64
	// closeMu serializes deliver against Close so a send can never race a
	// channel close: deliver holds the read side, Close the write side.
	// SwapDetector also holds the read side while it installs the new
	// generation, so SnapshotConsistent's write-side barrier freezes both
	// alert accounting and epoch changes at once.
	closeMu sync.RWMutex
	closed  bool

	// epoch is the current detector generation (1 at construction, +1 per
	// swap); seq advances on every event a consistent snapshot must not
	// tear across (alert accounting, node creation, swaps). swapMu
	// serializes swaps.
	epoch  atomic.Int64
	seq    atomic.Uint64
	swapMu sync.Mutex

	hooks atomic.Pointer[Hooks]

	// win and probeLen cache the detector's window length and its match
	// period in samples, so buffering a sample touches no detector; both
	// change only under every lane's scoring lock (SwapDetector).
	win      atomic.Int64
	probeLen atomic.Int64

	// reg is nil when observability is off; met's handles are then all
	// nil no-ops. obsOn gates the timing reads (time.Now) the no-op
	// handles cannot elide.
	reg   *obs.Registry
	met   monMetrics
	obsOn bool
	log   *slog.Logger
}

// NewMonitor builds a monitor around a trained detector. The detector is
// cloned ScoringWorkers times; the original is left untouched.
func NewMonitor(det *core.Detector, cfg Config) (*Monitor, error) {
	if det == nil {
		return nil, errors.New("runtime: NewMonitor needs a detector")
	}
	if cfg.Step <= 0 {
		return nil, fmt.Errorf("runtime: Config.Step must be a positive sampling interval, got %d", cfg.Step)
	}
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:    cfg,
		lanes:  make([]*lane, cfg.ScoringWorkers),
		batch:  max(cfg.BatchWindows, 1),
		nodes:  map[string]*nodeState{},
		alerts: make(chan Alert, cfg.AlertBuffer),
		reg:    cfg.Metrics,
		met:    newMonMetrics(cfg.Metrics),
		obsOn:  cfg.Metrics != nil,
		log:    cfg.Logger,
	}
	m.epoch.Store(1)
	m.met.epoch.Set(1)
	m.cacheLengths(det)
	for i := range m.lanes {
		clone, err := det.Clone()
		if err != nil {
			return nil, err
		}
		m.lanes[i] = &lane{det: clone, epoch: 1}
	}
	return m, nil
}

// cacheLengths refreshes win and probeLen from det.
func (m *Monitor) cacheLengths(det *core.Detector) {
	m.win.Store(int64(det.WindowLen()))
	m.probeLen.Store(max(det.MatchPeriodSec()/m.cfg.Step, 2))
}

// SetHooks installs (or, with a zero Hooks, clears) the observation hooks.
// Safe to call concurrently with ingestion; in-flight calls may still see
// the previous hooks. SetHooks replaces whatever was installed — observers
// that must coexist with an owner (the lifecycle manager installs hooks in
// NewManager) chain themselves afterwards with Tap instead.
func (m *Monitor) SetHooks(h Hooks) {
	m.hooks.Store(&h)
}

// Tap chains h after any hooks already installed: existing callbacks run
// first, then h's. Intended for wiring-time composition (daemon startup
// attaches the fleetview tap after the lifecycle manager's hooks); it is
// not atomic against a concurrent SetHooks/Tap, so install taps before
// ingestion starts.
func (m *Monitor) Tap(h Hooks) {
	cur := m.hooks.Load()
	if cur == nil {
		m.hooks.Store(&h)
		return
	}
	merged := MergeHooks(*cur, h)
	m.hooks.Store(&merged)
}

// Epoch returns the current detector generation.
func (m *Monitor) Epoch() int64 { return m.epoch.Load() }

// SwapDetector atomically replaces the monitor's detector with det (hot
// swap): it clones det for every lane, then holds every lane's scoring lock
// (taken in index order) while it scores what is still queued with the
// outgoing generation and installs the new one. No window is dropped or
// scored twice — a window is scored by exactly one generation, and alerts
// carry the epoch that scored them. The returned duration is the pause: how
// long the lanes were being taken and held (cloning happens before it
// begins). The old clones are discarded; the caller keeps det.
func (m *Monitor) SwapDetector(det *core.Detector) (time.Duration, error) {
	clones := make([]*core.Detector, len(m.lanes))
	for i := range clones {
		c, err := det.Clone()
		if err != nil {
			return 0, err
		}
		clones[i] = c
	}
	m.swapMu.Lock()
	defer m.swapMu.Unlock()
	epoch, pause := m.install(det, clones)
	m.seq.Add(1)
	m.met.swaps.Inc()
	m.met.epoch.Set(float64(epoch))
	m.met.swapPause.Observe(pause.Seconds())
	if m.log != nil {
		m.log.Info("detector swapped", "epoch", epoch, "pause", pause)
	}
	return pause, nil
}

// install is SwapDetector's critical section. The leftover flushes run
// before closeMu's read side is taken: their alert deliveries acquire it
// too, and a read lock must not be re-entered.
func (m *Monitor) install(det *core.Detector, clones []*core.Detector) (epoch int64, pause time.Duration) {
	start := time.Now()
	for _, ln := range m.lanes {
		ln.mu.Lock()
		ln.flushLocked(m)
	}
	defer func() {
		for _, ln := range m.lanes {
			ln.mu.Unlock()
		}
	}()
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	epoch = m.epoch.Add(1)
	m.cacheLengths(det)
	for i, ln := range m.lanes {
		ln.det, ln.epoch = clones[i], epoch
	}
	return epoch, time.Since(start)
}

// Alerts returns the alert stream.
func (m *Monitor) Alerts() <-chan Alert { return m.alerts }

// Dropped reports how many alerts were discarded because the consumer fell
// behind.
func (m *Monitor) Dropped() int64 { return m.dropped.Load() }

func (m *Monitor) state(node string) *nodeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.nodes[node]
	if !ok {
		st = &nodeState{node: node, cluster: -1, job: mts.IdleJobID, lane: m.lanes[len(m.nodes)%len(m.lanes)]}
		if m.obsOn {
			st.thrGauge = m.reg.Gauge("nodesentry_threshold_value", "node", node)
			st.bufGauge = m.reg.Gauge("nodesentry_node_buffered", "node", node)
		}
		m.nodes[node] = st
		m.met.nodes.Set(float64(len(m.nodes)))
		m.seq.Add(1)
	}
	return st
}

// ObserveJob notifies the monitor of a job transition on a node: the
// current segment ends and a new pattern observation begins (§3.5).
func (m *Monitor) ObserveJob(node string, job int64, start int64) {
	if m.log != nil {
		m.log.Debug("job transition", "node", node, "job", job, "start", start)
	}
	st := m.state(node)
	// Score the outgoing job's queued windows before its state is reset, so
	// their scores land in the job that produced them.
	st.lane.flush(m)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.job = job
	st.jobStart = start
	st.ring.n = 0
	st.matched = false
	st.cluster = -1
	st.consumed = 0
	st.scores = st.scores[:0]
	st.lastThr = 0
}

// Ingest feeds one sample (the node's full metric vector at ts). Metric
// names must be provided once via RegisterNode or inferred from the first
// dataset replay; values must follow that order.
//
//perf:hot
func (m *Monitor) Ingest(node string, ts int64, values []float64) {
	st := m.state(node)
	st.mu.Lock()
	if st.metrics == nil {
		st.mu.Unlock()
		m.met.unregistered.Inc()
		return // not registered: cannot build frames
	}
	m.met.ingest.Inc()
	st.lastIngest = ts
	if !st.matched && st.ring.n == 0 && ts > st.jobStart {
		// Joining a job already in progress (e.g. monitor started
		// mid-job): align positions with the job's true timeline.
		st.consumed = int((ts - st.jobStart) / m.cfg.Step)
	}
	probeLen, win := int(m.probeLen.Load()), int(m.win.Load())
	if !st.ring.push(ts, values, max(probeLen, win)) {
		m.met.shape.Inc()
	}
	ln := st.lane
	probeFull := !st.matched && st.ring.n >= probeLen
	queued := 0
	if st.matched {
		queued = ln.enqueue(st, win, m.cfg.Step)
	}
	st.bufGauge.Set(float64(st.ring.n))
	st.mu.Unlock()
	if probeFull {
		// Only the sample that fills the probe touches a detector.
		queued = ln.match(m, st)
	}
	if ln.due(m, queued) {
		ln.flush(m)
	}
}

// absorbScores appends window scores to the node's history, applies the
// dynamic threshold, and returns alerts to deliver. Called with st locked.
func (m *Monitor) absorbScores(det *core.Detector, st *nodeState, frame *mts.NodeFrame, scores []float64) []Alert {
	winSec, k := det.OnlineParams()
	histLen := int(winSec/m.cfg.Step) * 2
	// The history has a fixed capacity: it is cut back to 2×histLen (by a
	// copy-down, below) whenever it passes 4×histLen, so one more window
	// past that is the most it ever holds.
	base := len(st.scores)
	if need := base + len(scores); need > cap(st.scores) {
		//lint:ignore hotalloc grow-once per node: the capacity below is the history's upper bound (doubling only when thresholding is off, histLen 0)
		grown := make([]float64, base, max(need, 4*histLen+len(scores), 2*cap(st.scores)))
		copy(grown, st.scores)
		st.scores = grown
	}
	st.scores = st.scores[:base+len(scores)]
	copy(st.scores[base:], scores)
	st.lastThr = core.KSigmaBoundAt(st.scores, len(st.scores), m.cfg.Step, winSec, k)
	if m.obsOn {
		m.met.thrUpdates.Inc()
		st.thrGauge.Set(st.lastThr)
	}
	var out []Alert
	// Copy-on-alert: frame is a recycled lane queue slot, so diagnosis
	// gets a private clone, made lazily on the first alert of the window.
	// Anomaly-free windows — the common case — copy nothing.
	var diagFrame *mts.NodeFrame
	for i := range scores {
		// Only the new samples are thresholded (an earlier sample's verdict
		// was read when its own window arrived), each against the whole
		// history the rule needs.
		gi := base + i
		if !(scores[i] > core.KSigmaBoundAt(st.scores, gi, m.cfg.Step, winSec, k)) {
			continue
		}
		ts := frame.TimeAt(i)
		if ts-st.lastAlert < m.cfg.CooldownSec {
			continue
		}
		st.lastAlert = ts
		prio := Warning
		if exceedFactor(st.scores, gi, int(winSec/m.cfg.Step)) >= criticalFactor {
			prio = Critical
		}
		if diagFrame == nil {
			// At most one clone per alerting window, which is rare by
			// construction; anomaly-free windows never pay it.
			diagFrame = frame.Clone()
		}
		//lint:ignore hotalloc alert path: anomalies past threshold and cooldown are rare by construction
		out = append(out, Alert{
			Node:      st.node,
			Time:      ts,
			Job:       st.job,
			Score:     scores[i],
			Priority:  prio,
			Diagnosis: diagnose.Alarm(det, diagFrame, i, 3),
		})
	}
	// Trim history so memory stays bounded on long-running nodes.
	if len(st.scores) > 4*histLen && histLen > 0 {
		copy(st.scores, st.scores[len(st.scores)-2*histLen:])
		st.scores = st.scores[:2*histLen]
	}
	return out
}

// exceedFactor measures how far score[i] sits above the trailing window
// mean (1 = at the mean).
func exceedFactor(scores []float64, i, w int) float64 {
	lo := i - w
	if lo < 0 {
		lo = 0
	}
	if i <= lo {
		return 1
	}
	mean := 0.0
	for _, v := range scores[lo:i] {
		mean += v
	}
	mean /= float64(i - lo)
	if mean <= 0 {
		return 1
	}
	return scores[i] / mean
}

func (m *Monitor) deliver(st *nodeState, a Alert) {
	if a.Priority == Critical {
		m.met.alertCrit.Inc()
	} else {
		m.met.alertWarn.Inc()
	}
	if h := m.hooks.Load(); h != nil && h.OnAlert != nil {
		h.OnAlert(a)
	}
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	// The seq bump is the last mutation, so a consistent snapshot that saw
	// an unchanged seq either missed this delivery entirely or fell back to
	// the invariant check.
	defer m.seq.Add(1)
	if m.closed {
		// Raised after shutdown began: account it as dropped rather than
		// panicking on the closed channel.
		m.dropped.Add(1)
		st.dropped.Add(1)
		m.met.dropped.Inc()
		return
	}
	select {
	case m.alerts <- a:
		m.met.delivered.Inc()
	default:
		m.dropped.Add(1)
		st.dropped.Add(1)
		m.met.dropped.Inc()
		if m.log != nil {
			//lint:ignore hotalloc slog boxing on the dropped-alert path only, which already signals an overloaded consumer
			m.log.Warn("alert dropped: consumer behind", "node", a.Node, "time", a.Time, "score", a.Score)
		}
	}
}

// RegisterNode declares a node's metric layout before ingestion. Declaring
// a layout of a different width mid-stream discards the node's buffered
// partial window: its rows no longer line up with the metrics.
func (m *Monitor) RegisterNode(node string, metrics []string) {
	st := m.state(node)
	st.mu.Lock()
	st.metrics = append([]string(nil), metrics...)
	if st.ring.width != len(metrics) {
		st.ring = sampleRing{width: len(metrics)}
	}
	st.mu.Unlock()
}

// NodeStatus is a point-in-time view of one node's streaming state.
type NodeStatus struct {
	Node string
	// Job is the job currently running on the node (mts.IdleJobID when idle).
	Job int64
	// Matched reports whether the post-transition observation window has
	// completed and the node's pattern has been assigned a cluster.
	Matched bool
	// Cluster is the matched cluster index (-1 before matching).
	Cluster int
	// Consumed counts samples scored since the job started.
	Consumed int
	// Buffered counts samples waiting for the next full scoring window.
	Buffered int
	// Dropped counts this node's alerts discarded because the consumer
	// fell behind; summing it across nodes reconciles with the monitor's
	// global Dropped() — the cross-node operator invariant ROADMAP asks
	// Snapshot to answer.
	Dropped int64
	// ScoreLagSec is how far scoring trails ingestion on this node: the
	// newest ingested timestamp minus the newest scored timestamp (0
	// before the first scored window or when fully caught up).
	ScoreLagSec int64
	// Threshold is the current dynamic k-sigma bound on this node's
	// scores (0 before the first scored window). Diagnostic: the same
	// value the per-node threshold gauge exports, surfaced here so fleet
	// views need no registry scrape to pair scores with their bound.
	Threshold float64
}

// Snapshot returns the streaming state of every node the monitor has seen,
// sorted by node name. It is safe to call concurrently with Ingest and
// ObserveJob; each node is captured atomically under its own lock, so the
// snapshot is per-node consistent (not a global barrier). For a globally
// consistent view, use SnapshotConsistent.
func (m *Monitor) Snapshot() []NodeStatus { return m.collect() }

// SnapshotView is a globally consistent point-in-time view of the monitor.
// It upholds the cross-node invariant the per-node Snapshot cannot: the sum
// of per-node Dropped counts equals the global Dropped count, and Epoch is
// the detector generation in effect for the whole capture.
type SnapshotView struct {
	// Epoch is the detector generation (see SwapDetector).
	Epoch int64
	// Seq is the monitor's sequence stamp at capture: it advances on every
	// alert accounting event, node registration, and swap, so two views
	// with equal Seq describe the same global state.
	Seq uint64
	// Dropped is the global count of alerts discarded because the consumer
	// fell behind; it equals the sum of Nodes[i].Dropped.
	Dropped int64
	// Nodes is the per-node state, sorted by node name.
	Nodes []NodeStatus
}

// SnapshotConsistent captures a globally consistent SnapshotView. It first
// tries optimistically — collect between two sequence reads and validate
// the dropped-count invariant — and only if concurrent activity keeps
// tearing the view does it take the write side of closeMu, briefly pausing
// alert delivery and swaps (never scoring) while it reads. The swap
// handoff's epoch stamping makes the per-epoch attribution exact.
func (m *Monitor) SnapshotConsistent() SnapshotView {
	for attempt := 0; attempt < 8; attempt++ {
		s1 := m.seq.Load()
		v := SnapshotView{Epoch: m.epoch.Load(), Seq: s1}
		v.Nodes = m.collect()
		v.Dropped = m.dropped.Load()
		if m.seq.Load() == s1 && m.epoch.Load() == v.Epoch && droppedInvariant(v) {
			return v
		}
	}
	// Barrier: the write lock excludes deliver (alert accounting) and
	// SwapDetector (epoch changes); node creation may still interleave but
	// a node created now has zero dropped alerts, preserving the invariant.
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	v := SnapshotView{Epoch: m.epoch.Load(), Seq: m.seq.Load()}
	v.Nodes = m.collect()
	v.Dropped = m.dropped.Load()
	return v
}

// droppedInvariant reports whether the view's per-node dropped counts
// reconcile with its global count.
func droppedInvariant(v SnapshotView) bool {
	var sum int64
	for _, n := range v.Nodes {
		sum += n.Dropped
	}
	return sum == v.Dropped
}

func (m *Monitor) collect() []NodeStatus {
	m.mu.Lock()
	states := make([]*nodeState, 0, len(m.nodes))
	for _, st := range m.nodes {
		states = append(states, st)
	}
	m.mu.Unlock()
	out := make([]NodeStatus, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		lag := int64(0)
		if st.lastScored > 0 && st.lastIngest > st.lastScored {
			lag = st.lastIngest - st.lastScored
		}
		out = append(out, NodeStatus{
			Node:        st.node,
			Job:         st.job,
			Matched:     st.matched,
			Cluster:     st.cluster,
			Consumed:    st.consumed,
			Buffered:    st.ring.n,
			Dropped:     st.dropped.Load(),
			ScoreLagSec: lag,
			Threshold:   st.lastThr,
		})
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Close closes the alert channel. It is idempotent and safe to call
// concurrently with Ingest/ObserveJob: in-flight deliveries observe the
// closed flag under closeMu and are counted as dropped instead of
// panicking on a closed-channel send. Samples ingested after Close are
// still scored; only their alerts are discarded.
func (m *Monitor) Close() {
	// Drain queued windows while the alert channel is still open; their
	// deliveries take closeMu's read side, so flush before the write lock.
	m.Flush()
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	close(m.alerts)
}

// sortAlerts orders alerts by time then node, for deterministic reporting.
func sortAlerts(alerts []Alert) {
	sort.Slice(alerts, func(i, j int) bool {
		if alerts[i].Time != alerts[j].Time {
			return alerts[i].Time < alerts[j].Time
		}
		return alerts[i].Node < alerts[j].Node
	})
}
