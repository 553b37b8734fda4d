// Package fleetview is NodeSentry's fleet observability tier: the layer
// that turns per-node detection state into something an operator can *see*
// at fleet scale. It aggregates the live runtime.Monitor — per-node ring
// buffers of window scores, match distances and thresholds, fed through a
// hook tap — and adds the one signal per-node models structurally miss: a
// **vicinity residual** comparing each node's recent behavior to the
// distribution of its job-peers (Ghiasvand & Ciorba, "Anomaly Detection in
// HPC: A Vicinity Perspective"). A node whose score sits far outside its
// peer group's median — measured as a robust z against the peer median and
// MAD — fires a vicinity alert even when its own dynamic threshold never
// trips, the divergence class DeepHYDRA argues dynamically-configured
// fleets must catch at the fleet level.
//
// The aggregator additionally keeps a bounded event journal (monitor
// alerts, vicinity alerts, lifecycle drift/retrain/promotion transitions,
// chaos faults) and serves the whole state over HTTP: JSON APIs
// (/fleet/state, /fleet/nodes/{node}, /fleet/events), a Server-Sent-Events
// stream for live updates, and an embedded html/template + d3 dashboard.
// Everything is stdlib-only, like the rest of the module; detection output
// is byte-identical with the tier enabled or disabled — the tap observes,
// it never feeds back.
package fleetview

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
	"nodesentry/internal/summary"
)

// The aggregator's fixed bounds.
const (
	// historyLen is the per-node ring-buffer length in scored windows.
	historyLen = 256
	// sparkPoints is how many trailing ring points /fleet/state inlines
	// per node for the dashboard heatmap, and the most a client may ask
	// for with ?spark=.
	sparkPoints = 48
	// recentWindows is how many trailing windows the vicinity residual
	// averages into a node's "recent score".
	recentWindows = 8
	// journalSize bounds the event journal ring.
	journalSize = 2048
	// residualHistory is the per-node ring of retained vicinity residual
	// evaluations served by /fleet/nodes/{node} — the sustained-divergence
	// trace a single latest value can't show.
	residualHistory = 64
	// minPeers is the minimum job-peer group size for vicinity residuals:
	// below it the median/MAD are too fragile to accuse a node of
	// diverging.
	minPeers = 3
	// vicinityCooldownSec suppresses repeat vicinity alerts per node
	// within the window, mirroring the monitor's alert cooldown.
	vicinityCooldownSec = 300
	// sustainK of the last sustainN evaluations (including the current
	// one) must put a node's residual at or above the vicinity threshold
	// before a vicinity alert fires — sustained divergence, not a
	// one-sample blip.
	sustainK, sustainN = 2, 4

	// sseBuffer is the per-client SSE event queue capacity. A client that
	// falls further behind has events dropped (counted); the seq gap tells
	// it to re-sync via /fleet/events?since=.
	sseBuffer = 64
	// sseKeepAlive is the SSE comment-ping interval holding idle streams
	// open through proxies.
	sseKeepAlive = 15 * time.Second
)

// Config parameterizes an Aggregator.
type Config struct {
	// Source, when set, namespaces every journaled event with this daemon
	// ID (Event.Src/SrcSeq) so a coordinator merging several scorer feeds
	// can dedup replays per source. Empty (the default) leaves the
	// standalone wire format untouched.
	Source string
	// VicinityThreshold is the robust-z at which a node counts as
	// peer-divergent (default 4).
	VicinityThreshold float64
	// EvalInterval is Run's vicinity evaluation cadence (default 15 s).
	EvalInterval time.Duration

	// Metrics, when non-nil, receives the nodesentry_fleet_* and
	// nodesentry_vicinity_* series plus the snapshot epoch/seq gauges
	// that let /metrics and /fleet/state be reconciled.
	Metrics *obs.Registry
	// Logger, when non-nil, receives vicinity alerts at Info.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.VicinityThreshold <= 0 {
		c.VicinityThreshold = 4
	}
	if c.EvalInterval <= 0 {
		c.EvalInterval = 15 * time.Second
	}
	return c
}

// Point is one scored window in a node's ring: the window's start
// timestamp, its mean and max normalized score, and the node's dynamic
// threshold would-be bound is carried by the surrounding status instead
// (thresholds refresh per window; the ring keeps the scores).
type Point struct {
	Ts    int64   `json:"ts"`
	Score float64 `json:"score"`
	Max   float64 `json:"max"`
}

// nodeHist is one node's aggregated streaming history.
type nodeHist struct {
	ring []Point
	head int // next write index
	n    int // filled entries (≤ len(ring))

	cluster  int
	lastDist float64
	matched  bool

	// Vicinity evaluation results (refreshed by evaluate).
	vicScore float64
	vicDist  float64
	peers    int

	// Residual evaluation history (one entry per Evaluate pass in which
	// the node had a usable peer group).
	resRing []ResidualPoint
	resHead int
	resN    int

	lastVicAlert int64

	// Per-node residual gauges (nil when metrics are disabled).
	resScoreG *obs.Gauge
	resDistG  *obs.Gauge
}

func (h *nodeHist) push(p Point) {
	h.ring[h.head] = p
	h.head = (h.head + 1) % len(h.ring)
	if h.n < len(h.ring) {
		h.n++
	}
}

// last returns up to k trailing points, oldest first.
func (h *nodeHist) last(k int) []Point {
	if k > h.n {
		k = h.n
	}
	out := make([]Point, 0, k)
	start := h.head - k
	if start < 0 {
		start += len(h.ring)
	}
	for i := 0; i < k; i++ {
		out = append(out, h.ring[(start+i)%len(h.ring)])
	}
	return out
}

// ResidualPoint is one vicinity evaluation's outcome for a node: the
// robust-z residuals of both signals against its job peers at Ts (0 when
// the signal was not evaluable) and the peer-group size.
type ResidualPoint struct {
	Ts    int64   `json:"ts"`
	Score float64 `json:"score"`
	Dist  float64 `json:"dist"`
	Peers int     `json:"peers"`
}

func (h *nodeHist) pushResidual(p ResidualPoint) {
	h.resRing[h.resHead] = p
	h.resHead = (h.resHead + 1) % len(h.resRing)
	if h.resN < len(h.resRing) {
		h.resN++
	}
}

// sustained counts how many of the node's last n residual evaluations
// (newest first) put the chosen signal at or above thr — the k-of-n
// evidence a vicinity alert needs.
func (h *nodeHist) sustained(n int, thr float64, dist bool) int {
	if n > h.resN {
		n = h.resN
	}
	over := 0
	for i := 1; i <= n; i++ {
		p := h.resRing[((h.resHead-i)%len(h.resRing)+len(h.resRing))%len(h.resRing)]
		v := p.Score
		if dist {
			v = p.Dist
		}
		if v >= thr {
			over++
		}
	}
	return over
}

// residuals returns the retained evaluation history, oldest first.
func (h *nodeHist) residuals() []ResidualPoint {
	out := make([]ResidualPoint, 0, h.resN)
	start := h.resHead - h.resN
	if start < 0 {
		start += len(h.resRing)
	}
	for i := 0; i < h.resN; i++ {
		out = append(out, h.resRing[(start+i)%len(h.resRing)])
	}
	return out
}

// recent is the mean of the last k window-mean scores (NaN when empty).
func (h *nodeHist) recent(k int) float64 {
	pts := h.last(k)
	if len(pts) == 0 {
		return nan
	}
	sum := 0.0
	for _, p := range pts {
		sum += p.Score
	}
	return sum / float64(len(pts))
}

// fvMetrics holds the aggregator's pre-registered handles (nil no-ops
// when observability is off).
type fvMetrics struct {
	stateReqs  *obs.Counter
	stateLat   *obs.Histogram
	sseClients *obs.Gauge
	sseDropped *obs.Counter
	evals      *obs.Counter
	vicAlerts  *obs.Counter
	vicGroups  *obs.Gauge
	snapEpoch  *obs.Gauge
	snapSeq    *obs.Gauge
}

func newFvMetrics(r *obs.Registry) fvMetrics {
	return fvMetrics{
		stateReqs:  r.Counter("nodesentry_fleet_state_requests_total"),
		stateLat:   r.Histogram("nodesentry_fleet_state_seconds", obs.LatencyBuckets),
		sseClients: r.Gauge("nodesentry_fleet_sse_clients"),
		sseDropped: r.Counter("nodesentry_fleet_sse_dropped_total"),
		evals:      r.Counter("nodesentry_vicinity_evals_total"),
		vicAlerts:  r.Counter("nodesentry_vicinity_alerts_total"),
		vicGroups:  r.Gauge("nodesentry_vicinity_groups"),
		snapEpoch:  r.Gauge("nodesentry_snapshot_epoch"),
		snapSeq:    r.Gauge("nodesentry_snapshot_seq"),
	}
}

// Aggregator is the fleet-state aggregation engine around one live
// monitor. Construct with New, attach to the monitor's hook chain (New
// does this via Monitor.Tap), serve with Handler/Mounts, and drive
// periodic vicinity evaluation with Run.
type Aggregator struct {
	cfg Config
	mon *runtime.Monitor

	mu    sync.Mutex
	nodes map[string]*nodeHist

	journal *Journal
	bus     *Bus

	faultMu sync.Mutex
	faults  map[string]int64

	// sum, when attached, backs /fleet/incidents and the incident event
	// lane. An atomic pointer bridges the daemon's construction order
	// (the summarizer is built before the aggregator, but either order
	// works).
	sum atomic.Pointer[summary.Summarizer]

	reg *obs.Registry
	met fvMetrics
	log *slog.Logger

	done      chan struct{}
	closeOnce sync.Once
	evalSeq   int64
}

// New builds an aggregator over mon and chains its observation tap after
// any hooks already installed (so it composes with the lifecycle
// manager's). It also registers a scrape hook exporting the monitor's
// snapshot epoch/seq, so /metrics and /fleet/state expose the same
// consistency stamp. Call Close when done; the monitor is not owned.
func New(mon *runtime.Monitor, cfg Config) *Aggregator {
	cfg = cfg.withDefaults()
	a := &Aggregator{
		cfg:     cfg,
		mon:     mon,
		nodes:   map[string]*nodeHist{},
		journal: NewJournal(journalSize),
		bus:     NewBus(),
		faults:  map[string]int64{},
		reg:     cfg.Metrics,
		met:     newFvMetrics(cfg.Metrics),
		log:     cfg.Logger,
		done:    make(chan struct{}),
	}
	a.journal.SetSource(cfg.Source)
	mon.Tap(runtime.Hooks{
		OnMatch:  a.onMatch,
		OnScores: a.onScores,
		OnAlert:  a.onAlert,
	})
	// The same SnapshotConsistent stamp /fleet/state reports, refreshed at
	// the top of every scrape: two surfaces showing equal seq describe the
	// same global monitor state (runtime.SnapshotView's contract).
	a.reg.OnScrape(func() {
		v := mon.SnapshotConsistent()
		a.met.snapEpoch.Set(float64(v.Epoch))
		a.met.snapSeq.Set(float64(v.Seq))
	})
	return a
}

// Close stops Run (if running) and ends every open SSE stream. It does
// not close the monitor. Idempotent.
func (a *Aggregator) Close() {
	a.closeOnce.Do(func() { close(a.done) })
}

// Journal exposes the event journal (tests, chaos reconciliation).
func (a *Aggregator) Journal() *Journal { return a.journal }

// Bus exposes the SSE fan-out bus (tests, benchmarks).
func (a *Aggregator) Bus() *Bus { return a.bus }

// Run evaluates vicinity residuals every EvalInterval until ctx is
// canceled or Close is called.
func (a *Aggregator) Run(ctx context.Context) {
	t := time.NewTicker(a.cfg.EvalInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-a.done:
			return
		case <-t.C:
			a.Evaluate()
		}
	}
}

// ---- hook tap ----

func (a *Aggregator) state(node string) *nodeHist {
	h, ok := a.nodes[node]
	if !ok {
		h = &nodeHist{ring: make([]Point, historyLen), resRing: make([]ResidualPoint, residualHistory), cluster: -1, lastDist: nan}
		if a.reg != nil {
			h.resScoreG = a.reg.Gauge("nodesentry_vicinity_residual", "node", node, "signal", "score")
			h.resDistG = a.reg.Gauge("nodesentry_vicinity_residual", "node", node, "signal", "distance")
		}
		h.vicScore, h.vicDist = nan, nan
		a.nodes[node] = h
	}
	return h
}

func (a *Aggregator) onMatch(node string, cluster int, distance float64, matched bool) {
	a.mu.Lock()
	h := a.state(node)
	h.cluster = cluster
	h.lastDist = distance
	h.matched = matched
	a.mu.Unlock()
}

func (a *Aggregator) onScores(node string, cluster int, start int64, scores []float64) {
	if len(scores) == 0 {
		return
	}
	// Reduce before taking the lock; the hook contract forbids retaining
	// the slice and runs under the node's ingest lock, so stay brief.
	sum, maxv := 0.0, scores[0]
	for _, s := range scores {
		sum += s
		if s > maxv {
			maxv = s
		}
	}
	p := Point{Ts: start, Score: sum / float64(len(scores)), Max: maxv}
	a.mu.Lock()
	h := a.state(node)
	h.cluster = cluster
	h.push(p)
	a.mu.Unlock()
}

func (a *Aggregator) onAlert(al runtime.Alert) {
	a.emit(Event{
		Ts:     al.Time,
		Kind:   EventAlert,
		Node:   al.Node,
		Detail: fmt.Sprintf("priority=%d job=%d epoch=%d level=%s", al.Priority, al.Job, al.Epoch, al.Diagnosis.Level),
		Value:  al.Score,
	})
}

// ---- event emission ----

// Journal event kinds. Lifecycle and chaos emitters pass their own kind
// strings through RecordEvent/RecordFault; these are the ones the
// aggregator itself produces.
const (
	EventAlert    = "alert"
	EventVicinity = "vicinity"
	EventChaos    = "chaos_fault"
	EventIncident = "incident"
)

// emit journals e (assigning its sequence number), counts it, and fans it
// out to SSE subscribers.
func (a *Aggregator) emit(e Event) {
	if e.Ts == 0 {
		e.Ts = time.Now().Unix()
	}
	e = a.journal.Append(e)
	a.reg.Counter("nodesentry_fleet_events_total", "kind", e.Kind).Inc()
	if dropped := a.bus.Publish(e); dropped > 0 {
		a.met.sseDropped.Add(int64(dropped))
	}
}

// RecordEvent journals an arbitrary event — the seam daemon wiring uses
// for lifecycle transitions and operators could use for annotations.
func (a *Aggregator) RecordEvent(kind, node, detail string, value float64) {
	a.emit(Event{Kind: kind, Node: node, Detail: detail, Value: value})
}

// AttachSummary exposes s on /fleet/incidents and enables the incident
// event lane. The aggregator only serves the summarizer's state; feeding
// it stays on the alert consumer's path.
func (a *Aggregator) AttachSummary(s *summary.Summarizer) {
	a.sum.Store(s)
}

// IncidentEvent renders one incident lifecycle transition as an
// "incident" journal event — the one shape every journal that carries the
// semantic lane (a daemon's, the coordinator's merged one) records.
func IncidentEvent(inc summary.Incident, trans summary.Transition) Event {
	return Event{
		Ts:   inc.LastTs,
		Kind: EventIncident,
		Detail: fmt.Sprintf("%s=%s id=%s count=%d dimension=%s severity=%.4f",
			trans, inc.Title, inc.ID, inc.Count, inc.Dimension, inc.Severity),
		Value: float64(inc.Count),
	}
}

// RecordIncident journals one incident lifecycle transition as an
// "incident" event on the journal and SSE bus — the semantic lane the
// dashboard renders above the raw alert stream.
func (a *Aggregator) RecordIncident(inc summary.Incident, trans summary.Transition) {
	a.emit(IncidentEvent(inc, trans))
}

// RecordFault journals n injected chaos faults of the named kind and
// tallies them for FaultTotals — the chaos soak wires chaos.Counts.OnAdd
// here and reconciles the two ledgers after the run.
func (a *Aggregator) RecordFault(kind string, n int64) {
	a.faultMu.Lock()
	a.faults[kind] += n
	a.faultMu.Unlock()
	a.emit(Event{Kind: EventChaos, Detail: kind, Value: float64(n)})
}

// FaultTotals returns a copy of the per-kind injected-fault tally
// accumulated through RecordFault.
func (a *Aggregator) FaultTotals() map[string]int64 {
	a.faultMu.Lock()
	defer a.faultMu.Unlock()
	out := make(map[string]int64, len(a.faults))
	for k, v := range a.faults {
		out[k] = v
	}
	return out
}
