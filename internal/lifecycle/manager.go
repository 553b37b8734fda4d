package lifecycle

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/ingest"
	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
)

// mgrMetrics holds the manager's pre-registered handles (nil no-ops when
// observability is off).
type mgrMetrics struct {
	driftEvents   *obs.Counter
	retrainDrift  *obs.Counter
	retrainSched  *obs.Counter
	retrainManual *obs.Counter
	retrainFail   *obs.Counter
	retrainSkip   *obs.Counter
	retrainSec    *obs.Histogram
	shadowWindows *obs.Counter
	promotions    *obs.Counter
	rejections    *obs.Counter
	modelVersion  *obs.Gauge
	swapPauseSec  *obs.Histogram
}

func newMgrMetrics(r *obs.Registry) mgrMetrics {
	return mgrMetrics{
		driftEvents:   r.Counter("nodesentry_lifecycle_drift_events_total"),
		retrainDrift:  r.Counter("nodesentry_lifecycle_retrains_total", "reason", "drift"),
		retrainSched:  r.Counter("nodesentry_lifecycle_retrains_total", "reason", "schedule"),
		retrainManual: r.Counter("nodesentry_lifecycle_retrains_total", "reason", "manual"),
		retrainFail:   r.Counter("nodesentry_lifecycle_retrain_failures_total"),
		retrainSkip:   r.Counter("nodesentry_lifecycle_retrain_skipped_total"),
		retrainSec:    r.Histogram("nodesentry_lifecycle_retrain_seconds", obs.StageBuckets),
		shadowWindows: r.Counter("nodesentry_lifecycle_shadow_windows_total"),
		promotions:    r.Counter("nodesentry_lifecycle_promotions_total"),
		rejections:    r.Counter("nodesentry_lifecycle_rejections_total"),
		modelVersion:  r.Gauge("nodesentry_lifecycle_model_version"),
		swapPauseSec:  r.Histogram("nodesentry_lifecycle_swap_pause_seconds", obs.LatencyBuckets),
	}
}

// Decision records one shadow-gate outcome.
type Decision struct {
	Version  Version
	Promoted bool
	// Reason is the gate's explanation (why promoted / why rejected).
	Reason string
	// Pause is the hot-swap pause (zero when rejected).
	Pause time.Duration
	// CandWindows/CandAlerts/IncAlerts/CandP50/IncP50 are the gate's
	// evidence; the P50s are medians of normalized scores over the shadow
	// period, candidate and incumbent on the same stream.
	CandWindows int64
	CandAlerts  int64
	IncAlerts   int64
	CandP50     float64
	IncP50      float64
}

// Manager runs the model lifecycle around a live runtime.Monitor: its hooks
// feed the drift detector, its Sink mirrors the ingest stream into the
// retrain buffer (and the shadow scorer while one is auditioning), and its
// Run loop turns drift or schedule into background retraining, shadow
// promotion gates, registry bookkeeping, and zero-drop hot swaps.
type Manager struct {
	cfg   Config
	mon   *runtime.Monitor
	store *Store
	buf   *Buffer
	drift *Drift
	met   mgrMetrics
	log   *slog.Logger

	retraining atomic.Bool
	retrainWG  sync.WaitGroup
	shadow     atomic.Pointer[shadowRun]
	// incumbent is the detector currently serving in the monitor — kept so a
	// promotion whose registry activation fails can swap it back in.
	incumbent atomic.Pointer[core.Detector]

	// Incumbent alert count since the current shadow started (the gate's
	// disagreement baseline); counted via the monitor's OnAlert hook.
	incAlerts     atomic.Int64
	incAlertsBase atomic.Int64
	// Incumbent score distribution over the same stream the shadow sees,
	// reset when an audition starts — the relative half of the score gate.
	incScoreMu   sync.Mutex
	incScoreQ    *QuantileWindow
	activeID     atomic.Pointer[string]
	decisionMu   sync.Mutex
	lastDecision *Decision
}

// NewManager wires a lifecycle manager to mon. det is the incumbent the
// monitor was built around (baseline for drift); active is its registry
// version id ("" when the registry has none yet). The manager installs the
// monitor's hooks — it owns them from here on.
func NewManager(mon *runtime.Monitor, det *core.Detector, activeID string, store *Store, cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if store == nil {
		return nil, fmt.Errorf("lifecycle: manager needs a store")
	}
	m := &Manager{
		cfg:       cfg,
		mon:       mon,
		store:     store,
		buf:       NewBuffer(cfg, cfg.Metrics),
		drift:     NewDrift(det, cfg, cfg.Metrics),
		met:       newMgrMetrics(cfg.Metrics),
		log:       cfg.Logger,
		incScoreQ: NewQuantileWindow(4096),
	}
	m.incumbent.Store(det)
	m.activeID.Store(&activeID)
	m.met.modelVersion.Set(versionNumber(activeID))
	mon.SetHooks(runtime.Hooks{
		OnMatch: func(node string, cluster int, distance float64, matched bool) {
			m.drift.ObserveMatch(cluster, distance)
		},
		OnScores: func(node string, cluster int, start int64, scores []float64) {
			m.drift.ObserveScores(cluster, scores)
			m.incScoreMu.Lock()
			for _, s := range scores {
				m.incScoreQ.Observe(s)
			}
			m.incScoreMu.Unlock()
		},
		OnAlert: func(a runtime.Alert) { m.incAlerts.Add(1) },
	})
	return m, nil
}

// event forwards a lifecycle transition to Config.OnEvent, if set.
func (m *Manager) event(kind, detail string) {
	if m.cfg.OnEvent != nil {
		m.cfg.OnEvent(kind, detail)
	}
}

// Buffer exposes the retrain buffer (operator introspection and tests).
func (m *Manager) Buffer() *Buffer { return m.buf }

// Drift exposes the drift detector.
func (m *Manager) Drift() *Drift { return m.drift }

// LastDecision returns the most recent shadow-gate outcome, if any.
func (m *Manager) LastDecision() (Decision, bool) {
	m.decisionMu.Lock()
	defer m.decisionMu.Unlock()
	if m.lastDecision == nil {
		return Decision{}, false
	}
	return *m.lastDecision, true
}

// Sink returns the ingest.Sink the gateway tees the live stream into: every
// event lands in the retrain buffer, and — while a candidate is auditioning
// — is mirrored to the shadow scorer through its bounded queue.
func (m *Manager) Sink() ingest.Sink { return managerSink{m} }

type managerSink struct{ m *Manager }

func (s managerSink) RegisterNode(node string, metrics []string) {
	s.m.buf.RegisterNode(node, metrics)
	if sh := s.m.shadow.Load(); sh != nil {
		sh.offer(shadowEvent{kind: 2, node: node, metrics: append([]string(nil), metrics...)})
	}
}

func (s managerSink) ObserveJob(node string, job int64, start int64) {
	s.m.buf.ObserveJob(node, job, start)
	if sh := s.m.shadow.Load(); sh != nil {
		sh.offer(shadowEvent{kind: 1, node: node, job: job, ts: start})
	}
}

func (s managerSink) Ingest(node string, ts int64, values []float64) {
	s.m.buf.Ingest(node, ts, values)
	if sh := s.m.shadow.Load(); sh != nil {
		// The buffer copied; the shadow forwarder reads concurrently, so it
		// needs its own copy too.
		sh.offer(shadowEvent{kind: 0, node: node, ts: ts, values: append([]float64(nil), values...)})
	}
}

// Run drives the lifecycle until ctx is canceled: drift checks and shadow
// gates every CheckInterval, scheduled retrains every RetrainInterval (when
// configured). On cancellation it waits for an in-flight retrain to drain
// (training observes the same ctx, so the drain is prompt) and tears down
// any active shadow.
func (m *Manager) Run(ctx context.Context) {
	check := time.NewTicker(m.cfg.CheckInterval)
	defer check.Stop()
	var sched <-chan time.Time
	if m.cfg.RetrainInterval > 0 {
		t := time.NewTicker(m.cfg.RetrainInterval)
		defer t.Stop()
		sched = t.C
	}
	for {
		select {
		case <-ctx.Done():
			m.retrainWG.Wait()
			if sh := m.shadow.Swap(nil); sh != nil {
				sh.stop()
			}
			return
		case <-check.C:
			m.Tick(ctx)
		case <-sched:
			m.StartRetrain(ctx, "schedule")
		}
	}
}

// Tick performs one lifecycle step: decide an auditioning shadow if it has
// enough evidence, otherwise check for drift and kick off retraining.
func (m *Manager) Tick(ctx context.Context) {
	if sh := m.shadow.Load(); sh != nil {
		m.DecideShadow(false)
		return
	}
	if m.retraining.Load() {
		return
	}
	if drifted, reason := m.drift.Check(); drifted {
		m.met.driftEvents.Inc()
		if m.log != nil {
			m.log.Info("drift detected", "reason", reason)
		}
		m.event("drift", reason)
		m.StartRetrain(ctx, "drift: "+reason)
	}
}

// StartRetrain launches RetrainNow on a background goroutine unless a
// retrain or an audition is already underway. It returns immediately;
// completion is observable via the registry and metrics.
func (m *Manager) StartRetrain(ctx context.Context, reason string) {
	if m.shadow.Load() != nil || !m.retraining.CompareAndSwap(false, true) {
		m.met.retrainSkip.Inc()
		return
	}
	m.retrainWG.Add(1)
	// The goroutine is bounded by ctx: training checks it between stages
	// and epochs, and Run's shutdown path waits on retrainWG.
	go func() {
		defer m.retrainWG.Done()
		defer m.retraining.Store(false)
		if _, err := m.RetrainNow(ctx, reason); err != nil && m.log != nil {
			m.log.Warn("retrain failed", "reason", reason, "err", err)
		}
	}()
}

// RetrainNow synchronously retrains off the buffer, records the candidate
// in the registry, and starts its shadow audition. Exported for tests, the
// benchtab experiment, and operator tooling; Run uses it via StartRetrain.
func (m *Manager) RetrainNow(ctx context.Context, reason string) (Version, error) {
	in := m.buf.TrainInput(m.cfg.SemanticGroups)
	if len(in.Frames) == 0 {
		m.met.retrainSkip.Inc()
		return Version{}, fmt.Errorf("lifecycle: retrain buffer is empty")
	}
	in.Ctx = ctx
	m.countRetrain(reason)
	m.event("retrain", reason)
	t0 := time.Now()
	det, err := core.Train(in, m.cfg.TrainOptions)
	m.met.retrainSec.Observe(time.Since(t0).Seconds())
	if err != nil {
		m.met.retrainFail.Inc()
		m.event("retrain_failed", err.Error())
		return Version{}, fmt.Errorf("lifecycle: retrain: %w", err)
	}
	v, err := m.store.SaveVersion(det, reason)
	if err != nil {
		m.met.retrainFail.Inc()
		m.event("retrain_failed", err.Error())
		return Version{}, err
	}
	if m.log != nil {
		m.log.Info("candidate trained", "version", v.ID, "clusters", v.Clusters,
			"wall", time.Since(t0), "reason", reason)
	}
	return v, m.StartShadow(det, v)
}

// StartShadow begins a candidate's audition against the live stream.
func (m *Manager) StartShadow(det *core.Detector, v Version) error {
	sh, err := newShadowRun(det, v, m.cfg, m.buf.Layouts(), m.buf.Jobs(), m.cfg.Metrics)
	if err != nil {
		return fmt.Errorf("lifecycle: start shadow: %w", err)
	}
	m.incAlertsBase.Store(m.incAlerts.Load())
	m.incScoreMu.Lock()
	m.incScoreQ.Reset()
	m.incScoreMu.Unlock()
	if !m.shadow.CompareAndSwap(nil, sh) {
		sh.stop()
		return fmt.Errorf("lifecycle: a shadow audition is already running")
	}
	if m.log != nil {
		m.log.Info("shadow started", "version", v.ID)
	}
	m.event("shadow", "version "+v.ID)
	return nil
}

// DecideShadow evaluates the auditioning candidate against the promotion
// gate. With force=false it waits (returns done=false) until the candidate
// has scored MinShadowWindows windows; force=true decides on whatever
// evidence exists (shutdown, tests). On promotion the candidate is
// hot-swapped into the monitor and activated in the registry; on rejection
// it is recorded and discarded with the incumbent untouched.
func (m *Manager) DecideShadow(force bool) (Decision, bool) {
	sh := m.shadow.Load()
	if sh == nil {
		return Decision{}, false
	}
	sh.settle()
	wins := sh.windows.Load()
	if wins < m.cfg.MinShadowWindows && !force {
		return Decision{}, false
	}
	if !m.shadow.CompareAndSwap(sh, nil) {
		return Decision{}, false // another goroutine decided first
	}
	m.met.shadowWindows.Add(wins)
	m.incScoreMu.Lock()
	incP50 := m.incScoreQ.Quantile(0.5)
	m.incScoreMu.Unlock()
	dec := Decision{
		Version:     sh.version,
		CandWindows: wins,
		CandAlerts:  sh.alerts.Load(),
		IncAlerts:   m.incAlerts.Load() - m.incAlertsBase.Load(),
		CandP50:     sh.p50(),
		IncP50:      incP50,
	}
	ok, why := m.gate(sh, dec)
	dec.Reason = why
	if ok {
		pause, err := m.mon.SwapDetector(sh.det)
		if err == nil {
			if actErr := m.store.Activate(sh.version.ID); actErr != nil {
				err = actErr
				// The candidate is already live but the registry refused to
				// record it: swap the incumbent back so the monitor, the
				// drift baseline, and the registry's active version stay one
				// coherent lineage under the rejection recorded below.
				if _, rbErr := m.mon.SwapDetector(m.incumbent.Load()); rbErr != nil && m.log != nil {
					m.log.Error("restoring incumbent after activation failure failed; monitor serves an unrecorded model",
						"version", sh.version.ID, "err", rbErr)
				}
			}
		}
		if err != nil {
			// The swap or the bookkeeping failed: treat as rejection so the
			// incumbent lineage stays coherent.
			dec.Promoted = false
			dec.Reason = "promotion failed: " + err.Error()
			m.met.rejections.Inc()
			_ = m.store.Reject(sh.version.ID, dec.Reason) // registry best effort; decision recorded below
		} else {
			dec.Promoted = true
			dec.Pause = pause
			m.met.promotions.Inc()
			m.met.swapPauseSec.Observe(pause.Seconds())
			m.met.modelVersion.Set(versionNumber(sh.version.ID))
			id := sh.version.ID
			m.activeID.Store(&id)
			m.incumbent.Store(sh.det)
			m.drift.Rebaseline(sh.det)
		}
	} else {
		m.met.rejections.Inc()
		if err := m.store.Reject(sh.version.ID, why); err != nil && m.log != nil {
			m.log.Warn("recording rejection failed", "version", sh.version.ID, "err", err)
		}
	}
	sh.stop()
	if dec.Promoted {
		m.event("promoted", fmt.Sprintf("version %s: %s", dec.Version.ID, dec.Reason))
		m.event("swap", fmt.Sprintf("version %s pause=%s", dec.Version.ID, dec.Pause))
	} else {
		m.event("rejected", fmt.Sprintf("version %s: %s", dec.Version.ID, dec.Reason))
	}
	if m.log != nil {
		m.log.Info("shadow decided", "version", dec.Version.ID, "promoted", dec.Promoted,
			"reason", dec.Reason, "candWindows", dec.CandWindows,
			"candAlerts", dec.CandAlerts, "incAlerts", dec.IncAlerts,
			"candP50", dec.CandP50, "incP50", dec.IncP50)
	}
	m.decisionMu.Lock()
	m.lastDecision = &dec
	m.decisionMu.Unlock()
	return dec, true
}

// gate applies the promotion criteria to an audition's evidence.
func (m *Manager) gate(sh *shadowRun, dec Decision) (bool, string) {
	if dec.CandWindows == 0 {
		return false, "candidate scored no windows"
	}
	if nf := sh.nonFinite.Load(); nf > 0 {
		return false, fmt.Sprintf("candidate produced %d non-finite scores", nf)
	}
	inBand := dec.CandP50 >= 1.0/p50Band && dec.CandP50 <= p50Band
	if !inBand {
		// Generalization gap inflates held-out medians for both models, so
		// outside the absolute band the comparison turns relative: promote
		// only a clear improvement over the incumbent on the same stream.
		if math.IsNaN(dec.IncP50) || dec.CandP50 > m.cfg.ImprovementFactor*dec.IncP50 {
			return false, fmt.Sprintf(
				"candidate score p50 %.3f outside [%.3f, %.3f] and not under %.0f%% of incumbent p50 %.3f",
				dec.CandP50, 1.0/p50Band, float64(p50Band),
				100*m.cfg.ImprovementFactor, dec.IncP50)
		}
	}
	limit := maxAlertRatio*dec.IncAlerts + m.cfg.AlertSlack
	if dec.CandAlerts > limit {
		return false, fmt.Sprintf("candidate raised %d alerts vs incumbent %d (limit %d)",
			dec.CandAlerts, dec.IncAlerts, limit)
	}
	return true, fmt.Sprintf("gate passed: %d windows, p50 %.3f, %d vs %d alerts",
		dec.CandWindows, dec.CandP50, dec.CandAlerts, dec.IncAlerts)
}

func (m *Manager) countRetrain(reason string) {
	switch {
	case strings.HasPrefix(reason, "drift"):
		m.met.retrainDrift.Inc()
	case reason == "schedule":
		m.met.retrainSched.Inc()
	default:
		m.met.retrainManual.Inc()
	}
}

// versionNumber turns "v000042" into 42 for the model_version gauge (0 when
// unparsable or empty).
func versionNumber(id string) float64 {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "v"))
	if err != nil {
		return 0
	}
	return float64(n)
}
