package summary

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"nodesentry/internal/obs"
)

// Transition names one incident lifecycle edge, delivered alongside the
// incident snapshot to OnIncident.
type Transition string

const (
	// Opened: a new incident folded its first batch of alerts.
	Opened Transition = "open"
	// Updated: an open incident absorbed more alerts (its member lists,
	// counts and severity rollup changed). Updates amend an existing
	// semantic event — sinks typically journal them without re-paging.
	Updated Transition = "update"
	// Resolved: the incident saw no new alerts for ResolveAfter (or the
	// summarizer closed) and left the open set.
	Resolved Transition = "resolve"
)

// Incident is one live (or recently resolved) semantic event: a cluster
// of alerts sharing a metric family and a time window, described by the
// constant tags (shared context) and the varying dimension it spans.
type Incident struct {
	ID    string `json:"id"`
	State string `json:"state"` // "open" | "resolved"
	// Title is the operator-facing one-liner, e.g.
	// "Memory anomaly across 24 nodes (job=8812)".
	Title string `json:"title"`
	// Metric is the family the cluster groups on.
	Metric  string `json:"metric"`
	FirstTs int64  `json:"first_ts"`
	LastTs  int64  `json:"last_ts"`
	// Count is how many alerts folded into this incident.
	Count int `json:"count"`
	// Severity is the maximum alert score seen; Priority the maximum
	// alert priority (the rollup an operator triages by).
	Severity float64 `json:"severity"`
	Priority int     `json:"priority"`
	// ConstantTags is the shared context; VaryingTags the distinct values
	// per varying key (each list capped at memberCap, sorted).
	ConstantTags map[string]string   `json:"constant_tags"`
	VaryingTags  map[string][]string `json:"varying_tags"`
	// Dimension is the varying key the incident spans (usually "node");
	// its VaryingTags entry is the member list.
	Dimension string `json:"dimension"`
	// Truncated is set when a member list hit memberCap and further
	// distinct values were counted but not retained.
	Truncated bool `json:"truncated,omitempty"`
}

// incState is one open incident's internal accumulator: per-key presence
// counts and capped distinct-value sets, re-partitioned into
// constant/varying on every emission.
type incState struct {
	inc  Incident
	keys map[string]*incKey
}

type incKey struct {
	seen   map[string]struct{}
	values []string // retained distinct values (≤ memberCap)
	count  int      // events carrying this key
	extra  int      // distinct values beyond the cap (counted, not kept)
}

// Stats is the summarizer's exact accounting. At any quiescent point
// (after Close, or after a Flush with nothing pending)
//
//	Observed == Folded + Raw
//
// holds: every observed alert either folded into exactly one incident or
// was emitted raw. Overflow counts the subset of Raw spilled because the
// pending buffer was full.
type Stats struct {
	Observed int64 `json:"observed"`
	Folded   int64 `json:"folded"`
	Raw      int64 `json:"raw"`
	Overflow int64 `json:"overflow"`
	Opened   int64 `json:"opened"`
	Updated  int64 `json:"updated"`
	Resolved int64 `json:"resolved"`
}

// Emissions is the number of semantic events a sink saw: one per opened
// and resolved incident plus every raw alert (updates amend an existing
// event). The compression ratio is Observed/Emissions.
func (s Stats) Emissions() int64 { return s.Opened + s.Resolved + s.Raw }

// The summarizer's fixed bounds.
const (
	// memberCap bounds the retained distinct values per varying key of one
	// incident; beyond it values are counted as extra and the incident is
	// marked Truncated.
	memberCap = 64
	// maxOpen bounds the live incident set; batches that would exceed it
	// emit raw.
	maxOpen = 128
	// resolvedKeep bounds the recently-resolved list served next to the
	// open set.
	resolvedKeep = 64
)

// Config parameterizes a Summarizer.
type Config struct {
	// Window is the batching horizon: Run flushes the pending buffer every
	// Window, so alerts within one window cluster together (default 5s).
	Window time.Duration
	// ResolveAfter resolves an open incident once it has absorbed no new
	// alerts for this long (default 60s).
	ResolveAfter time.Duration
	// MinGroup is the smallest same-family batch that opens a new
	// incident (default 3); smaller groups emit raw unless an incident
	// for the family is already open.
	MinGroup int
	// PendingCap bounds the pending-event buffer between flushes (default
	// 4096). When full, Observe spills the oldest semantics-free: the
	// incoming event is emitted raw immediately, keeping the accounting
	// exact instead of blocking the alert consumer.
	PendingCap int

	// OnIncident, when non-nil, observes every lifecycle transition with
	// an incident snapshot (safe to retain). OnRaw observes every event
	// that did not fold. Both run on the flushing goroutine — and, for
	// buffer-overflow spills, on the Observe caller.
	OnIncident func(Incident, Transition)
	OnRaw      func(Event)

	// Metrics, when non-nil, receives the nodesentry_summary_* series.
	Metrics *obs.Registry
	// Logger, when non-nil, receives incident transitions at Info.
	Logger *slog.Logger
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 5 * time.Second
	}
	if c.ResolveAfter <= 0 {
		c.ResolveAfter = 60 * time.Second
	}
	if c.MinGroup <= 0 {
		c.MinGroup = 3
	}
	if c.PendingCap <= 0 {
		c.PendingCap = 4096
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

type summaryMetrics struct {
	observed *obs.Counter
	folded   *obs.Counter
	raw      *obs.Counter
	open     *obs.Gauge
	ratio    *obs.Gauge
}

func newSummaryMetrics(r *obs.Registry) summaryMetrics {
	return summaryMetrics{
		observed: r.Counter("nodesentry_summary_alerts_observed_total"),
		folded:   r.Counter("nodesentry_summary_alerts_folded_total"),
		raw:      r.Counter("nodesentry_summary_alerts_raw_total"),
		open:     r.Gauge("nodesentry_summary_incidents_open"),
		ratio:    r.Gauge("nodesentry_summary_compression_ratio"),
	}
}

// Summarizer is the streaming windowed clusterer. Feed it with Observe on
// the alert consumer's goroutine, drive batching with Run (or Flush
// directly in tests), and Close to flush the tail and resolve every open
// incident — after Close the Stats invariant Observed == Folded + Raw
// holds exactly.
type Summarizer struct {
	cfg Config
	met summaryMetrics
	log *slog.Logger

	mu       sync.Mutex
	pend     []Event // preallocated pending buffer, pend[:n] live
	n        int
	open     map[string]*incState // metric family → live incident
	resolved []Incident           // most recent last, ≤ resolvedKeep
	stats    Stats
	seq      int64

	// flushMu serializes Flush/Close so transition callbacks for one
	// incident are delivered in order even if a test races Flush calls.
	flushMu sync.Mutex

	done      chan struct{}
	closeOnce sync.Once
}

// New builds a summarizer. Nothing runs until Run is called; Observe and
// Flush work immediately.
func New(cfg Config) *Summarizer {
	cfg = cfg.withDefaults()
	return &Summarizer{
		cfg:  cfg,
		met:  newSummaryMetrics(cfg.Metrics),
		log:  cfg.Logger,
		pend: make([]Event, cfg.PendingCap),
		open: map[string]*incState{},
		done: make(chan struct{}),
	}
}

// Observe enqueues one alert-derived event for the next fold pass.
//
// not allocate. When the pending buffer is full the event spills to the raw
// path via the OnRaw callback (a field call, off the lint closure) —
// accounting stays exact and the caller never blocks on a fold.
//
//perf:hot Observe sits on the alert consumer's per-alert path; it must
func (s *Summarizer) Observe(e Event) {
	s.mu.Lock()
	s.stats.Observed++
	s.met.observed.Inc()
	if s.n == len(s.pend) {
		s.stats.Raw++
		s.stats.Overflow++
		s.met.raw.Inc()
		cb := s.cfg.OnRaw
		s.mu.Unlock()
		if cb != nil {
			cb(e)
		}
		return
	}
	s.pend[s.n] = e
	s.n++
	s.mu.Unlock()
}

// Run flushes the pending buffer every Window until ctx is canceled or
// Close is called.
func (s *Summarizer) Run(ctx context.Context) {
	t := time.NewTicker(s.cfg.Window)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.done:
			return
		case <-t.C:
			s.Flush(s.cfg.Clock())
		}
	}
}

// Close stops Run, folds the pending tail and resolves every open
// incident, emitting the final transitions. Idempotent.
func (s *Summarizer) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.flush(s.cfg.Clock(), true)
	})
}

// Flush runs one fold pass at now: drain the pending buffer, group by
// metric family, fold each group into its open incident (or open a new
// one when the group reaches MinGroup), emit the rest raw, then resolve
// incidents quiet for ResolveAfter.
func (s *Summarizer) Flush(now time.Time) {
	s.flush(now, false)
}

// emission is one deferred callback, invoked after the state lock drops.
type emission struct {
	inc   Incident
	trans Transition
	raw   Event
	isRaw bool
}

func (s *Summarizer) flush(now time.Time, closing bool) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	s.mu.Lock()
	batch := append([]Event(nil), s.pend[:s.n]...)
	s.n = 0

	// Group by metric family, preserving deterministic family order.
	groups := map[string][]Event{}
	var order []string
	for _, e := range batch {
		key := e.Metric
		if key == "" {
			key = "Unknown"
		}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], e)
	}
	sort.Strings(order)

	var ems []emission
	for _, key := range order {
		evs := groups[key]
		st, isOpen := s.open[key]
		switch {
		case isOpen:
			s.foldLocked(st, evs)
			s.stats.Folded += int64(len(evs))
			s.met.folded.Add(int64(len(evs)))
			s.stats.Updated++
			ems = append(ems, emission{inc: st.snapshot(), trans: Updated})
		case len(evs) >= s.cfg.MinGroup && len(s.open) < maxOpen:
			s.seq++
			st = &incState{
				inc: Incident{
					ID:      fmt.Sprintf("inc-%06d", s.seq),
					State:   "open",
					Metric:  key,
					FirstTs: evs[0].Ts,
					LastTs:  evs[0].Ts,
				},
				keys: map[string]*incKey{},
			}
			s.foldLocked(st, evs)
			s.open[key] = st
			s.stats.Folded += int64(len(evs))
			s.met.folded.Add(int64(len(evs)))
			s.stats.Opened++
			ems = append(ems, emission{inc: st.snapshot(), trans: Opened})
		default:
			for _, e := range evs {
				s.stats.Raw++
				s.met.raw.Inc()
				ems = append(ems, emission{raw: e, isRaw: true})
			}
		}
	}

	// Resolve pass: incidents quiet past the horizon — or all of them
	// when closing — leave the open set.
	horizon := now.Add(-s.cfg.ResolveAfter).Unix()
	families := make([]string, 0, len(s.open))
	for key := range s.open {
		families = append(families, key)
	}
	sort.Strings(families)
	for _, key := range families {
		st := s.open[key]
		if !closing && st.inc.LastTs > horizon {
			continue
		}
		delete(s.open, key)
		st.inc.State = "resolved"
		s.stats.Resolved++
		snap := st.snapshot()
		s.resolved = append(s.resolved, snap)
		if len(s.resolved) > resolvedKeep {
			s.resolved = s.resolved[len(s.resolved)-resolvedKeep:]
		}
		ems = append(ems, emission{inc: snap, trans: Resolved})
	}

	s.met.open.Set(float64(len(s.open)))
	if em := s.stats.Emissions(); em > 0 {
		s.met.ratio.Set(float64(s.stats.Observed) / float64(em))
	}
	s.mu.Unlock()

	for _, em := range ems {
		if em.isRaw {
			if s.cfg.OnRaw != nil {
				s.cfg.OnRaw(em.raw)
			}
			continue
		}
		if s.log != nil {
			s.log.Info("incident "+string(em.trans), "id", em.inc.ID, "title", em.inc.Title,
				"count", em.inc.Count, "dimension", em.inc.Dimension)
		}
		if s.cfg.OnIncident != nil {
			s.cfg.OnIncident(em.inc, em.trans)
		}
	}
}

// foldLocked absorbs evs into st: counts, time span, severity rollup, and
// the per-key distinct-value accumulators.
func (s *Summarizer) foldLocked(st *incState, evs []Event) {
	for _, e := range evs {
		st.inc.Count++
		if st.inc.FirstTs == 0 || e.Ts < st.inc.FirstTs {
			st.inc.FirstTs = e.Ts
		}
		if e.Ts > st.inc.LastTs {
			st.inc.LastTs = e.Ts
		}
		if e.Severity > st.inc.Severity {
			st.inc.Severity = e.Severity
		}
		if e.Priority > st.inc.Priority {
			st.inc.Priority = e.Priority
		}
		for k, v := range e.Tags {
			ik, ok := st.keys[k]
			if !ok {
				ik = &incKey{seen: map[string]struct{}{}}
				st.keys[k] = ik
			}
			ik.count++
			if _, dup := ik.seen[v]; dup {
				continue
			}
			if len(ik.values) >= memberCap {
				ik.extra++
				st.inc.Truncated = true
				continue
			}
			ik.seen[v] = struct{}{}
			ik.values = append(ik.values, v)
		}
	}
}

// snapshot renders the incident's public view from the accumulators:
// re-partitioned constant/varying tags, the spanning dimension, and the
// refreshed title. The returned value shares nothing with live state.
func (st *incState) snapshot() Incident {
	inc := st.inc
	part := TagPartition{ConstantTags: map[string]string{}, VaryingTags: map[string][]string{}}
	for k, ik := range st.keys {
		if ik.count == inc.Count && len(ik.values) == 1 && ik.extra == 0 {
			part.ConstantTags[k] = ik.values[0]
			continue
		}
		vs := append([]string(nil), ik.values...)
		sort.Strings(vs)
		part.VaryingTags[k] = vs
	}
	inc.ConstantTags = part.ConstantTags
	inc.VaryingTags = part.VaryingTags
	inc.Dimension = part.Dimension()
	inc.Title = title(inc.Metric, part, inc.Count)
	return inc
}

// Snapshot is the /fleet/incidents response body: the live incident set
// (family-sorted), the recently resolved tail (oldest first) and the
// accounting totals.
type Snapshot struct {
	Open     []Incident `json:"open"`
	Resolved []Incident `json:"resolved"`
	Stats    Stats      `json:"stats"`
}

// Incidents returns the current snapshot. A nil summarizer — the tier is
// off — has the empty one, so the surfaces serving it degrade gracefully.
func (s *Summarizer) Incidents() Snapshot {
	if s == nil {
		return Snapshot{Open: []Incident{}, Resolved: []Incident{}}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Open:     make([]Incident, 0, len(s.open)),
		Resolved: append([]Incident{}, s.resolved...),
		Stats:    s.stats,
	}
	families := make([]string, 0, len(s.open))
	for key := range s.open {
		families = append(families, key)
	}
	sort.Strings(families)
	for _, key := range families {
		snap.Open = append(snap.Open, s.open[key].snapshot())
	}
	return snap
}

// Stats returns the accounting totals so far.
func (s *Summarizer) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// OpenCount returns the live incident count (tests, gauges).
func (s *Summarizer) OpenCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.open)
}
