package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nodesentry/internal/fleetview"
	"nodesentry/internal/ingest"
	"nodesentry/internal/lifecycle"
	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
	"nodesentry/internal/summary"
	"nodesentry/internal/telemetry"
)

// mergedJournalSize bounds the merged event journal: room for several
// scorers' fleetview journals at once.
const mergedJournalSize = 4096

// Config parameterizes a Coordinator.
type Config struct {
	// TotalShards is the number of partition lines the fleet is split
	// into (default 8). Must match what feeders use to place nodes.
	TotalShards int
	// LeaseTTL is how long a scorer stays a member without a heartbeat
	// (default 10s). Expiry triggers shard reassignment.
	LeaseTTL time.Duration
	// SweepInterval is Run's cadence for lease expiry + fleet fan-in
	// (default 2s).
	SweepInterval time.Duration
	// DedupWindow bounds the (node, time) alert-dedup memory (default
	// 8192 keys, FIFO-evicted).
	DedupWindow int
	// LedgerSize bounds the accepted-alert ledger (default 16384).
	LedgerSize int
	// VicinityThreshold is only cosmetic here: the merged dashboard's
	// divergence highlight line (default 4).
	VicinityThreshold float64

	// Store, when non-nil, is the model registry served over /registry/.
	Store *lifecycle.Store

	// Summary, when non-nil, runs the semantic summarization tier over
	// the merged fan-in: every accepted envelope feeds the clusterer,
	// Sweep is the flush cadence, incidents land on the merged journal
	// and (with WebhookURL) the operator webhook as one folded payload
	// per open/resolve instead of one POST per alert.
	Summary *summary.Config
	// WebhookURL, when set, receives coordinator-side deliveries: folded
	// incident payloads when Summary is on, one raw envelope per accepted
	// alert when it is off.
	WebhookURL    string
	WebhookClient *http.Client

	// Client performs fan-in scrapes (default: 5s-timeout client).
	Client *http.Client
	// Metrics, when non-nil, receives the nodesentry_coord_* series.
	Metrics *obs.Registry
	// Logger, when non-nil, receives membership transitions.
	Logger *slog.Logger
	// Clock overrides time.Now for lease arithmetic (tests).
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.TotalShards <= 0 {
		c.TotalShards = 8
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = 2 * time.Second
	}
	if c.DedupWindow <= 0 {
		c.DedupWindow = 8192
	}
	if c.LedgerSize <= 0 {
		c.LedgerSize = 16384
	}
	if c.VicinityThreshold <= 0 {
		c.VicinityThreshold = 4
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// member is one scorer's live coordinator-side record.
type member struct {
	info    ScorerInfo
	expires time.Time

	// Fan-in caches, refreshed by Sweep.
	state   fleetview.FleetState
	stateOK bool
	series  []telemetry.Series
}

// Ledger is the coordinator's exact alert accounting: every forwarded
// alert lands in exactly one bucket, so
//
//	Received == Accepted + Fenced + Deduped
//
// holds at any quiescent point — the equation the chaos partition drill
// reconciles against the scorers' own webhook ledgers.
type Ledger struct {
	Received int64 `json:"received"`
	Accepted int64 `json:"accepted"`
	Fenced   int64 `json:"fenced"`
	Deduped  int64 `json:"deduped"`
}

type coordMetrics struct {
	members    *obs.Gauge
	epoch      *obs.Gauge
	reassigns  *obs.Counter
	expiries   *obs.Counter
	sweeps     *obs.Counter
	scrapeErrs *obs.Counter
	accepted   *obs.Counter
	fenced     *obs.Counter
	deduped    *obs.Counter
}

func newCoordMetrics(r *obs.Registry) coordMetrics {
	return coordMetrics{
		members:    r.Gauge("nodesentry_coord_members"),
		epoch:      r.Gauge("nodesentry_coord_epoch"),
		reassigns:  r.Counter("nodesentry_coord_reassignments_total"),
		expiries:   r.Counter("nodesentry_coord_lease_expiries_total"),
		sweeps:     r.Counter("nodesentry_coord_sweeps_total"),
		scrapeErrs: r.Counter("nodesentry_coord_fanin_errors_total"),
		accepted:   r.Counter("nodesentry_coord_alerts_total", "status", VerdictAccepted),
		fenced:     r.Counter("nodesentry_coord_alerts_total", "status", VerdictFenced),
		deduped:    r.Counter("nodesentry_coord_alerts_total", "status", VerdictDuplicate),
	}
}

// Coordinator is the fleet control plane. Construct with New, mount its
// HTTP surface via Mounts, drive leases and fan-in with Run (or Sweep
// directly in tests), and Close when done.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*member
	epoch   int64
	owner   []string // shard → scorer ID ("" unowned)
	since   []int64  // shard → epoch at which the current owner acquired it

	dedup    map[string]struct{}
	dedupFot []string // FIFO eviction order
	ledger   Ledger
	accepted []AlertEnvelope

	journal *fleetview.Journal
	bus     *fleetview.Bus

	egress *summary.Egress[AlertEnvelope]

	met coordMetrics
	log *slog.Logger

	done      chan struct{}
	closeOnce sync.Once
}

// New builds a coordinator. Nothing runs until Run (or Sweep) is called;
// the HTTP surface from Mounts is live immediately.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		members: map[string]*member{},
		owner:   make([]string, cfg.TotalShards),
		since:   make([]int64, cfg.TotalShards),
		dedup:   map[string]struct{}{},
		journal: fleetview.NewJournal(mergedJournalSize),
		bus:     fleetview.NewBus(),
		met:     newCoordMetrics(cfg.Metrics),
		log:     cfg.Logger,
		done:    make(chan struct{}),
	}
	c.journal.SetSource("coordinator")
	ecfg := summary.EgressConfig[AlertEnvelope]{
		Summary: cfg.Summary,
		Event:   eventFromEnvelope,
		SendRaw: postEnvelope,
		Journal: c.journalIncident,
		Metrics: cfg.Metrics,
		Logger:  cfg.Logger,
	}
	if cfg.WebhookURL != "" {
		ecfg.Sink = &runtime.WebhookSink{
			URL:     cfg.WebhookURL,
			Client:  cfg.WebhookClient,
			Metrics: cfg.Metrics,
		}
	}
	c.egress = summary.NewEgress(ecfg)
	return c
}

// postEnvelope delivers one raw accepted envelope to the webhook.
func postEnvelope(sink *runtime.WebhookSink, env AlertEnvelope) error {
	body, err := json.Marshal(env)
	if err != nil {
		return err
	}
	return sink.SendRaw(body)
}

// journalIncident records one incident transition on the merged journal
// and its SSE bus.
func (c *Coordinator) journalIncident(inc summary.Incident, tr summary.Transition) {
	c.bus.Publish(c.journal.Append(fleetview.IncidentEvent(inc, tr)))
}

// eventFromEnvelope adapts one accepted wire envelope to the clusterer's
// input shape: the metric family keys the group, the tags carry the
// dimensions incidents partition on — node (the usual varying dimension
// in a correlated flood), job, scorer and diagnosis level.
func eventFromEnvelope(env AlertEnvelope) summary.Event {
	metric := env.Family
	if metric == "" {
		metric = env.Level
	}
	tags := map[string]string{"node": env.Node}
	if env.Scorer != "" {
		tags["scorer"] = env.Scorer
	}
	if env.Job != 0 {
		tags["job"] = strconv.FormatInt(env.Job, 10)
	}
	if env.Level != "" {
		tags["level"] = env.Level
	}
	return summary.Event{
		Ts:       env.Time,
		Metric:   metric,
		Tags:     tags,
		Severity: env.Score,
		Priority: env.Priority,
		Raw:      env,
	}
}

// Close ends Run and every open SSE stream and releases the fan-in
// client's idle connections. Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.done)
		// Force-flush the egress first: pending envelopes fold and every
		// open incident resolves while the webhook is still usable.
		c.egress.Close()
		c.cfg.Client.CloseIdleConnections()
	})
}

// Epoch returns the current assignment epoch.
func (c *Coordinator) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Journal exposes the merged event journal (tests, reconciliation).
func (c *Coordinator) Journal() *fleetview.Journal { return c.journal }

// LedgerSnapshot returns the alert accounting so far.
func (c *Coordinator) LedgerSnapshot() Ledger {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger
}

// Accepted returns a copy of the accepted-alert ledger entries, in
// acceptance order.
func (c *Coordinator) Accepted() []AlertEnvelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]AlertEnvelope(nil), c.accepted...)
}

// Run sweeps leases and fans in scorer state every SweepInterval until
// ctx is canceled or Close is called.
func (c *Coordinator) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.done:
			return
		case <-t.C:
			c.Sweep()
		}
	}
}

// ---- membership ----

// Register admits (or refreshes) a scorer and returns its assignment.
// Re-registering an existing ID renews the lease in place — a restarted
// scorer gets its shards back without an epoch bump if the table is
// unchanged.
func (c *Coordinator) Register(info ScorerInfo) Assignment {
	now := c.cfg.Clock()
	c.mu.Lock()
	m, ok := c.members[info.ID]
	if !ok {
		m = &member{info: info}
		m.info.RegisteredUnix = now.Unix()
		c.members[info.ID] = m
		if c.log != nil {
			c.log.Info("scorer registered", "id", info.ID, "push", info.PushURL, "obs", info.ObsURL)
		}
	} else {
		// Keep the original registration time; refresh the endpoints (a
		// restarted scorer may listen elsewhere).
		m.info.PushURL, m.info.ObsURL = info.PushURL, info.ObsURL
	}
	m.info.LastSeenUnix = now.Unix()
	m.expires = now.Add(c.cfg.LeaseTTL)
	c.recomputeLocked("register " + info.ID)
	a := c.assignmentLocked(info.ID)
	c.mu.Unlock()
	return a
}

// Heartbeat renews a scorer's lease and returns its current assignment.
// Unknown IDs (expired, or the coordinator restarted) get ok=false — the
// scorer must re-register.
func (c *Coordinator) Heartbeat(id string) (Assignment, bool) {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	if !ok {
		return Assignment{}, false
	}
	m.info.LastSeenUnix = now.Unix()
	m.expires = now.Add(c.cfg.LeaseTTL)
	return c.assignmentLocked(id), true
}

// Leave removes a scorer immediately (graceful shutdown) and reassigns
// its shards.
func (c *Coordinator) Leave(id string) {
	c.mu.Lock()
	if _, ok := c.members[id]; ok {
		delete(c.members, id)
		if c.log != nil {
			c.log.Info("scorer left", "id", id)
		}
		c.recomputeLocked("leave " + id)
	}
	c.mu.Unlock()
}

// Scorers lists the live membership, ID-sorted.
func (c *Coordinator) Scorers() []ScorerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ScorerInfo, 0, len(c.members))
	for id, m := range c.members {
		info := m.info
		info.Shards = c.shardsOfLocked(id)
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Assignments returns every live scorer's assignment under one epoch.
func (c *Coordinator) Assignments() []Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.members))
	for id := range c.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Assignment, 0, len(ids))
	for _, id := range ids {
		out = append(out, c.assignmentLocked(id))
	}
	return out
}

// Owner returns the scorer currently owning node's shard ("" when the
// fleet is empty) — the answer feeders route by.
func (c *Coordinator) Owner(node string) (ScorerInfo, bool) {
	shard := ingest.FNVShard(node, c.cfg.TotalShards)
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.owner[shard]
	m, ok := c.members[id]
	if !ok {
		return ScorerInfo{}, false
	}
	info := m.info
	info.Shards = c.shardsOfLocked(id)
	return info, true
}

func (c *Coordinator) shardsOfLocked(id string) []int {
	var shards []int
	for s, owner := range c.owner {
		if owner == id {
			shards = append(shards, s)
		}
	}
	return shards
}

func (c *Coordinator) assignmentLocked(id string) Assignment {
	return Assignment{
		Epoch:       c.epoch,
		Scorer:      id,
		Shards:      c.shardsOfLocked(id),
		TotalShards: c.cfg.TotalShards,
	}
}

// recomputeLocked rebuilds the shard→owner table from the sorted member
// IDs (shard i → ids[i mod n], the minimal deterministic spread over the
// FNV partition lines). Any change bumps the epoch once and re-stamps the
// acquisition epoch of every shard that changed hands — the `since` line
// the alert fence compares against.
func (c *Coordinator) recomputeLocked(cause string) {
	ids := make([]string, 0, len(c.members))
	for id := range c.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	next := make([]string, c.cfg.TotalShards)
	if len(ids) > 0 {
		for s := range next {
			next[s] = ids[s%len(ids)]
		}
	}
	changed := false
	for s := range next {
		if next[s] != c.owner[s] {
			changed = true
			break
		}
	}
	if !changed {
		c.met.members.Set(float64(len(c.members)))
		return
	}
	c.epoch++
	moved := 0
	for s := range next {
		if next[s] != c.owner[s] {
			c.since[s] = c.epoch
			moved++
		}
	}
	c.owner = next
	c.met.members.Set(float64(len(c.members)))
	c.met.epoch.Set(float64(c.epoch))
	c.met.reassigns.Inc()
	e := c.journal.Append(fleetview.Event{
		Ts:     c.cfg.Clock().Unix(),
		Kind:   EventReassign,
		Detail: fmt.Sprintf("cause=%s epoch=%d scorers=%d moved=%d", cause, c.epoch, len(ids), moved),
		Value:  float64(moved),
	})
	c.bus.Publish(e)
	if c.log != nil {
		c.log.Info("shards reassigned", "cause", cause, "epoch", c.epoch, "scorers", len(ids), "moved", moved)
	}
}

// EventReassign is the merged journal's kind for assignment-table changes.
const EventReassign = "reassign"

// ---- alert fan-in ----

// Accept runs one forwarded alert through the fence and the dedup ledger,
// returning the verdict. The fence admits an envelope iff its sender owns
// the node's shard right now AND the envelope's epoch is not older than
// the owner's acquisition epoch — a scorer that held a shard continuously
// across an unrelated epoch bump keeps landing alerts, while one that
// lost (or hasn't yet regained) the shard is fenced.
func (c *Coordinator) Accept(env AlertEnvelope) AlertVerdict {
	shard := ingest.FNVShard(env.Node, c.cfg.TotalShards)
	c.mu.Lock()
	c.ledger.Received++
	epoch := c.epoch
	if c.owner[shard] != env.Scorer || env.Epoch < c.since[shard] {
		c.ledger.Fenced++
		c.mu.Unlock()
		c.met.fenced.Inc()
		return AlertVerdict{Status: VerdictFenced, Epoch: epoch}
	}
	key := env.Node + "@" + strconv.FormatInt(env.Time, 10)
	if _, dup := c.dedup[key]; dup {
		c.ledger.Deduped++
		c.mu.Unlock()
		c.met.deduped.Inc()
		return AlertVerdict{Status: VerdictDuplicate, Epoch: epoch}
	}
	c.dedup[key] = struct{}{}
	c.dedupFot = append(c.dedupFot, key)
	if len(c.dedupFot) > c.cfg.DedupWindow {
		delete(c.dedup, c.dedupFot[0])
		c.dedupFot = c.dedupFot[1:]
	}
	c.ledger.Accepted++
	if len(c.accepted) < c.cfg.LedgerSize {
		c.accepted = append(c.accepted, env)
	}
	// Journal, bus and egress all have their own locks, and webhook
	// delivery blocks on HTTP — none of it belongs under c.mu.
	c.mu.Unlock()
	c.met.accepted.Inc()
	e := c.journal.Append(fleetview.Event{
		Ts:     env.Time,
		Kind:   fleetview.EventAlert,
		Node:   env.Node,
		Detail: fmt.Sprintf("scorer=%s epoch=%d job=%d priority=%d level=%s", env.Scorer, env.Epoch, env.Job, env.Priority, env.Level),
		Value:  env.Score,
	})
	c.bus.Publish(e)
	c.egress.Observe(env)
	return AlertVerdict{Status: VerdictAccepted, Epoch: epoch}
}

// ---- lease + fan-in sweep ----

// Sweep runs one coordinator maintenance pass: expire lapsed leases
// (reassigning their shards), then scrape every live scorer's
// /fleet/state, /fleet/events and /metrics into the merged caches. Run
// calls it on a ticker; tests and the chaos drill call it directly for
// deterministic timing.
func (c *Coordinator) Sweep() {
	now := c.cfg.Clock()
	c.mu.Lock()
	expired := 0
	for id, m := range c.members {
		if now.After(m.expires) {
			delete(c.members, id)
			expired++
			if c.log != nil {
				c.log.Warn("scorer lease expired", "id", id, "last_seen", m.info.LastSeenUnix)
			}
		}
	}
	if expired > 0 {
		c.met.expiries.Add(int64(expired))
		c.recomputeLocked("lease expiry")
	}
	type target struct {
		id  string
		obs string
	}
	targets := make([]target, 0, len(c.members))
	for id, m := range c.members {
		if m.info.ObsURL != "" {
			targets = append(targets, target{id, m.info.ObsURL})
		}
	}
	c.mu.Unlock()

	// Scrapes run off-lock; results land under it. A scorer that vanished
	// mid-scrape simply has its result dropped.
	for _, t := range targets {
		st, stErr := c.fetchState(t.obs)
		events, evErr := c.fetchEvents(t.obs, c.journal.Cursor(t.id))
		series, seErr := c.fetchMetrics(t.obs)
		for _, err := range []error{stErr, evErr, seErr} {
			if err != nil {
				c.met.scrapeErrs.Inc()
				if c.log != nil {
					c.log.Warn("fan-in scrape failed", "scorer", t.id, "err", err)
				}
			}
		}
		for _, e := range events {
			if e.Src == "" {
				// A scorer journal without a configured source: namespace
				// it here so merged cursors stay per-daemon.
				e.Src, e.SrcSeq = t.id, e.Seq
			}
			if admitted, ok := c.journal.AppendIfNew(e); ok {
				c.bus.Publish(admitted)
			}
		}
		c.mu.Lock()
		if m, ok := c.members[t.id]; ok {
			if stErr == nil {
				m.state, m.stateOK = st, true
			}
			if seErr == nil {
				m.series = series
			}
		}
		c.mu.Unlock()
	}
	// Sweep is the coordinator's flush cadence: envelopes accepted since
	// the last pass cluster into incidents, and incidents quiet past
	// ResolveAfter resolve. Tests drive this deterministically by calling
	// Sweep with a fake Clock.
	c.egress.Flush(c.cfg.Clock())
	c.met.sweeps.Inc()
}

func (c *Coordinator) fetchState(base string) (fleetview.FleetState, error) {
	var st fleetview.FleetState
	body, err := c.get(base + "/fleet/state?spark=0")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		return st, fmt.Errorf("coord: decode fleet state: %w", err)
	}
	return st, nil
}

func (c *Coordinator) fetchEvents(base string, since uint64) ([]fleetview.Event, error) {
	body, err := c.get(fmt.Sprintf("%s/fleet/events?since=%d", base, since))
	if err != nil {
		return nil, err
	}
	var events []fleetview.Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		return nil, fmt.Errorf("coord: decode events: %w", err)
	}
	return events, nil
}

func (c *Coordinator) fetchMetrics(base string) ([]telemetry.Series, error) {
	body, err := c.get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	series, err := telemetry.ParseSeries(body)
	if err != nil {
		return nil, fmt.Errorf("coord: parse scorer metrics: %w", err)
	}
	return series, nil
}

// get fetches one scorer surface, its body bounded by
// ingest.DefaultMaxBodyBytes: a scorer answering with more fails the fetch,
// and the sweep keeps the member's last good cache.
func (c *Coordinator) get(url string) (string, error) {
	resp, err := c.cfg.Client.Get(url)
	if err != nil {
		return "", fmt.Errorf("coord: get %s: %w", url, err)
	}
	defer func() { _ = resp.Body.Close() }() // body read (or abandoned past the bound) below; close error is inert
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("coord: get %s: %s", url, resp.Status)
	}
	body, err := ingest.ReadLimited(resp.Body, ingest.DefaultMaxBodyBytes)
	if err != nil {
		return "", fmt.Errorf("coord: read %s: %w", url, err)
	}
	return body, nil
}

// ---- merged views ----

// MergedState assembles the fleet-wide /fleet/state: every live scorer's
// cached node rows, keeping for each node only the row reported by the
// shard's current owner — a stale scorer's rows are fenced out of the
// merged view exactly as its alerts are. Epoch is the assignment epoch;
// JournalSeq indexes the merged journal.
func (c *Coordinator) MergedState() fleetview.FleetState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := fleetview.FleetState{
		Now:        c.cfg.Clock().Unix(),
		Epoch:      c.epoch,
		JournalSeq: c.journal.Seq(),
	}
	for id, m := range c.members {
		if !m.stateOK {
			continue
		}
		st.Dropped += m.state.Dropped
		st.Seq += m.state.Seq
		for _, row := range m.state.Nodes {
			if c.owner[ingest.FNVShard(row.Node, c.cfg.TotalShards)] == id {
				st.Nodes = append(st.Nodes, row)
			}
		}
	}
	sort.Slice(st.Nodes, func(i, j int) bool { return st.Nodes[i].Node < st.Nodes[j].Node })
	return st
}

// MergedMetricsText renders the fan-in metrics surface: every scraped
// scorer series summed across the fleet by series identity, in
// Prometheus text format. Gauges that shouldn't be summed (queue depths,
// etc.) still read sensibly as fleet totals; per-scorer detail stays on
// the scorers' own /metrics.
func (c *Coordinator) MergedMetricsText() string {
	c.mu.Lock()
	sums := map[string]float64{}
	scorers := 0
	for _, m := range c.members {
		if len(m.series) == 0 {
			continue
		}
		scorers++
		for _, s := range m.series {
			sums[s.Key()] += s.Value
		}
	}
	c.mu.Unlock()
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "# merged across %d scorers by nodesentry coordinator\n", scorers)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %v\n", k, sums[k])
	}
	return b.String()
}
