package coord

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/ingest"
	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
)

// AgentConfig parameterizes the scorer-side coordinator client.
type AgentConfig struct {
	// ID is this scorer's stable name (required). It doubles as the
	// fleetview journal source, so merged event feeds stay per-daemon.
	ID string
	// CoordinatorURL is the coordinator's base URL (required).
	CoordinatorURL string
	// PushURL / ObsURL are this scorer's advertised endpoints.
	PushURL string
	ObsURL  string

	// HeartbeatInterval is the lease-renewal cadence (default 2s; keep it
	// well under the coordinator's LeaseTTL).
	HeartbeatInterval time.Duration
	// PullInterval is the model-sync cadence (default 10s; 0 keeps the
	// default, negative disables pulling).
	PullInterval time.Duration
	// ActiveModelID seeds the agent's view of which registry version it
	// already runs, so a freshly-started scorer doesn't re-pull the model
	// it was trained/loaded with.
	ActiveModelID string

	// Client overrides the HTTP client (default 5s timeout).
	Client *http.Client
	// Metrics, when non-nil, receives the nodesentry_agent_* series.
	Metrics *obs.Registry
	// Logger, when non-nil, receives membership and swap transitions.
	Logger *slog.Logger
}

func (c AgentConfig) withDefaults() AgentConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.PullInterval == 0 {
		c.PullInterval = 10 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 5 * time.Second}
	}
	return c
}

type agentMetrics struct {
	heartbeats *obs.Counter
	hbErrors   *obs.Counter
	epochG     *obs.Gauge
	fwdAcc     *obs.Counter
	fwdFenced  *obs.Counter
	fwdDup     *obs.Counter
	fwdErrors  *obs.Counter
	pulls      *obs.Counter
	swaps      *obs.Counter
}

func newAgentMetrics(r *obs.Registry) agentMetrics {
	return agentMetrics{
		heartbeats: r.Counter("nodesentry_agent_heartbeats_total"),
		hbErrors:   r.Counter("nodesentry_agent_heartbeat_errors_total"),
		epochG:     r.Gauge("nodesentry_agent_assignment_epoch"),
		fwdAcc:     r.Counter("nodesentry_agent_alerts_forwarded_total", "status", VerdictAccepted),
		fwdFenced:  r.Counter("nodesentry_agent_alerts_forwarded_total", "status", VerdictFenced),
		fwdDup:     r.Counter("nodesentry_agent_alerts_forwarded_total", "status", VerdictDuplicate),
		fwdErrors:  r.Counter("nodesentry_agent_forward_errors_total"),
		pulls:      r.Counter("nodesentry_agent_model_pulls_total"),
		swaps:      r.Counter("nodesentry_agent_model_swaps_total"),
	}
}

// Agent is a scorer's coordinator client: it registers, heartbeats the
// lease, applies every assignment to the scorer's ShardFilter, forwards
// alerts under the current epoch, and keeps the scorer's detector synced
// to the registry's active version (checksum-verified hot swap).
type Agent struct {
	cfg    AgentConfig
	filter *ShardFilter
	mon    *runtime.Monitor

	mu         sync.Mutex
	assignment Assignment
	registered bool
	modelID    string

	met     agentMetrics
	log     *slog.Logger
	badOnce sync.Once // logs the first rejected assignment only
}

// NewAgent builds an agent around the scorer's shard filter and (for
// model sync; may be nil to disable) its monitor. Call Run on its own
// goroutine; stop it by canceling the context.
func NewAgent(cfg AgentConfig, filter *ShardFilter, mon *runtime.Monitor) (*Agent, error) {
	cfg = cfg.withDefaults()
	if cfg.ID == "" {
		return nil, fmt.Errorf("coord: agent needs an ID")
	}
	if cfg.CoordinatorURL == "" {
		return nil, fmt.Errorf("coord: agent needs a coordinator URL")
	}
	if filter == nil {
		return nil, fmt.Errorf("coord: agent needs a shard filter")
	}
	return &Agent{
		cfg:     cfg,
		filter:  filter,
		mon:     mon,
		modelID: cfg.ActiveModelID,
		met:     newAgentMetrics(cfg.Metrics),
		log:     cfg.Logger,
	}, nil
}

// Assignment returns the latest applied assignment (zero before the
// first successful register).
func (ag *Agent) Assignment() Assignment {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	return ag.assignment
}

// Run drives the register → heartbeat loop (and model sync) until ctx is
// canceled. Registration failures retry on the heartbeat cadence — a
// scorer outliving an unreachable coordinator keeps scoring its last
// assignment (or everything, before the first one) rather than dying.
func (ag *Agent) Run(ctx context.Context) {
	ag.Register()
	hb := time.NewTicker(ag.cfg.HeartbeatInterval)
	defer hb.Stop()
	var pullC <-chan time.Time
	if ag.cfg.PullInterval > 0 {
		pull := time.NewTicker(ag.cfg.PullInterval)
		defer pull.Stop()
		pullC = pull.C
	}
	for {
		select {
		case <-ctx.Done():
			ag.leave()
			ag.cfg.Client.CloseIdleConnections()
			return
		case <-hb.C:
			ag.HeartbeatOnce()
		case <-pullC:
			if err := ag.SyncModel(); err != nil && ag.log != nil {
				ag.log.Warn("model sync failed", "err", err)
			}
		}
	}
}

// Register announces the scorer to the coordinator and applies the
// returned assignment. Reports success.
func (ag *Agent) Register() bool {
	var a Assignment
	err := ag.postJSON("/coord/register", ScorerInfo{
		ID: ag.cfg.ID, PushURL: ag.cfg.PushURL, ObsURL: ag.cfg.ObsURL,
	}, &a)
	if err != nil {
		ag.met.hbErrors.Inc()
		if ag.log != nil {
			ag.log.Warn("register failed", "coordinator", ag.cfg.CoordinatorURL, "err", err)
		}
		return false
	}
	if !ag.apply(a) {
		return false
	}
	if ag.log != nil {
		ag.log.Info("registered", "epoch", a.Epoch, "shards", len(a.Shards))
	}
	return true
}

// HeartbeatOnce renews the lease and applies the (possibly changed)
// assignment; a Gone answer re-registers. Reports whether the lease is
// currently held.
func (ag *Agent) HeartbeatOnce() bool {
	ag.mu.Lock()
	registered := ag.registered
	ag.mu.Unlock()
	if !registered {
		return ag.Register()
	}
	ag.met.heartbeats.Inc()
	var a Assignment
	err := ag.postJSON("/coord/heartbeat", struct {
		ID string `json:"id"`
	}{ag.cfg.ID}, &a)
	switch {
	case err == nil:
		return ag.apply(a)
	case errIsGone(err):
		// Lease lapsed (we were partitioned past the TTL): rejoin.
		ag.mu.Lock()
		ag.registered = false
		ag.mu.Unlock()
		return ag.Register()
	default:
		ag.met.hbErrors.Inc()
		if ag.log != nil {
			ag.log.Warn("heartbeat failed", "err", err)
		}
		return false
	}
}

// apply installs a in the shard filter and records the lease as held. An
// assignment the filter rejects counts as a failed heartbeat: the last
// good assignment keeps being enforced.
func (ag *Agent) apply(a Assignment) bool {
	if err := ag.filter.SetAssignment(a); err != nil {
		ag.met.hbErrors.Inc()
		ag.badOnce.Do(func() {
			if ag.log != nil {
				ag.log.Warn("assignment rejected", "coordinator", ag.cfg.CoordinatorURL, "err", err)
			}
		})
		return false
	}
	ag.met.epochG.Set(float64(a.Epoch))
	ag.mu.Lock()
	ag.assignment = a
	ag.registered = true
	ag.mu.Unlock()
	return true
}

// leave deregisters gracefully (best effort — the lease expires anyway).
func (ag *Agent) leave() {
	_ = ag.postJSON("/coord/leave", struct {
		ID string `json:"id"`
	}{ag.cfg.ID}, nil)
}

// forwardBackoff spaces ForwardAlert's three attempts 50 ms apart.
var forwardBackoff = ingest.Backoff{Base: 50 * time.Millisecond, Factor: 1}

// ForwardAlert sends one alert to the coordinator under the current
// assignment epoch. At-least-once: transient transport errors retry
// twice; the coordinator's fence and dedup make redelivery safe. The
// returned verdict is VerdictFenced et al., or an error when delivery
// never succeeded.
func (ag *Agent) ForwardAlert(a runtime.Alert) (string, error) {
	env := Envelope(a, ag.cfg.ID, ag.Assignment().Epoch)
	var verdict AlertVerdict
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			<-time.After(forwardBackoff.Delay(attempt, nil))
		}
		if err = ag.postJSON("/coord/alerts", env, &verdict); err == nil {
			switch verdict.Status {
			case VerdictAccepted:
				ag.met.fwdAcc.Inc()
			case VerdictFenced:
				ag.met.fwdFenced.Inc()
			case VerdictDuplicate:
				ag.met.fwdDup.Inc()
			}
			return verdict.Status, nil
		}
	}
	ag.met.fwdErrors.Inc()
	return "", fmt.Errorf("coord: forward alert for %s: %w", a.Node, err)
}

// SyncModel pulls the registry's active version if it differs from what
// the scorer runs, verifies the payload against the manifest checksum,
// and hot-swaps the monitor's detector. A nil monitor or a registry-less
// coordinator makes it a no-op.
func (ag *Agent) SyncModel() error {
	if ag.mon == nil {
		return nil
	}
	body, err := ag.get("/registry/manifest", ingest.DefaultMaxBodyBytes)
	if err != nil {
		return err
	}
	var man Manifest
	if err := json.Unmarshal([]byte(body), &man); err != nil {
		return fmt.Errorf("coord: decode manifest: %w", err)
	}
	if !man.HasActive {
		return nil
	}
	ag.mu.Lock()
	current := ag.modelID
	ag.mu.Unlock()
	if man.Active.ID == current {
		return nil
	}
	ag.met.pulls.Inc()
	// The manifest says how long the payload is: a byte more fails the pull
	// before anything is hashed or decoded.
	payload, err := ag.get("/registry/model/"+man.Active.ID, man.Active.Bytes)
	if err != nil {
		return err
	}
	sum := sha256.Sum256([]byte(payload))
	if hex.EncodeToString(sum[:]) != man.Active.SHA256 {
		return fmt.Errorf("coord: model %s checksum mismatch (have %s, manifest %s)",
			man.Active.ID, hex.EncodeToString(sum[:8]), man.Active.SHA256[:16])
	}
	det, err := core.Load(strings.NewReader(payload))
	if err != nil {
		return fmt.Errorf("coord: decode model %s: %w", man.Active.ID, err)
	}
	pause, err := ag.mon.SwapDetector(det)
	if err != nil {
		return fmt.Errorf("coord: swap model %s: %w", man.Active.ID, err)
	}
	ag.mu.Lock()
	ag.modelID = man.Active.ID
	ag.mu.Unlock()
	ag.met.swaps.Inc()
	if ag.log != nil {
		ag.log.Info("model swapped from registry", "version", man.Active.ID, "pause", pause)
	}
	return nil
}

// ModelID returns the registry version the scorer currently runs.
func (ag *Agent) ModelID() string {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	return ag.modelID
}

// ---- transport ----

// goneError marks a 410 response (lease lost, must re-register).
type goneError struct{ msg string }

func (e *goneError) Error() string { return e.msg }

func errIsGone(err error) bool {
	_, ok := err.(*goneError)
	return ok
}

// postJSON posts req and decodes the coordinator's answer into resp, the
// answer bounded by ingest.DefaultMaxBodyBytes.
func (ag *Agent) postJSON(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("coord: encode %s: %w", path, err)
	}
	r, err := ag.cfg.Client.Post(ag.cfg.CoordinatorURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("coord: post %s: %w", path, err)
	}
	defer func() { _ = r.Body.Close() }() // body read (or abandoned past the bound) below; close error is inert
	raw, err := ingest.ReadLimited(r.Body, ingest.DefaultMaxBodyBytes)
	if err != nil {
		return fmt.Errorf("coord: read %s: %w", path, err)
	}
	if r.StatusCode == http.StatusGone {
		return &goneError{msg: fmt.Sprintf("coord: %s: %s", path, http.StatusText(http.StatusGone))}
	}
	if r.StatusCode >= 300 {
		return fmt.Errorf("coord: post %s: %s", path, r.Status)
	}
	if resp != nil && len(raw) > 0 {
		if err := json.Unmarshal([]byte(raw), resp); err != nil {
			return fmt.Errorf("coord: decode %s response: %w", path, err)
		}
	}
	return nil
}

// get fetches one coordinator surface, failing once the body passes limit
// bytes.
func (ag *Agent) get(path string, limit int64) (string, error) {
	r, err := ag.cfg.Client.Get(ag.cfg.CoordinatorURL + path)
	if err != nil {
		return "", fmt.Errorf("coord: get %s: %w", path, err)
	}
	defer func() { _ = r.Body.Close() }() // body read (or abandoned past the bound) below; close error is inert
	if r.StatusCode != http.StatusOK {
		return "", fmt.Errorf("coord: get %s: %s", path, r.Status)
	}
	body, err := ingest.ReadLimited(r.Body, limit)
	if err != nil {
		return "", fmt.Errorf("coord: read %s: %w", path, err)
	}
	return body, nil
}
