// Package daemon assembles the full sentryd run-loop — push+scrape
// intake → decoder → shard router → monitor (→ lifecycle tee) → alert
// consumer → webhook — as one constructible, closable value. cmd/sentryd
// is a flag parser around it; internal/chaos drives the identical wiring
// under scripted infrastructure faults, so the soak tests exercise the
// literal production loop rather than a test-only reassembly.
package daemon

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"nodesentry/internal/coord"
	"nodesentry/internal/core"
	"nodesentry/internal/fleetview"
	"nodesentry/internal/ingest"
	"nodesentry/internal/lifecycle"
	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
	"nodesentry/internal/summary"
)

// Config assembles one daemon. Detector and Step are required; every
// network-facing component takes an optional injectable seam (Listener,
// ScrapeClient, WebhookClient) so tests can interpose fault injection.
type Config struct {
	// Detector is the trained model the monitor starts with (required).
	Detector *core.Detector
	// Step is the sampling interval in seconds (required).
	Step int64
	// Layouts pre-registers per-node metric column orders on the decoder,
	// so pushed metric names land in the exact order the detector was
	// trained on.
	Layouts map[string][]string

	// ScoringWorkers is the monitor's number of scoring lanes (default 2).
	ScoringWorkers int
	// AlertBuffer is the monitor's alert channel capacity (default 256).
	AlertBuffer int
	// BatchWindows is how many windows a scoring lane queues before it
	// scores them, same-cluster windows as one stacked model invocation;
	// 0 or 1 scores each window as it completes (see runtime.Config;
	// scores and alerts are byte-identical at every value).
	BatchWindows int

	// Shards / QueueSize / Policy parameterize the shard router.
	Shards    int
	QueueSize int
	Policy    ingest.Policy

	// Listener, when non-nil, serves the push intake (POST /push) until
	// Close. The daemon owns it from New on.
	Listener net.Listener

	// ScrapeTargets, when non-empty, runs the pull poller against these
	// /metrics URLs every ScrapeInterval.
	ScrapeTargets  []string
	ScrapeInterval time.Duration
	// ScrapeClient overrides the scraper's HTTP client.
	ScrapeClient *http.Client

	// WebhookURL, when non-empty, delivers every alert through a retrying
	// WebhookSink on the consumer goroutine.
	WebhookURL     string
	WebhookRetries int
	WebhookBackoff ingest.Backoff
	// WebhookClient overrides the sink's HTTP client.
	WebhookClient *http.Client

	// OnAlert, when non-nil, observes every alert on the consumer
	// goroutine (after logging and webhook delivery).
	OnAlert func(runtime.Alert)

	// Summary, when non-nil, interposes the semantic summarization tier
	// on the webhook path: alerts fold into incidents, the sink receives
	// one folded payload per incident open/resolve instead of N per-alert
	// deliveries, and alerts that do not fold are delivered raw. Nil
	// keeps the webhook stream byte-identical to the direct-sink wiring
	// (pinned by test). Scorer→coordinator forwarding always stays
	// per-alert — the coordinator runs its own summarizer over the
	// merged fan-in.
	Summary *summary.Config

	// Lifecycle, when non-nil, runs the drift→retrain→shadow→swap loop.
	// Store and ActiveID identify the registry lineage the loop records
	// promotions into.
	Lifecycle *lifecycle.Config
	Store     *lifecycle.Store
	ActiveID  string

	// Coord, when non-nil, runs this daemon as a scorer in a sharded
	// fleet: a coord.Agent registers with the coordinator, heartbeats the
	// lease, installs every assignment into a ShardFilter between the
	// decoder and the shard router, forwards each alert under the current
	// epoch, and keeps the detector synced to the coordinator's model
	// registry. Nil keeps the standalone wiring byte-identical.
	Coord *coord.AgentConfig

	// FleetView, when non-nil, runs the fleet-state aggregator (vicinity
	// residuals, event journal, dashboard APIs) against the monitor; serve
	// its endpoints by passing Daemon.FleetView().Mounts() to obs.Serve.
	// The aggregator only observes — alerts are byte-identical with it on
	// or off.
	FleetView *fleetview.Config

	// Metrics, when non-nil, receives every component's series; it
	// replaces whatever registry the per-tier configs above carry.
	Metrics *obs.Registry
	// Logger, when non-nil, receives component logs, likewise.
	Logger *slog.Logger
}

// Daemon is one running sentryd loop.
type Daemon struct {
	cfg    Config
	mon    *runtime.Monitor
	mgr    *lifecycle.Manager
	fv     *fleetview.Aggregator
	router *ingest.ShardRouter
	filter *coord.ShardFilter
	agent  *coord.Agent
	egress *summary.Egress[runtime.Alert]
	dec    *ingest.Decoder

	srv      *http.Server
	addr     string
	serveErr chan error

	// stops holds one stop function per running tier, in start order;
	// Close runs them last to first.
	stops []func()

	closeOnce sync.Once
	closeErr  error
}

// New builds every tier in dependency order — monitor, lifecycle manager,
// fleet aggregator, shard router, shard filter and coordinator agent,
// alert egress, decoder, intake and scraper — and only then starts them,
// so a tier built late (the aggregator the lifecycle events are journaled
// into, the agent the consumer forwards through) is an ordinary field by
// the time any goroutine reads it. Only the monitor, the manager and the
// agent can fail to build; on error nothing is left running.
//
// To add a tier: construct it in the build half, and give it one
// start/stop entry at its place in the drain order.
func New(cfg Config) (*Daemon, error) {
	mon, err := runtime.NewMonitor(cfg.Detector, runtime.Config{
		Step:           cfg.Step,
		ScoringWorkers: cfg.ScoringWorkers,
		AlertBuffer:    cfg.AlertBuffer,
		BatchWindows:   cfg.BatchWindows,
		Metrics:        cfg.Metrics,
		Logger:         cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	d := &Daemon{cfg: cfg, mon: mon, serveErr: make(chan error, 1)}

	// Lifecycle manager: its sink rides the same stream as the monitor
	// via a Tee, so the drift detector and retrain buffer see exactly
	// what is scored. Its transitions are journaled by the aggregator
	// built next (the manager owns SetHooks; the aggregator Taps on top).
	routerSink := ingest.Sink(mon)
	if cfg.Lifecycle != nil {
		lcCfg := *cfg.Lifecycle
		lcCfg.Metrics, lcCfg.Logger = cfg.Metrics, cfg.Logger
		if cfg.FleetView != nil {
			prev := lcCfg.OnEvent
			lcCfg.OnEvent = func(kind, detail string) {
				if prev != nil {
					prev(kind, detail)
				}
				d.fv.RecordEvent(kind, "", detail, 0)
			}
		}
		if d.mgr, err = lifecycle.NewManager(mon, cfg.Detector, cfg.ActiveID, cfg.Store, lcCfg); err != nil {
			mon.Close()
			return nil, err
		}
		routerSink = ingest.Tee(mon, d.mgr.Sink())
	}

	// Fleet aggregator: taps the monitor's hook chain after the manager
	// installed its own, so both observe every match/score/alert.
	if cfg.FleetView != nil {
		fvCfg := *cfg.FleetView
		fvCfg.Metrics, fvCfg.Logger = cfg.Metrics, cfg.Logger
		if fvCfg.Source == "" && cfg.Coord != nil {
			// Scorer events carry the daemon's identity so the
			// coordinator's merged feed stays gap-free per source.
			fvCfg.Source = cfg.Coord.ID
		}
		d.fv = fleetview.New(mon, fvCfg)
	}

	d.router = ingest.NewShardRouter(routerSink, ingest.RouterConfig{
		Shards: cfg.Shards, QueueSize: cfg.QueueSize, Policy: cfg.Policy,
		Metrics: cfg.Metrics, Logger: cfg.Logger,
	})

	// Scorer mode: the shard filter sits between the decoder and the
	// router, so samples for unowned shards are dropped before they cost a
	// queue slot. Standalone (Coord nil) wires the decoder straight to the
	// router — byte-identical to the pre-coordinator daemon.
	decSink := ingest.Sink(d.router)
	if cfg.Coord != nil {
		d.filter = coord.NewShardFilter(d.router, cfg.Metrics)
		decSink = d.filter
		acfg := *cfg.Coord
		acfg.Metrics, acfg.Logger = cfg.Metrics, cfg.Logger
		if d.agent, err = coord.NewAgent(acfg, d.filter, mon); err != nil {
			// The router has run its drain goroutines since construction.
			d.router.Drain()
			mon.Close()
			return nil, err
		}
	}

	// Alert egress: raw per-alert bodies, or with Summary one folded body
	// per incident open/resolve, each transition journaled on the fleet
	// journal's incident lane first. Scorer→coordinator forwarding stays
	// per-alert on the consumer; the coordinator folds the merged fan-in.
	ecfg := summary.EgressConfig[runtime.Alert]{
		Summary: cfg.Summary,
		Event:   summary.FromAlert,
		SendRaw: (*runtime.WebhookSink).Send,
		Metrics: cfg.Metrics,
		Logger:  cfg.Logger,
	}
	if d.fv != nil {
		ecfg.Journal = d.fv.RecordIncident
	}
	if cfg.WebhookURL != "" {
		ecfg.Sink = &runtime.WebhookSink{
			URL:        cfg.WebhookURL,
			MaxRetries: cfg.WebhookRetries,
			Backoff:    cfg.WebhookBackoff,
			Client:     cfg.WebhookClient,
			Metrics:    cfg.Metrics,
		}
	}
	d.egress = summary.NewEgress(ecfg)
	if d.fv != nil {
		d.fv.AttachSummary(d.egress.Summarizer())
	}

	d.dec = ingest.NewDecoder(decSink, ingest.DecoderConfig{Metrics: cfg.Metrics, Logger: cfg.Logger})
	for node, metrics := range cfg.Layouts {
		d.dec.Register(node, metrics)
	}
	var scraper *ingest.Scraper
	if len(cfg.ScrapeTargets) > 0 {
		scraper = ingest.NewScraper(d.dec, ingest.ScrapeConfig{
			Targets:  cfg.ScrapeTargets,
			Interval: cfg.ScrapeInterval,
			Client:   cfg.ScrapeClient,
			Metrics:  cfg.Metrics,
			Logger:   cfg.Logger,
		})
	}
	if cfg.Listener != nil {
		intake := ingest.NewIntake(d.dec, ingest.IntakeConfig{Metrics: cfg.Metrics, Logger: cfg.Logger})
		d.addr = cfg.Listener.Addr().String()
		d.srv = &http.Server{
			Handler:           intake.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      30 * time.Second,
		}
	}

	// Start, downstream first: one entry per running tier, each pushing
	// its stop function. Close runs them last to first, which is the drain
	// order — after the intake server, which Close stops by itself because
	// it alone takes Close's context.
	if d.fv != nil {
		// After the monitor closes no tap fires; Close just ends any
		// remaining SSE streams.
		d.stops = append(d.stops, d.fv.Close)
	}
	if d.agent != nil {
		// The agent outlives the consumer so the last drained alerts still
		// forward; its shutdown path deregisters gracefully.
		d.stops = append(d.stops, spawn(d.agent.Run))
	}
	// The egress outlives the consumer so the last observed alerts still
	// fold: its flush loop ends, then its Close delivers the final
	// transitions before the sink goes quiet.
	d.stops = append(d.stops, d.egress.Close, spawn(d.egress.Run))
	// Monitor.Close closes the alert channel, which ends the consumer.
	d.stops = append(d.stops, spawn(func(context.Context) { d.consume() }), mon.Close)
	if d.fv != nil {
		d.stops = append(d.stops, spawn(d.fv.Run))
	}
	if d.mgr != nil {
		// Stopped only after the shard queues drain, so buffered events
		// still reach it; the stop waits out in-flight retraining.
		d.stops = append(d.stops, spawn(d.mgr.Run))
	}
	d.stops = append(d.stops, func() {
		if dropped := d.router.Drain(); dropped > 0 && cfg.Logger != nil {
			cfg.Logger.Warn("shard queues dropped events", "dropped", dropped)
		}
	})
	if scraper != nil {
		d.stops = append(d.stops, spawn(scraper.Run))
	}
	if d.srv != nil {
		go func() { d.serveErr <- d.srv.Serve(cfg.Listener) }()
	}
	return d, nil
}

// spawn runs fn on its own goroutine and returns its stop function: cancel
// fn's context, then wait for fn to return.
func spawn(fn func(context.Context)) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

// consume is the alert consumer: every alert is logged, handed to the
// egress, in scorer mode forwarded to the coordinator, and shown to
// Config.OnAlert.
func (d *Daemon) consume() {
	log := d.cfg.Logger
	for a := range d.mon.Alerts() {
		if log != nil {
			log.Info("alert", "node", a.Node, "time", a.Time, "job", a.Job,
				"score", a.Score, "level", a.Diagnosis.Level)
		}
		d.egress.Observe(a)
		if d.agent != nil {
			if _, err := d.agent.ForwardAlert(a); err != nil && log != nil {
				log.Warn("alert forward failed", "node", a.Node, "err", err)
			}
		}
		if d.cfg.OnAlert != nil {
			d.cfg.OnAlert(a)
		}
	}
}

// Monitor returns the streaming detection engine.
func (d *Daemon) Monitor() *runtime.Monitor { return d.mon }

// Manager returns the lifecycle manager (nil without Config.Lifecycle).
func (d *Daemon) Manager() *lifecycle.Manager { return d.mgr }

// FleetView returns the fleet aggregator (nil without Config.FleetView);
// mount its endpoints with FleetView().Mounts().
func (d *Daemon) FleetView() *fleetview.Aggregator { return d.fv }

// Summarizer returns the alert summarization tier (nil without
// Config.Summary).
func (d *Daemon) Summarizer() *summary.Summarizer { return d.egress.Summarizer() }

// Router returns the shard router.
func (d *Daemon) Router() *ingest.ShardRouter { return d.router }

// ShardFilter returns the assignment-enforcing filter between decoder
// and router (nil without Config.Coord).
func (d *Daemon) ShardFilter() *coord.ShardFilter { return d.filter }

// Decoder returns the shared decoder (register late-arriving layouts
// through it).
func (d *Daemon) Decoder() *ingest.Decoder { return d.dec }

// Addr returns the push intake address ("" without a Listener).
func (d *Daemon) Addr() string { return d.addr }

// ServeErr reports the push server's exit: http.ErrServerClosed after an
// orderly Close, anything else when the server died on its own. Nothing
// is ever sent without a Listener.
func (d *Daemon) ServeErr() <-chan error { return d.serveErr }

// Close drains the daemon upstream to downstream — stop accepting,
// finish the scrape sweep, empty the shard queues, wait out the
// lifecycle loop (including in-flight retraining), close the monitor,
// let the alert consumer finish, flush the egress, deregister the agent —
// by running the stop list New built, last entry first. ctx bounds the
// intake server shutdown. Idempotent; later calls return the first result.
func (d *Daemon) Close(ctx context.Context) error {
	d.closeOnce.Do(func() {
		if d.srv != nil {
			if err := d.srv.Shutdown(ctx); err != nil {
				d.closeErr = err
				if d.cfg.Logger != nil {
					d.cfg.Logger.Warn("intake shutdown", "err", err)
				}
			}
		}
		for i := len(d.stops) - 1; i >= 0; i-- {
			d.stops[i]()
		}
		if d.cfg.Logger != nil {
			d.cfg.Logger.Info("drained", "monitor_dropped", d.mon.Dropped())
		}
	})
	return d.closeErr
}
