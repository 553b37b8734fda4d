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
	"sync/atomic"
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
	// MaxBodyBytes caps one intake body (0 = ingest default).
	MaxBodyBytes int64

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
	// SummaryRaw additionally delivers every alert per-alert even while
	// folding — the migration/debug switch that keeps raw webhooks
	// available next to incidents.
	SummaryRaw bool
	// OnIncident, when non-nil, observes every incident transition on
	// the flushing goroutine (after webhook delivery and journaling).
	OnIncident func(summary.Incident, summary.Transition)

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

	// Metrics, when non-nil, receives every component's series.
	Metrics *obs.Registry
	// Logger, when non-nil, receives component logs.
	Logger *slog.Logger
}

// Daemon is one running sentryd loop.
type Daemon struct {
	cfg    Config
	mon    *runtime.Monitor
	mgr    *lifecycle.Manager
	fv     *fleetview.Aggregator
	sum    *summary.Summarizer
	router *ingest.ShardRouter
	dec    *ingest.Decoder
	filter *coord.ShardFilter
	agent  *coord.Agent

	srv      *http.Server
	addr     string
	serveErr chan error

	consumer   sync.WaitGroup
	scrapeDone chan struct{}
	scrapeStop context.CancelFunc
	lcDone     chan struct{}
	lcCancel   context.CancelFunc
	fvDone     chan struct{}
	sumDone    chan struct{}
	agDone     chan struct{}
	agCancel   context.CancelFunc

	closeOnce sync.Once
	closeErr  error
}

// New wires and starts the daemon: monitor, alert consumer, optional
// lifecycle manager, shard router, decoder, optional push server on
// cfg.Listener, optional scrape poller. On error nothing is left
// running.
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
	d := &Daemon{
		cfg:        cfg,
		mon:        mon,
		serveErr:   make(chan error, 1),
		scrapeDone: make(chan struct{}),
		lcDone:     make(chan struct{}),
		fvDone:     make(chan struct{}),
		sumDone:    make(chan struct{}),
		agDone:     make(chan struct{}),
	}

	// Alert consumer: every alert is logged; with a webhook each is also
	// delivered through the retrying sink. Runs until Monitor.Close.
	var sink *runtime.WebhookSink
	if cfg.WebhookURL != "" {
		sink = &runtime.WebhookSink{
			URL:        cfg.WebhookURL,
			MaxRetries: cfg.WebhookRetries,
			Backoff:    cfg.WebhookBackoff,
			Client:     cfg.WebhookClient,
			Metrics:    cfg.Metrics,
		}
	}
	// The fleetview aggregator is built after the lifecycle manager below
	// (the manager owns SetHooks; the aggregator Taps on top), but both
	// lifecycle transitions and incident emissions must reach its journal
	// — an atomic pointer bridges the construction-order gap race-free.
	var fvPtr atomic.Pointer[fleetview.Aggregator]

	// Summarization tier: when configured it interposes between the
	// consumer and the webhook sink. Alerts that fold become one incident
	// payload per open/resolve transition (via SendRaw); alerts that do
	// not fold are delivered per-alert through the unchanged Send path.
	var sum *summary.Summarizer
	if cfg.Summary != nil {
		scfg := *cfg.Summary
		if scfg.Metrics == nil {
			scfg.Metrics = cfg.Metrics
		}
		if scfg.Logger == nil {
			scfg.Logger = cfg.Logger
		}
		prevRaw, prevInc := scfg.OnRaw, scfg.OnIncident
		scfg.OnRaw = func(e summary.Event) {
			if prevRaw != nil {
				prevRaw(e)
			}
			a, ok := e.Raw.(runtime.Alert)
			if !ok || sink == nil {
				return
			}
			if err := sink.Send(a); err != nil && cfg.Logger != nil {
				cfg.Logger.Warn("webhook delivery failed", "node", a.Node, "err", err)
			}
		}
		scfg.OnIncident = func(inc summary.Incident, tr summary.Transition) {
			if prevInc != nil {
				prevInc(inc, tr)
			}
			if fv := fvPtr.Load(); fv != nil {
				fv.RecordIncident(inc, tr)
			}
			// Updates amend the journaled incident only; webhooks fire on
			// the open and resolve edges — the N→1 delivery reduction.
			if sink != nil && (tr == summary.Opened || tr == summary.Resolved) {
				if body, err := summary.WebhookJSON(inc, tr); err == nil {
					if err := sink.SendRaw(body); err != nil && cfg.Logger != nil {
						cfg.Logger.Warn("incident webhook delivery failed", "incident", inc.ID, "err", err)
					}
				}
			}
			if cfg.OnIncident != nil {
				cfg.OnIncident(inc, tr)
			}
		}
		sum = summary.New(scfg)
		d.sum = sum
		go func() {
			defer close(d.sumDone)
			// Background never cancels; the flush loop exits via
			// Summarizer.Close in Daemon.Close.
			sum.Run(context.Background())
		}()
	} else {
		close(d.sumDone)
	}

	// In scorer mode every alert is additionally forwarded to the
	// coordinator; the agent is built after the router below, so the
	// consumer reaches it through an atomic pointer (same bridge as the
	// fleetview aggregator uses for lifecycle events).
	var agPtr atomic.Pointer[coord.Agent]
	d.consumer.Add(1)
	go func() {
		defer d.consumer.Done()
		for a := range mon.Alerts() {
			if cfg.Logger != nil {
				cfg.Logger.Info("alert", "node", a.Node, "time", a.Time, "job", a.Job,
					"score", a.Score, "level", a.Diagnosis.Level)
			}
			if sum != nil {
				if sink != nil && cfg.SummaryRaw {
					if err := sink.Send(a); err != nil && cfg.Logger != nil {
						cfg.Logger.Warn("webhook delivery failed", "node", a.Node, "err", err)
					}
				}
				sum.Observe(summary.FromAlert(a))
			} else if sink != nil {
				if err := sink.Send(a); err != nil && cfg.Logger != nil {
					cfg.Logger.Warn("webhook delivery failed", "node", a.Node, "err", err)
				}
			}
			if ag := agPtr.Load(); ag != nil {
				if _, err := ag.ForwardAlert(a); err != nil && cfg.Logger != nil {
					cfg.Logger.Warn("alert forward failed", "node", a.Node, "err", err)
				}
			}
			if cfg.OnAlert != nil {
				cfg.OnAlert(a)
			}
		}
	}()

	// Lifecycle manager: its sink rides the same stream as the monitor
	// via a Tee, so the drift detector and retrain buffer see exactly
	// what is scored. Run gets its own context — it is cancelled only
	// after the shard queues drain, so buffered events still reach it.
	routerSink := ingest.Sink(mon)
	lcCtx, lcCancel := context.WithCancel(context.Background())
	d.lcCancel = lcCancel
	if cfg.Lifecycle != nil {
		lcCfg := *cfg.Lifecycle
		if cfg.FleetView != nil {
			prev := lcCfg.OnEvent
			lcCfg.OnEvent = func(kind, detail string) {
				if prev != nil {
					prev(kind, detail)
				}
				if fv := fvPtr.Load(); fv != nil {
					fv.LifecycleEvent(kind, detail)
				}
			}
		}
		mgr, err := lifecycle.NewManager(mon, cfg.Detector, cfg.ActiveID, cfg.Store, lcCfg)
		if err != nil {
			lcCancel()
			mon.Close()
			d.consumer.Wait()
			if sum != nil {
				sum.Close()
				<-d.sumDone
			}
			return nil, err
		}
		d.mgr = mgr
		routerSink = ingest.Tee(mon, mgr.Sink())
		go func() {
			defer close(d.lcDone)
			mgr.Run(lcCtx)
		}()
	} else {
		close(d.lcDone)
	}

	// Fleet aggregator: taps the monitor's hook chain after the manager
	// installed its own, so both observe every match/score/alert.
	if cfg.FleetView != nil {
		fvCfg := *cfg.FleetView
		if fvCfg.Metrics == nil {
			fvCfg.Metrics = cfg.Metrics
		}
		if fvCfg.Logger == nil {
			fvCfg.Logger = cfg.Logger
		}
		if fvCfg.Source == "" && cfg.Coord != nil {
			// Scorer events carry the daemon's identity so the
			// coordinator's merged feed stays gap-free per source.
			fvCfg.Source = cfg.Coord.ID
		}
		d.fv = fleetview.New(mon, fvCfg)
		if d.sum != nil {
			d.fv.AttachSummary(d.sum)
		}
		fvPtr.Store(d.fv)
		fv := d.fv
		go func() {
			defer close(d.fvDone)
			fv.Run(lcCtx)
		}()
	} else {
		close(d.fvDone)
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
	agCtx, agCancel := context.WithCancel(context.Background())
	d.agCancel = agCancel
	if cfg.Coord != nil {
		d.filter = coord.NewShardFilter(d.router, cfg.Metrics)
		decSink = d.filter
		acfg := *cfg.Coord
		if acfg.Metrics == nil {
			acfg.Metrics = cfg.Metrics
		}
		if acfg.Logger == nil {
			acfg.Logger = cfg.Logger
		}
		ag, err := coord.NewAgent(acfg, d.filter, mon)
		if err != nil {
			d.router.Drain()
			lcCancel()
			<-d.lcDone
			<-d.fvDone
			mon.Close()
			d.consumer.Wait()
			if sum != nil {
				sum.Close()
				<-d.sumDone
			}
			return nil, err
		}
		d.agent = ag
		agPtr.Store(ag)
		go func() {
			defer close(d.agDone)
			ag.Run(agCtx)
		}()
	} else {
		close(d.agDone)
	}

	d.dec = ingest.NewDecoder(decSink, ingest.DecoderConfig{Metrics: cfg.Metrics, Logger: cfg.Logger})
	for node, metrics := range cfg.Layouts {
		d.dec.Register(node, metrics)
	}

	if cfg.Listener != nil {
		intake := ingest.NewIntake(d.dec, ingest.IntakeConfig{
			MaxBodyBytes: cfg.MaxBodyBytes, Metrics: cfg.Metrics, Logger: cfg.Logger,
		})
		d.addr = cfg.Listener.Addr().String()
		d.srv = &http.Server{
			Handler:           intake.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      30 * time.Second,
		}
		srv, ln := d.srv, cfg.Listener
		go func() { d.serveErr <- srv.Serve(ln) }()
	}

	scrapeCtx, scrapeStop := context.WithCancel(context.Background())
	d.scrapeStop = scrapeStop
	if len(cfg.ScrapeTargets) > 0 {
		scraper := ingest.NewScraper(d.dec, ingest.ScrapeConfig{
			Targets:  cfg.ScrapeTargets,
			Interval: cfg.ScrapeInterval,
			Client:   cfg.ScrapeClient,
			Metrics:  cfg.Metrics,
			Logger:   cfg.Logger,
		})
		go func() {
			defer close(d.scrapeDone)
			scraper.Run(scrapeCtx)
		}()
	} else {
		close(d.scrapeDone)
	}
	return d, nil
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
func (d *Daemon) Summarizer() *summary.Summarizer { return d.sum }

// Router returns the shard router.
func (d *Daemon) Router() *ingest.ShardRouter { return d.router }

// Agent returns the coordinator client (nil without Config.Coord).
func (d *Daemon) Agent() *coord.Agent { return d.agent }

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
// let the alert consumer finish — exactly the order cmd/sentryd's signal
// handler historically applied. ctx bounds the intake server shutdown.
// Idempotent; later calls return the first result.
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
		d.scrapeStop()
		<-d.scrapeDone
		if dropped := d.router.Drain(); dropped > 0 && d.cfg.Logger != nil {
			d.cfg.Logger.Warn("shard queues dropped events", "dropped", dropped)
		}
		d.lcCancel()
		<-d.lcDone
		<-d.fvDone
		d.mon.Close()
		d.consumer.Wait()
		// The summarizer outlives the consumer so the last observed alerts
		// still fold; Close force-flushes pending events and resolves every
		// open incident before the sink goes quiet.
		if d.sum != nil {
			d.sum.Close()
		}
		<-d.sumDone
		// The agent outlives the consumer so the last drained alerts still
		// forward; its shutdown path deregisters gracefully.
		d.agCancel()
		<-d.agDone
		if d.fv != nil {
			// After the monitor closes no tap fires; Close just ends any
			// remaining SSE streams.
			d.fv.Close()
		}
		if d.cfg.Logger != nil {
			d.cfg.Logger.Info("drained", "monitor_dropped", d.mon.Dropped())
		}
	})
	return d.closeErr
}
