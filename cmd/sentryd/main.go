// Command sentryd runs the streaming ingestion gateway: a trained
// detector behind runtime.Monitor, fed over the network instead of by the
// in-process replay driver. It is the deployment loop of the paper's §5.1
// (Fig. 7) as one daemon: telemetry arrives by push (POST /push with
// Prometheus text exposition or JSONL batches) or by pull (a scrape
// poller against a target list), a shard router fans the stream out to
// the monitor under an explicit backpressure policy, and prioritized
// alerts leave through a retrying webhook sink. The wiring itself lives
// in internal/daemon, where the chaos soak tests drive the identical
// loop under scripted infrastructure faults.
//
// Usage:
//
//	sentryd -data ./data/d1 -train -listen :9100 -obs-listen :9090
//	sentryd -data ./data/d1 -model ./model.bin -scrape-targets http://host:9101/metrics
//	curl --data-binary 'cpu{node="cn-1"} 0.5 60000' http://localhost:9100/push
//
// With -lifecycle the daemon additionally runs the model lifecycle loop
// (internal/lifecycle): drift detection on the live stream, background
// retraining off a rolling buffer, shadow auditing, and zero-drop hot
// swap of promoted candidates, all recorded in a versioned on-disk
// registry under -registry-dir. On restart the active registry version is
// loaded instead of -model/-train:
//
//	sentryd -data ./data/d1 -train -lifecycle -registry-dir ./registry
//
// SIGINT/SIGTERM triggers a graceful drain: the intake server stops
// accepting, the scraper finishes its sweep, the shard queues empty into
// the monitor, any in-flight retraining is waited out, and the alert
// consumer runs to completion.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nodesentry"
	"nodesentry/internal/coord"
	"nodesentry/internal/daemon"
	"nodesentry/internal/fleetview"
	"nodesentry/internal/ingest"
	"nodesentry/internal/lifecycle"
	"nodesentry/internal/obs"
	"nodesentry/internal/summary"
	"nodesentry/internal/telemetry"
)

func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

// options is what the command line resolves to: the process-level
// settings main acts on itself, and the configuration of the role's tier
// as far as flags decide it — main adds what only exists at run time (the
// dataset's layouts, the detector, the listener, registry, metrics and
// logger).
type options struct {
	role     string // standalone | scorer | coordinator
	logLevel slog.Level

	listen    string
	obsListen string
	exemplars bool
	policy    string // -policy as spelled, for the startup log

	data      string
	train     bool
	modelPath string

	lifecycle   bool
	registryDir string

	// daemon configures the standalone and scorer roles, coord the
	// coordinator role.
	daemon daemon.Config
	coord  coord.Config
}

// parseFlags resolves args (without the program name) into options, or an
// error naming the offending flag.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("sentryd", flag.ContinueOnError)
	fs.StringVar(&o.data, "data", "", "dataset directory (required except for -role coordinator; supplies node layouts and, with -train, the training split)")
	fs.BoolVar(&o.train, "train", false, "train a detector on the dataset's training split at startup")
	fs.StringVar(&o.modelPath, "model", "", "model file to load (or to save after -train)")
	fs.StringVar(&o.listen, "listen", ":9100", "push intake address (POST /push, GET /healthz)")
	fs.StringVar(&o.obsListen, "obs-listen", "", "serve /metrics, /healthz and /debug/pprof on this address (empty disables)")
	shards := fs.Int("shards", 4, "shard router worker queues")
	batchWindows := fs.Int("batch-windows", 0, "windows a scoring lane queues before scoring them, same-cluster ones as one stacked model invocation (0 or 1 = score each window as it completes; scores are byte-identical at every value)")
	queue := fs.Int("queue", 256, "per-shard queue capacity")
	fs.StringVar(&o.policy, "policy", "block", "backpressure policy: block | drop-oldest")
	scrapeTargets := fs.String("scrape-targets", "", "comma-separated /metrics URLs to poll (empty disables pull mode)")
	scrapeInterval := fs.Duration("scrape-interval", 15*time.Second, "scrape sweep interval")
	webhook := fs.String("webhook", "", "POST alerts to this URL (empty logs alerts only)")
	webhookRetries := fs.Int("webhook-retries", 2, "extra webhook delivery attempts per alert")
	summaryOn := fs.Bool("summary", false, "run the alert summarization tier: correlated alerts fold into incidents and the webhook receives one payload per incident open/resolve instead of one per alert")
	summaryWindow := fs.Duration("summary-window", 5*time.Second, "summarization clustering window (flush cadence; coordinator role flushes on -sweep-interval instead)")
	summaryResolve := fs.Duration("summary-resolve", time.Minute, "quiet time after which an open incident resolves")
	summaryMin := fs.Int("summary-min", 3, "minimum correlated alerts per window to open an incident (smaller groups deliver raw)")
	fleet := fs.Bool("fleet", true, "run the fleet observability tier: vicinity residuals, event journal, and the /fleet/ dashboard on -obs-listen")
	vicinityThreshold := fs.Float64("vicinity-threshold", 4, "robust z vs job-peer median/MAD at which a node counts as peer-divergent")
	fs.BoolVar(&o.exemplars, "exemplars", false, "render (trace-id, value, ts) exemplars on histogram buckets in /metrics")
	fs.BoolVar(&o.lifecycle, "lifecycle", false, "run the model lifecycle loop: drift detection, background retraining, shadow promotion, hot swap")
	fs.StringVar(&o.registryDir, "registry-dir", "registry", "versioned model registry directory (with -lifecycle)")
	retrainInterval := fs.Duration("retrain-interval", 0, "also retrain on this fixed period regardless of drift (0 = drift-driven only)")
	driftThreshold := fs.Float64("drift-threshold", 2.5, "multiple of the training baseline at which the rolling median counts as drifted")
	fs.StringVar(&o.role, "role", "standalone", "fleet role: standalone | scorer | coordinator")
	coordinatorURL := fs.String("coordinator", "", "coordinator base URL (required with -role scorer)")
	scorerID := fs.String("id", "", "this scorer's stable identity (default: hostname)")
	advertisePush := fs.String("advertise-push", "", "push intake URL this scorer advertises to the coordinator")
	advertiseObs := fs.String("advertise-obs", "", "observability URL this scorer advertises (the coordinator scrapes its /metrics and /fleet/*)")
	heartbeat := fs.Duration("heartbeat", 2*time.Second, "scorer lease-renewal cadence")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "coordinator: lease age at which a silent scorer's shards are reassigned")
	sweepInterval := fs.Duration("sweep-interval", 2*time.Second, "coordinator: cadence of lease sweeps and fleet fan-in scrapes")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	if err := fs.Parse(args); err != nil {
		return o, err
	}

	if err := o.logLevel.UnmarshalText([]byte(*logLevel)); err != nil {
		return o, fmt.Errorf("bad -log-level %q", *logLevel)
	}
	var sum *summary.Config
	if *summaryOn {
		sum = &summary.Config{Window: *summaryWindow, ResolveAfter: *summaryResolve, MinGroup: *summaryMin}
	}

	// The coordinator tier has no detector and no intake: it is pure
	// membership + model distribution + fan-in, so it needs no dataset.
	if o.role == "coordinator" {
		if sum != nil {
			// The coordinator flushes on its sweep cadence, so the sweep
			// interval is the clustering window.
			sum.Window = *sweepInterval
		}
		o.coord = coord.Config{
			TotalShards:       *shards,
			LeaseTTL:          *leaseTTL,
			SweepInterval:     *sweepInterval,
			VicinityThreshold: *vicinityThreshold,
			WebhookURL:        *webhook,
			Summary:           sum,
		}
		return o, nil
	}
	if o.role != "standalone" && o.role != "scorer" {
		return o, fmt.Errorf("bad -role %q (want standalone, scorer or coordinator)", o.role)
	}
	if o.data == "" {
		return o, errors.New("-data is required")
	}

	o.daemon = daemon.Config{
		ScoringWorkers: 3,
		BatchWindows:   *batchWindows,
		Shards:         *shards,
		QueueSize:      *queue,
		WebhookURL:     *webhook,
		WebhookRetries: *webhookRetries,
		WebhookBackoff: ingest.Backoff{Base: 200 * time.Millisecond},
		Summary:        sum,
	}
	switch o.policy {
	case "block":
		o.daemon.Policy = ingest.Block
	case "drop-oldest":
		o.daemon.Policy = ingest.DropOldest
	default:
		return o, fmt.Errorf("bad -policy %q (want block or drop-oldest)", o.policy)
	}
	if *scrapeTargets != "" {
		o.daemon.ScrapeTargets = strings.Split(*scrapeTargets, ",")
		o.daemon.ScrapeInterval = *scrapeInterval
	}
	if *fleet {
		o.daemon.FleetView = &fleetview.Config{VicinityThreshold: *vicinityThreshold}
	}
	if o.lifecycle {
		// main adds what the dataset decides: Step, SemanticGroups.
		o.daemon.Lifecycle = &lifecycle.Config{
			TrainOptions:    nodesentry.DefaultOptions(),
			DriftThreshold:  *driftThreshold,
			RetrainInterval: *retrainInterval,
		}
	}
	if o.role == "scorer" {
		if *coordinatorURL == "" {
			return o, errors.New("-role scorer requires -coordinator")
		}
		id := *scorerID
		if id == "" {
			host, err := os.Hostname()
			if err != nil {
				return o, fmt.Errorf("resolve hostname for scorer id: %w", err)
			}
			id = host
		}
		o.daemon.Coord = &coord.AgentConfig{
			ID:                id,
			CoordinatorURL:    strings.TrimRight(*coordinatorURL, "/"),
			PushURL:           *advertisePush,
			ObsURL:            *advertiseObs,
			HeartbeatInterval: *heartbeat,
		}
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sentryd:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: o.logLevel}))
	// The gateway is always instrumented; -obs-listen only controls
	// whether the registry is additionally served for scraping.
	reg := obs.NewRegistry()
	reg.SetExemplars(o.exemplars)
	if o.role == "coordinator" {
		runCoordinator(logger, reg, o)
		return
	}

	ds, err := nodesentry.ImportDataset(o.data)
	if err != nil {
		fatal(logger, "load dataset", "dir", o.data, "err", err)
	}
	logger.Info("dataset loaded", "summary", fmt.Sprint(ds.Summarize()))

	// Detector resolution: with -lifecycle the registry is authoritative —
	// a previously promoted model survives restarts; -train/-model only
	// seed an empty (or unreadable) registry.
	cfg := o.daemon
	cfg.Step, cfg.Metrics, cfg.Logger = ds.Step, reg, logger
	if o.lifecycle {
		cfg.Store, err = lifecycle.OpenStore(o.registryDir, 5)
		if err != nil {
			fatal(logger, "open registry", "dir", o.registryDir, "err", err)
		}
		if d, v, err := cfg.Store.LoadActive(); err == nil {
			cfg.Detector, cfg.ActiveID = d, v.ID
			logger.Info("model loaded from registry", "version", v.ID,
				"clusters", d.NumClusters(), "source", v.Source)
		} else {
			logger.Info("registry has no loadable active version", "err", err)
			cfg.Detector = loadOrTrain(logger, ds, o.train, o.modelPath)
			v, err := cfg.Store.SaveVersion(cfg.Detector, "initial")
			if err != nil {
				fatal(logger, "save initial version", "err", err)
			}
			if err := cfg.Store.Activate(v.ID); err != nil {
				fatal(logger, "activate initial version", "err", err)
			}
			cfg.ActiveID = v.ID
			logger.Info("initial model registered", "version", v.ID)
		}
		cfg.Lifecycle.Step = ds.Step
		cfg.Lifecycle.SemanticGroups = telemetry.SemanticIndex(ds.Catalog)
	} else {
		cfg.Detector = loadOrTrain(logger, ds, o.train, o.modelPath)
	}
	cfg.Layouts = map[string][]string{}
	for node, frame := range ds.Frames {
		cfg.Layouts[node] = frame.Metrics
	}
	if cfg.Coord != nil {
		// The registry version already running doesn't re-pull.
		cfg.Coord.ActiveModelID = cfg.ActiveID
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		fatal(logger, "intake listen", "addr", o.listen, "err", err)
	}
	cfg.Listener = ln

	// The obs server starts after daemon.New so the /fleet/ mounts can come
	// from the live aggregator.
	d, err := daemon.New(cfg)
	if err != nil {
		fatal(logger, "daemon", "err", err)
	}
	if o.obsListen != "" {
		var mounts []obs.Mount
		if fv := d.FleetView(); fv != nil {
			mounts = fv.Mounts()
		}
		srv, addr, err := obs.Serve(o.obsListen, reg, nil, mounts...)
		if err != nil {
			fatal(logger, "obs server", "err", err)
		}
		defer func() { _ = srv.Close() }() // process exit; shutdown error is inert
		logger.Info("observability listening", "addr", addr, "fleet", cfg.FleetView != nil)
	}
	logger.Info("intake listening", "addr", d.Addr(),
		"shards", cfg.Shards, "queue", cfg.QueueSize, "policy", o.policy)
	if cfg.Coord != nil {
		logger.Info("scorer role", "id", cfg.Coord.ID, "coordinator", cfg.Coord.CoordinatorURL,
			"heartbeat", cfg.Coord.HeartbeatInterval)
	}
	if o.lifecycle {
		logger.Info("lifecycle loop running", "registry", o.registryDir,
			"drift_threshold", cfg.Lifecycle.DriftThreshold, "retrain_interval", cfg.Lifecycle.RetrainInterval)
	}
	if len(cfg.ScrapeTargets) > 0 {
		logger.Info("scraping", "targets", len(cfg.ScrapeTargets), "interval", cfg.ScrapeInterval)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("shutdown signal received")
	case err := <-d.ServeErr():
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(logger, "intake server", "err", err)
		}
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Close(shutdownCtx); err != nil {
		logger.Warn("daemon close", "err", err)
	}
}

// runCoordinator serves the coordinator tier on -listen: /coord/*
// membership and alert intake, /registry/* model distribution (with
// -lifecycle, from -registry-dir), and the merged /fleet/* surface, until
// SIGINT/SIGTERM.
func runCoordinator(logger *slog.Logger, reg *obs.Registry, o options) {
	ccfg := o.coord
	ccfg.Metrics, ccfg.Logger = reg, logger
	if o.lifecycle {
		var err error
		ccfg.Store, err = lifecycle.OpenStore(o.registryDir, 5)
		if err != nil {
			fatal(logger, "open registry", "dir", o.registryDir, "err", err)
		}
		logger.Info("serving model registry", "dir", o.registryDir)
	}
	if s := ccfg.Summary; s != nil {
		logger.Info("alert summarization on", "window", s.Window,
			"resolve_after", s.ResolveAfter, "min_group", s.MinGroup)
	}
	c := coord.New(ccfg)
	defer c.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go c.Run(ctx)

	srv, addr, err := obs.Serve(o.listen, reg, nil, c.Mounts()...)
	if err != nil {
		fatal(logger, "coordinator server", "err", err)
	}
	defer func() { _ = srv.Close() }() // process exit; shutdown error is inert
	logger.Info("coordinator listening", "addr", addr,
		"total_shards", ccfg.TotalShards, "lease_ttl", ccfg.LeaseTTL, "sweep", ccfg.SweepInterval)

	<-ctx.Done()
	logger.Info("shutdown signal received")
}

// loadOrTrain resolves the detector from -model and/or -train, mirroring
// cmd/nodesentry's startup.
func loadOrTrain(logger *slog.Logger, ds *nodesentry.Dataset, train bool, modelPath string) *nodesentry.Detector {
	if train {
		det, err := nodesentry.Train(nodesentry.TrainInputFromDataset(ds), nodesentry.DefaultOptions())
		if err != nil {
			fatal(logger, "train", "err", err)
		}
		logger.Info("detector trained", "clusters", det.NumClusters())
		if modelPath != "" {
			f, err := os.Create(modelPath)
			if err != nil {
				fatal(logger, "create model file", "path", modelPath, "err", err)
			}
			if err := det.Save(f); err != nil {
				fatal(logger, "save model", "path", modelPath, "err", err)
			}
			if err := f.Close(); err != nil {
				fatal(logger, "close model file", "path", modelPath, "err", err)
			}
			logger.Info("model saved", "path", modelPath)
		}
		return det
	}
	if modelPath == "" {
		fatal(logger, "a detector is required: pass -train or -model")
	}
	f, err := os.Open(modelPath)
	if err != nil {
		fatal(logger, "open model", "path", modelPath, "err", err)
	}
	det, err := nodesentry.LoadDetector(f)
	_ = f.Close() // read-only; the load error below is the one that matters
	if err != nil {
		fatal(logger, "load model", "path", modelPath, "err", err)
	}
	logger.Info("model loaded", "path", modelPath, "clusters", det.NumClusters())
	return det
}
