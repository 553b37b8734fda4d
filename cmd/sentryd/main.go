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

func main() {
	data := flag.String("data", "", "dataset directory (required; supplies node layouts and, with -train, the training split)")
	train := flag.Bool("train", false, "train a detector on the dataset's training split at startup")
	modelPath := flag.String("model", "", "model file to load (or to save after -train)")
	listen := flag.String("listen", ":9100", "push intake address (POST /push, GET /healthz)")
	obsListen := flag.String("obs-listen", "", "serve /metrics, /healthz and /debug/pprof on this address (empty disables)")
	shards := flag.Int("shards", 4, "shard router worker queues")
	batchWindows := flag.Int("batch-windows", 0, "windows a scoring lane queues before scoring them, same-cluster ones as one stacked model invocation (0 or 1 = score each window as it completes; scores are byte-identical at every value)")
	queue := flag.Int("queue", 256, "per-shard queue capacity")
	policy := flag.String("policy", "block", "backpressure policy: block | drop-oldest")
	scrapeTargets := flag.String("scrape-targets", "", "comma-separated /metrics URLs to poll (empty disables pull mode)")
	scrapeInterval := flag.Duration("scrape-interval", 15*time.Second, "scrape sweep interval")
	webhook := flag.String("webhook", "", "POST alerts to this URL (empty logs alerts only)")
	webhookRetries := flag.Int("webhook-retries", 2, "extra webhook delivery attempts per alert")
	summaryOn := flag.Bool("summary", false, "run the alert summarization tier: correlated alerts fold into incidents and the webhook receives one payload per incident open/resolve instead of one per alert")
	summaryWindow := flag.Duration("summary-window", 5*time.Second, "summarization clustering window (flush cadence; coordinator role flushes on -sweep-interval instead)")
	summaryResolve := flag.Duration("summary-resolve", time.Minute, "quiet time after which an open incident resolves")
	summaryMin := flag.Int("summary-min", 3, "minimum correlated alerts per window to open an incident (smaller groups deliver raw)")
	summaryRaw := flag.Bool("summary-raw", false, "with -summary, additionally deliver every raw alert next to folded incidents")
	fleet := flag.Bool("fleet", true, "run the fleet observability tier: vicinity residuals, event journal, and the /fleet/ dashboard on -obs-listen")
	vicinityThreshold := flag.Float64("vicinity-threshold", 4, "robust z vs job-peer median/MAD at which a node counts as peer-divergent")
	exemplars := flag.Bool("exemplars", false, "render (trace-id, value, ts) exemplars on histogram buckets in /metrics")
	lifecycleOn := flag.Bool("lifecycle", false, "run the model lifecycle loop: drift detection, background retraining, shadow promotion, hot swap")
	registryDir := flag.String("registry-dir", "registry", "versioned model registry directory (with -lifecycle)")
	retrainInterval := flag.Duration("retrain-interval", 0, "also retrain on this fixed period regardless of drift (0 = drift-driven only)")
	driftThreshold := flag.Float64("drift-threshold", 2.5, "multiple of the training baseline at which the rolling median counts as drifted")
	role := flag.String("role", "standalone", "fleet role: standalone | scorer | coordinator")
	coordinatorURL := flag.String("coordinator", "", "coordinator base URL (required with -role scorer)")
	scorerID := flag.String("id", "", "this scorer's stable identity (default: hostname)")
	advertisePush := flag.String("advertise-push", "", "push intake URL this scorer advertises to the coordinator")
	advertiseObs := flag.String("advertise-obs", "", "observability URL this scorer advertises (the coordinator scrapes its /metrics and /fleet/*)")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "scorer lease-renewal cadence")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "coordinator: lease age at which a silent scorer's shards are reassigned")
	sweepInterval := flag.Duration("sweep-interval", 2*time.Second, "coordinator: cadence of lease sweeps and fleet fan-in scrapes")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "sentryd: bad -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	switch *role {
	case "standalone", "scorer", "coordinator":
	default:
		fmt.Fprintf(os.Stderr, "sentryd: bad -role %q (want standalone, scorer or coordinator)\n", *role)
		os.Exit(2)
	}

	// The coordinator tier has no detector and no intake: it is pure
	// membership + model distribution + fan-in, so it branches off before
	// any dataset work. With -lifecycle it serves -registry-dir over
	// /registry/ for scorers to pull from.
	if *role == "coordinator" {
		runCoordinator(logger, coordinatorFlags{
			listen:            *listen,
			shards:            *shards,
			leaseTTL:          *leaseTTL,
			sweepInterval:     *sweepInterval,
			vicinityThreshold: *vicinityThreshold,
			registryDir:       *registryDir,
			lifecycleOn:       *lifecycleOn,
			exemplars:         *exemplars,
			webhook:           *webhook,
			summaryOn:         *summaryOn,
			summaryResolve:    *summaryResolve,
			summaryMin:        *summaryMin,
			summaryRaw:        *summaryRaw,
		})
		return
	}

	if *data == "" {
		fmt.Fprintln(os.Stderr, "sentryd: -data is required")
		os.Exit(2)
	}
	var routerPolicy ingest.Policy
	switch *policy {
	case "block":
		routerPolicy = ingest.Block
	case "drop-oldest":
		routerPolicy = ingest.DropOldest
	default:
		fmt.Fprintf(os.Stderr, "sentryd: bad -policy %q (want block or drop-oldest)\n", *policy)
		os.Exit(2)
	}

	// The gateway is always instrumented; -obs-listen only controls
	// whether the registry is additionally served for scraping. The server
	// starts after daemon.New so the /fleet/ mounts can come from the live
	// aggregator.
	reg := obs.NewRegistry()
	reg.SetExemplars(*exemplars)

	ds, err := nodesentry.ImportDataset(*data)
	if err != nil {
		fatal(logger, "load dataset", "dir", *data, "err", err)
	}
	logger.Info("dataset loaded", "summary", fmt.Sprint(ds.Summarize()))

	// Detector resolution: with -lifecycle the registry is authoritative —
	// a previously promoted model survives restarts; -train/-model only
	// seed an empty (or unreadable) registry.
	var store *lifecycle.Store
	var activeID string
	var det *nodesentry.Detector
	if *lifecycleOn {
		store, err = lifecycle.OpenStore(*registryDir, 5)
		if err != nil {
			fatal(logger, "open registry", "dir", *registryDir, "err", err)
		}
		if d, v, err := store.LoadActive(); err == nil {
			det, activeID = d, v.ID
			logger.Info("model loaded from registry", "version", v.ID,
				"clusters", det.NumClusters(), "source", v.Source)
		} else {
			logger.Info("registry has no loadable active version", "err", err)
			det = loadOrTrain(logger, ds, *train, *modelPath)
			v, err := store.SaveVersion(det, "initial")
			if err != nil {
				fatal(logger, "save initial version", "err", err)
			}
			if err := store.Activate(v.ID); err != nil {
				fatal(logger, "activate initial version", "err", err)
			}
			activeID = v.ID
			logger.Info("initial model registered", "version", v.ID)
		}
	} else {
		det = loadOrTrain(logger, ds, *train, *modelPath)
	}

	cfg := daemon.Config{
		Detector:       det,
		Step:           ds.Step,
		ScoringWorkers: 3,
		BatchWindows:   *batchWindows,
		Shards:         *shards,
		QueueSize:      *queue,
		Policy:         routerPolicy,
		WebhookURL:     *webhook,
		WebhookRetries: *webhookRetries,
		WebhookBackoff: ingest.Backoff{Base: 200 * time.Millisecond},
		Metrics:        reg,
		Logger:         logger,
	}
	cfg.Layouts = map[string][]string{}
	for node, frame := range ds.Frames {
		cfg.Layouts[node] = frame.Metrics
	}
	if *lifecycleOn {
		cfg.Lifecycle = &lifecycle.Config{
			Step:            ds.Step,
			TrainOptions:    nodesentry.DefaultOptions(),
			SemanticGroups:  telemetry.SemanticIndex(ds.Catalog),
			DriftThreshold:  *driftThreshold,
			RetrainInterval: *retrainInterval,
			Metrics:         reg,
			Logger:          logger,
		}
		cfg.Store = store
		cfg.ActiveID = activeID
	}
	if *fleet {
		cfg.FleetView = &fleetview.Config{
			VicinityThreshold: *vicinityThreshold,
			Metrics:           reg,
			Logger:            logger,
		}
	}
	if *summaryOn {
		cfg.Summary = &summary.Config{
			Window:       *summaryWindow,
			ResolveAfter: *summaryResolve,
			MinGroup:     *summaryMin,
		}
		cfg.SummaryRaw = *summaryRaw
	}
	if *role == "scorer" {
		if *coordinatorURL == "" {
			fmt.Fprintln(os.Stderr, "sentryd: -role scorer requires -coordinator")
			os.Exit(2)
		}
		id := *scorerID
		if id == "" {
			host, err := os.Hostname()
			if err != nil {
				fatal(logger, "resolve hostname for scorer id", "err", err)
			}
			id = host
		}
		cfg.Coord = &coord.AgentConfig{
			ID:                id,
			CoordinatorURL:    strings.TrimRight(*coordinatorURL, "/"),
			PushURL:           *advertisePush,
			ObsURL:            *advertiseObs,
			HeartbeatInterval: *heartbeat,
			// The registry version already running doesn't re-pull.
			ActiveModelID: activeID,
		}
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(logger, "intake listen", "addr", *listen, "err", err)
	}
	cfg.Listener = ln
	if *scrapeTargets != "" {
		cfg.ScrapeTargets = strings.Split(*scrapeTargets, ",")
		cfg.ScrapeInterval = *scrapeInterval
	}

	d, err := daemon.New(cfg)
	if err != nil {
		fatal(logger, "daemon", "err", err)
	}
	if *obsListen != "" {
		var mounts []obs.Mount
		if fv := d.FleetView(); fv != nil {
			mounts = fv.Mounts()
		}
		srv, addr, err := obs.Serve(*obsListen, reg, nil, mounts...)
		if err != nil {
			fatal(logger, "obs server", "err", err)
		}
		defer func() { _ = srv.Close() }() // process exit; shutdown error is inert
		logger.Info("observability listening", "addr", addr, "fleet", *fleet)
	}
	logger.Info("intake listening", "addr", d.Addr(),
		"shards", *shards, "queue", *queue, "policy", *policy)
	if cfg.Coord != nil {
		logger.Info("scorer role", "id", cfg.Coord.ID, "coordinator", cfg.Coord.CoordinatorURL,
			"heartbeat", *heartbeat)
	}
	if *lifecycleOn {
		logger.Info("lifecycle loop running", "registry", *registryDir,
			"drift_threshold", *driftThreshold, "retrain_interval", *retrainInterval)
	}
	if len(cfg.ScrapeTargets) > 0 {
		logger.Info("scraping", "targets", len(cfg.ScrapeTargets), "interval", *scrapeInterval)
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

// coordinatorFlags carries the subset of flags the coordinator role uses.
type coordinatorFlags struct {
	listen            string
	shards            int
	leaseTTL          time.Duration
	sweepInterval     time.Duration
	vicinityThreshold float64
	registryDir       string
	lifecycleOn       bool
	exemplars         bool
	webhook           string
	summaryOn         bool
	summaryResolve    time.Duration
	summaryMin        int
	summaryRaw        bool
}

// runCoordinator serves the coordinator tier on f.listen: /coord/*
// membership and alert intake, /registry/* model distribution (with
// -lifecycle), and the merged /fleet/* surface, until SIGINT/SIGTERM.
func runCoordinator(logger *slog.Logger, f coordinatorFlags) {
	reg := obs.NewRegistry()
	reg.SetExemplars(f.exemplars)

	var store *lifecycle.Store
	if f.lifecycleOn {
		var err error
		store, err = lifecycle.OpenStore(f.registryDir, 5)
		if err != nil {
			fatal(logger, "open registry", "dir", f.registryDir, "err", err)
		}
		logger.Info("serving model registry", "dir", f.registryDir)
	}
	ccfg := coord.Config{
		TotalShards:       f.shards,
		LeaseTTL:          f.leaseTTL,
		SweepInterval:     f.sweepInterval,
		VicinityThreshold: f.vicinityThreshold,
		Store:             store,
		Metrics:           reg,
		Logger:            logger,
		WebhookURL:        f.webhook,
		SummaryRaw:        f.summaryRaw,
	}
	if f.summaryOn {
		// The coordinator flushes on its sweep cadence, so the sweep
		// interval is the clustering window.
		ccfg.Summary = &summary.Config{
			Window:       f.sweepInterval,
			ResolveAfter: f.summaryResolve,
			MinGroup:     f.summaryMin,
		}
		logger.Info("alert summarization on", "window", f.sweepInterval,
			"resolve_after", f.summaryResolve, "min_group", f.summaryMin)
	}
	c := coord.New(ccfg)
	defer c.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go c.Run(ctx)

	srv, addr, err := obs.Serve(f.listen, reg, nil, c.Mounts()...)
	if err != nil {
		fatal(logger, "coordinator server", "err", err)
	}
	defer func() { _ = srv.Close() }() // process exit; shutdown error is inert
	logger.Info("coordinator listening", "addr", addr,
		"total_shards", f.shards, "lease_ttl", f.leaseTTL, "sweep", f.sweepInterval)

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
