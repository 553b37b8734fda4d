package chaos

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/daemon"
	"nodesentry/internal/dataset"
	"nodesentry/internal/fleetview"
	"nodesentry/internal/ingest"
	"nodesentry/internal/lifecycle"
	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
	"nodesentry/internal/summary"
	"nodesentry/internal/telemetry"
)

// Config parameterizes one soak scenario.
type Config struct {
	// DS supplies the telemetry and the fault ground truth (required).
	DS *dataset.Dataset
	// Det is the incumbent detector, trained on DS's training split
	// (required). Callers train it before Run so leak-checking tests can
	// snapshot goroutines after the training pools wind down.
	Det *core.Detector
	// TrainOptions configures the lifecycle's background retraining.
	TrainOptions core.Options
	// Cycles is how many full drift→retrain→shadow→swap cycles to run
	// (default 1; the nightly soak runs several).
	Cycles int
	// BatchWindows forwards to the daemon's monitor: how many windows a
	// scoring lane queues per flush (0 or 1: a batch of one). The nightly
	// soak sets it to 4 so multi-window flushes see chaos at full depth.
	BatchWindows int
	// RecallFloor is the minimum fault recall over the clean-phase
	// window (default 0.2) — chaos may cost detection latency, but the
	// detector must keep finding real anomalies through it.
	RecallFloor float64
	// SlackSec pads alert-to-fault matching (default 30*DS.Step; scoring
	// emits alerts at window boundaries, after the fault begins).
	SlackSec int64
	// Tracer, when non-nil, receives chaos_feed / chaos_retrain /
	// chaos_swap spans.
	Tracer *obs.Tracer
	// Summary runs the alert summarization tier inside the daemon: the
	// webhook receives folded incident payloads plus unfolded raw alerts,
	// and reconcile swaps the per-alert delivery equation for the
	// summarizer's accounting identity (Folded + Raw == Observed ==
	// alerts raised; every incident resolved at quiescence).
	Summary bool
	// Logger, when non-nil, receives component logs.
	Logger *slog.Logger
}

// Report is one soak run's evidence: the injected-fault ledger and the
// loop's observed behavior, every pair of which Run has already
// reconciled (it returns an error otherwise).
type Report struct {
	// Counts is the injected-fault ledger.
	Counts map[FaultKind]int64
	// FaultKinds is how many distinct kinds were injected.
	FaultKinds int
	// PushLines / PushSamples / PushJobs count the forwarder-fed stream;
	// ScrapeSweeps counts successful scrapes.
	PushLines, PushSamples, PushJobs int64
	ScrapeSweeps                     int64
	// Alerts is how many alerts the loop delivered end to end (monitor →
	// webhook → consumer).
	Alerts int
	// MatchedFaults / TotalFaults / Recall measure detection through the
	// chaos over the clean-phase ground truth.
	MatchedFaults, TotalFaults int
	Recall                     float64
	// ForcedSwaps counts mid-flood SwapDetector calls; Promotions counts
	// shadow-gate promotions; Epoch is the final detector generation.
	ForcedSwaps, Promotions int
	Epoch                   int64
	// Decisions records every shadow-gate outcome, last cycle last.
	Decisions []lifecycle.Decision
	// RetrainWall is the last background retraining wall time.
	RetrainWall time.Duration
	// QuarantinedID / RecoveredID record the registry-corruption drill:
	// the version whose payload was corrupted and the retired version the
	// store fell back to.
	QuarantinedID, RecoveredID string
	// FleetProbes counts successful /fleet/state probes through the chaos
	// phases; FleetEvents is the journal's all-time event total and
	// SSEEvents how many of them the live SSE client received.
	FleetProbes int
	FleetEvents uint64
	SSEEvents   int64
	// Summarization accounting (Config.Summary only): every raised alert
	// either folded into an incident or was delivered raw, and every
	// opened incident was resolved by quiescence.
	SummaryObserved, SummaryFolded, SummaryUnfolded int64
	IncidentsOpened, IncidentsResolved              int64
}

// faultMirror forwards every ledger injection into the fleetview journal.
// The aggregator is only constructed by daemon.New, after the seams (and
// their Counts callback) exist, so injections recorded before attach are
// buffered and flushed under the same lock — the two ledgers stay exactly
// equal with no window.
type faultMirror struct {
	mu      sync.Mutex
	fv      *fleetview.Aggregator
	pending map[FaultKind]int64
}

func (fm *faultMirror) record(kind FaultKind, n int64) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if fm.fv != nil {
		fm.fv.RecordFault(string(kind), n)
		return
	}
	if fm.pending == nil {
		fm.pending = map[FaultKind]int64{}
	}
	fm.pending[kind] += n
}

func (fm *faultMirror) attach(fv *fleetview.Aggregator) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	fm.fv = fv
	for kind, n := range fm.pending {
		fv.RecordFault(string(kind), n)
	}
	fm.pending = nil
}

// soak is one running scenario's state.
type soak struct {
	cfg    Config
	ds     *dataset.Dataset
	reg    *obs.Registry
	counts *Counts
	rep    *Report

	d       *daemon.Daemon
	store   *lifecycle.Store
	pushURL string
	stream  *StreamChaos

	fwdClient   *http.Client
	plainClient *http.Client
	scrapeT     *Transport
	scrapeLen   int

	exporter  *exporter
	webhook   *httptest.Server
	webhookOK atomic.Int64

	alertMu sync.Mutex
	alerts  []runtime.Alert

	probes   []string
	probeSeq int64

	fm       faultMirror
	fleetSrv *httptest.Server
	sseData  atomic.Int64
	sseErr   chan error

	fwdLines, pushSamples, pushJobs int64
}

// Run executes one soak scenario: the full sentryd loop (push+scrape
// intake → decoder → shard router → monitor → drift → retrain → shadow →
// hot swap) under scripted infrastructure faults on every seam, then
// reconciles the daemon's /metrics against the injected-fault ledger.
// Any violated invariant — a dropped event, a counter that does not
// account for an injected fault, a failed drift/retrain/recovery step, a
// recall below the floor — is returned as an error listing every
// violation.
func Run(cfg Config) (*Report, error) {
	if cfg.DS == nil || cfg.Det == nil {
		return nil, errors.New("chaos: Config.DS and Config.Det are required")
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 1
	}
	if cfg.RecallFloor == 0 {
		cfg.RecallFloor = 0.2
	}
	if cfg.SlackSec == 0 {
		cfg.SlackSec = 30 * cfg.DS.Step
	}
	s := &soak{
		cfg:    cfg,
		ds:     cfg.DS,
		reg:    obs.NewRegistry(),
		counts: NewCounts(),
		rep:    &Report{},
	}

	dir, err := os.MkdirTemp("", "nodesentry-chaos-*")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch registry; best-effort cleanup

	if err := s.openRegistry(dir); err != nil {
		return nil, err
	}
	closeDaemon, err := s.start()
	if err != nil {
		return nil, err
	}

	runErr := s.drive()
	// Even a failed drive tears the loop down and reports a close error;
	// the registry drill and reconciliation need the daemon stopped.
	closeErr := closeDaemon()
	s.closeSeams()
	if runErr != nil {
		return s.rep, runErr
	}
	if closeErr != nil {
		return s.rep, closeErr
	}
	if err := s.registryDrill(); err != nil {
		return s.rep, err
	}
	return s.rep, s.reconcile()
}

// openRegistry seeds the versioned store with an active baseline *and* a
// retired predecessor, so the corruption drill always has a lineage to
// fall back through.
func (s *soak) openRegistry(dir string) error {
	store, err := lifecycle.OpenStore(dir, 5)
	if err != nil {
		return err
	}
	for _, source := range []string{"initial", "baseline"} {
		v, err := store.SaveVersion(s.cfg.Det, source)
		if err != nil {
			return err
		}
		if err := store.Activate(v.ID); err != nil {
			return err
		}
	}
	s.store = store
	return nil
}

// start wires every chaos seam and boots the daemon, returning its
// closer.
func (s *soak) start() (func() error, error) {
	s.exporter = newExporter(s.ds)
	s.webhook = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		s.webhookOK.Add(1)
		w.WriteHeader(http.StatusOK)
	}))

	// Every HTTP seam gets a scripted Transport; the schedules are cyclic
	// with each fault followed by a clean slot, so a retry of an injected
	// failure always succeeds and the retry counters reconcile exactly.
	scrapeScript := []FaultKind{
		Pass, Pass, Pass, Scrape5xx, Pass, ScrapeGarble, Pass, ScrapeTruncate, ScrapeDrop, Pass,
	}
	s.scrapeLen = len(scrapeScript)
	s.scrapeT = &Transport{Script: scrapeScript, Counts: s.counts}
	// Every injection is mirrored into the fleetview journal; reconcile
	// demands the two ledgers agree exactly.
	s.counts.OnAdd = s.fm.record
	s.fwdClient = &http.Client{Transport: &Transport{
		Script: []FaultKind{Pass, Pass, Pass, Pass, Pass, ConnDrop, Pass, Pass, Pass, Pass, Pass, Pass},
		Counts: s.counts,
	}}
	s.plainClient = &http.Client{}
	webhookClient := &http.Client{Transport: &Transport{
		Script:    []FaultKind{Pass, Pass, Pass, Webhook5xx, Pass, Pass, WebhookSlow, Pass},
		SlowDelay: 20 * time.Millisecond,
		Counts:    s.counts,
	}}

	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	const shards = 4
	s.probes = probeNames(shards)
	s.stream = &StreamChaos{
		SwapNode: s.ds.Nodes()[1%len(s.ds.Nodes())],
		DupNode:  s.ds.Nodes()[2%len(s.ds.Nodes())],
		SkewNode: s.ds.Nodes()[3%len(s.ds.Nodes())],
		SkewSec:  3600,
		Counts:   s.counts,
	}

	layouts := map[string][]string{}
	for node, frame := range s.ds.Frames {
		layouts[node] = frame.Metrics
	}
	for _, clone := range []string{"flood-0", "flood-1"} {
		layouts[clone] = s.ds.Frames[s.stream.SwapNode].Metrics
	}
	for _, node := range s.exporter.nodes {
		layouts[node] = s.exporter.metrics
	}
	for _, p := range s.probes {
		layouts[p] = []string{"chaos_probe"}
	}

	var sumCfg *summary.Config
	if s.cfg.Summary {
		sumCfg = &summary.Config{
			// The soak settles in milliseconds; flush and resolve on the
			// same timescale so incidents open and quiesce mid-run.
			Window:       25 * time.Millisecond,
			ResolveAfter: 250 * time.Millisecond,
			MinGroup:     3,
		}
	}
	active, _ := s.store.Active()
	d, err := daemon.New(daemon.Config{
		Summary:        sumCfg,
		Detector:       s.cfg.Det,
		Step:           s.ds.Step,
		Layouts:        layouts,
		ScoringWorkers: 3,
		AlertBuffer:    1024,
		BatchWindows:   s.cfg.BatchWindows,
		Shards:         shards,
		QueueSize:      256,
		Policy:         ingest.Block,
		Listener: &Listener{
			Listener: raw,
			Script:   []FaultKind{AcceptDrop, AcceptDrop},
			Counts:   s.counts,
		},
		ScrapeTargets:  []string{s.exporter.srv.URL},
		ScrapeInterval: 10 * time.Millisecond,
		ScrapeClient:   &http.Client{Transport: s.scrapeT},
		WebhookURL:     s.webhook.URL,
		WebhookRetries: 3,
		WebhookBackoff: ingest.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2},
		WebhookClient:  webhookClient,
		OnAlert: func(a runtime.Alert) {
			s.alertMu.Lock()
			s.alerts = append(s.alerts, a)
			s.alertMu.Unlock()
		},
		Lifecycle: &lifecycle.Config{
			Step:              s.ds.Step,
			TrainOptions:      s.cfg.TrainOptions,
			SemanticGroups:    telemetry.SemanticIndex(s.ds.Catalog),
			DriftThreshold:    1.6,
			DriftWindow:       128,
			MinDriftSamples:   8,
			MinShadowWindows:  4,
			ShadowQueue:       1 << 15,
			AlertSlack:        25,
			ImprovementFactor: 0.7,
			// The soak drives drift checks and gates explicitly; the
			// manager's own ticker must never race it.
			CheckInterval: time.Hour,
		},
		FleetView: &fleetview.Config{
			// The soak settles in milliseconds; evaluate residuals on the
			// same timescale so vicinity passes actually run mid-chaos.
			EvalInterval: 25 * time.Millisecond,
		},
		Store:    s.store,
		ActiveID: active.ID,
		Metrics:  s.reg,
		Logger:   s.cfg.Logger,
	})
	if err != nil {
		_ = raw.Close()
		return nil, err
	}
	s.d = d
	s.fm.attach(d.FleetView())
	// The fleet endpoints ride the same obs handler an operator would
	// scrape; the SSE client below holds a live stream open through every
	// chaos phase.
	s.fleetSrv = httptest.NewServer(obs.Handler(s.reg, nil, d.FleetView().Mounts()...))
	s.sseErr = make(chan error, 1)
	if err := s.startSSE(); err != nil {
		s.fleetSrv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = d.Close(ctx)
		return nil, err
	}
	s.pushURL = "http://" + d.Addr() + "/push"
	return func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := d.Close(ctx); err != nil {
			return fmt.Errorf("chaos: daemon close: %w", err)
		}
		select {
		case err := <-d.ServeErr():
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				return fmt.Errorf("chaos: intake server died: %w", err)
			}
		case <-time.After(5 * time.Second):
			return errors.New("chaos: intake server did not report shutdown")
		}
		return nil
	}, nil
}

// closeSeams releases client-side resources so leak checks see a quiet
// process. Closing fleetSrv blocks until the SSE handler unwinds, so by
// the time reconcile reads sseErr the stream's fate is decided.
func (s *soak) closeSeams() {
	s.webhook.Close()
	s.exporter.srv.Close()
	if s.fleetSrv != nil {
		s.fleetSrv.Close()
	}
	for _, c := range []*http.Client{s.fwdClient, s.plainClient} {
		c.CloseIdleConnections()
	}
}

// startSSE opens the live /fleet/events stream and consumes it on a
// background goroutine until the aggregator closes it (daemon shutdown).
// Every data frame is counted; the exit error lands in s.sseErr.
func (s *soak) startSSE() error {
	req, err := http.NewRequest(http.MethodGet, s.fleetSrv.URL+"/fleet/events?stream=1", nil)
	if err != nil {
		return err
	}
	resp, err := s.plainClient.Do(req)
	if err != nil {
		return fmt.Errorf("chaos: sse connect: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		_ = resp.Body.Close()
		return fmt.Errorf("chaos: sse connect returned %s", resp.Status)
	}
	go func() {
		defer func() { _ = resp.Body.Close() }()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				s.sseData.Add(1)
			}
		}
		// EOF is the orderly end (aggregator closed); anything else is a
		// mid-stream failure reconcile flags.
		s.sseErr <- sc.Err()
	}()
	return nil
}

// fleetProbe asserts /fleet/state answers with a coherent snapshot while
// chaos is in flight.
func (s *soak) fleetProbe() error {
	resp, err := s.plainClient.Get(s.fleetSrv.URL + "/fleet/state?spark=4")
	if err != nil {
		return fmt.Errorf("chaos: fleet state probe: %w", err)
	}
	defer func() { _, _ = io.Copy(io.Discard, resp.Body); _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("chaos: fleet state probe returned %s", resp.Status)
	}
	var st fleetview.FleetState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("chaos: fleet state probe decode: %w", err)
	}
	if len(st.Nodes) == 0 || st.Seq == 0 {
		return fmt.Errorf("chaos: fleet state probe empty (nodes %d, seq %d)", len(st.Nodes), st.Seq)
	}
	s.rep.FleetProbes++
	return nil
}

// drive runs the scenario's cycles against the live daemon.
func (s *soak) drive() error {
	ds := s.ds
	split := ds.SplitTime()
	midA := split + (ds.Horizon-split)*7/10
	midA -= midA % ds.Step
	midB := split + (ds.Horizon-split)*85/100
	midB -= midB % ds.Step

	for cycle := 0; cycle < s.cfg.Cycles; cycle++ {
		offset := int64(cycle) * (ds.Horizon - split)

		// Phase A: the clean-rate stream (carrying the dataset's injected
		// anomalies) under out-of-order/dup/skew faults, a mid-stream
		// flood burst, and two forced hot swaps while the flood drains.
		lines := s.stream.Perturb(phaseLines(ds, split, midA, 1, offset))
		flood := append(
			nodeLines(ds, s.stream.SwapNode, "flood-0", split, midA, 1, offset),
			nodeLines(ds, s.stream.DupNode, "flood-1", split, midA, 1, offset)...)
		s.counts.Add(FloodBurst, int64(len(flood)))
		mid := len(lines) / 2
		withFlood := make([]ingest.Line, 0, len(lines)+len(flood))
		withFlood = append(withFlood, lines[:mid]...)
		withFlood = append(withFlood, flood...)
		withFlood = append(withFlood, lines[mid:]...)
		endFeed := s.span("chaos_feed")
		if err := s.feed(withFlood, 2); err != nil {
			endFeed()
			return err
		}
		endFeed()
		if err := s.settle(); err != nil {
			return err
		}
		if err := s.fleetProbe(); err != nil {
			return err
		}

		// Phase B: a sustained 4x workload shift drives drift; retraining
		// runs off the buffered (chaos-perturbed) stream.
		if err := s.feed(s.stream.Perturb(phaseLines(ds, midA, midB, 4, offset)), 0); err != nil {
			return err
		}
		if err := s.settle(); err != nil {
			return err
		}
		if err := s.fleetProbe(); err != nil {
			return err
		}
		mgr := s.d.Manager()
		drifted, reason := mgr.Drift().Check()
		if !drifted {
			if cycle == 0 {
				return errors.New("chaos: shifted stream did not register drift")
			}
			// A promoted candidate was trained on shifted data, so later
			// cycles may legitimately sit inside its baseline.
			reason = "chaos-scheduled"
		}
		// The span counts process-wide allocations, so the scrape schedule
		// pauses for it and the last scrape's samples are applied first:
		// the span then measures the retrain, not the traffic around it.
		resumeScrapes := s.scrapeT.Hold()
		if err := s.settle(); err != nil {
			resumeScrapes()
			return err
		}
		endRetrain := s.span("chaos_retrain")
		t0 := time.Now()
		_, err := mgr.RetrainNow(context.Background(), "chaos: "+reason)
		s.rep.RetrainWall = time.Since(t0)
		endRetrain()
		resumeScrapes()
		if err != nil {
			return fmt.Errorf("chaos: retrain: %w", err)
		}

		// Phase C: the candidate audits the rest of the shifted stream in
		// shadow, then the gate decides under a forced verdict.
		if err := s.feed(s.stream.Perturb(phaseLines(ds, midB, ds.Horizon, 4, offset)), 0); err != nil {
			return err
		}
		if err := s.settle(); err != nil {
			return err
		}
		if err := s.fleetProbe(); err != nil {
			return err
		}
		endSwap := s.span("chaos_swap")
		dec, decided := mgr.DecideShadow(true)
		endSwap()
		if !decided {
			return errors.New("chaos: shadow gate did not decide")
		}
		s.rep.Decisions = append(s.rep.Decisions, dec)
		if dec.Promoted {
			s.rep.Promotions++
		}
	}

	// Hold the loop open until every scripted scrape fault has been
	// injected at least twice.
	deadline := time.Now().Add(20 * time.Second)
	for s.scrapeT.Requests() < 2*int64(s.scrapeLen) {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: scrape schedule incomplete: %d requests", s.scrapeT.Requests())
		}
		time.Sleep(5 * time.Millisecond)
	}

	return nil
}

// feed streams lines through a fresh forwarder (per-phase, so Close's
// synchronous drain is the phase barrier), forcing hot swaps at chunk
// boundaries while the stream is live.
func (s *soak) feed(lines []ingest.Line, swaps int) error {
	fwd := ingest.NewForwarder(ingest.ForwarderConfig{
		URL:        s.pushURL,
		MaxBatch:   64,
		MaxAge:     20 * time.Millisecond,
		QueueSize:  1024,
		Timeout:    10 * time.Second,
		MaxRetries: 5,
		Backoff:    ingest.Backoff{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond, Factor: 2},
		Seed:       1,
		Client:     s.fwdClient,
		Metrics:    s.reg,
		Logger:     s.cfg.Logger,
	})
	boundary := map[int]bool{}
	for i := 1; i <= swaps; i++ {
		boundary[i*len(lines)/(swaps+1)] = true
	}
	for i, l := range lines {
		if boundary[i] {
			if _, err := s.d.Monitor().SwapDetector(s.cfg.Det); err != nil {
				return fmt.Errorf("chaos: forced swap: %w", err)
			}
			s.rep.ForcedSwaps++
		}
		s.fwdLines++
		switch {
		case len(l.Metrics) > 0:
			fwd.RegisterNode(l.Node, l.Metrics)
		case l.Job != nil:
			fwd.ObserveJob(l.Node, *l.Job, l.Start)
			s.pushJobs++
		default:
			vals := make([]float64, len(l.Values))
			for i, v := range l.Values {
				vals[i] = float64(v)
			}
			fwd.Ingest(l.Node, l.Time, vals)
			s.pushSamples++
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := fwd.Close(ctx); err != nil {
		return fmt.Errorf("chaos: forwarder drain: %w", err)
	}
	return nil
}

// settle blocks until everything enqueued before it has been applied by
// the monitor. It pushes one probe sample onto every shard (outside the
// chaos client) and waits for all of them to surface in the monitor's
// snapshot: shard queues are FIFO, so a visible probe proves its shard
// drained everything ahead of it.
func (s *soak) settle() error {
	s.probeSeq++
	ts := s.ds.Horizon*2 + s.probeSeq*s.ds.Step
	var b strings.Builder
	for _, p := range s.probes {
		fmt.Fprintf(&b, `{"node":%q,"time":%d,"values":[0]}`+"\n", p, ts)
	}
	resp, err := s.plainClient.Post(s.pushURL, "application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		return fmt.Errorf("chaos: probe push: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("chaos: probe push returned %s", resp.Status)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		seen := map[string]int{}
		for _, st := range s.d.Monitor().Snapshot() {
			// Buffered alone counts a probe node's samples: a run sends it
			// far fewer than one match window, so none has left the ring.
			// Consumed is no count here — on a node's first sample the
			// monitor sets it to the job-timeline offset (ts−jobStart)/Step,
			// which would make one early probe satisfy every later wait.
			seen[st.Node] = st.Buffered
		}
		ok := true
		for _, p := range s.probes {
			if int64(seen[p]) < s.probeSeq {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: shards did not settle (probe %d, seen %v)", s.probeSeq, seen)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// recall matches delivered alerts against the dataset's ground-truth
// faults that fall inside [from, to), un-skewing alerts from the
// clock-skewed node.
func (s *soak) recall(alerts []runtime.Alert, from, to int64) (matched, total int, recall float64) {
	for _, f := range s.ds.Faults {
		if f.Start < from || f.End > to {
			continue
		}
		total++
		skew := int64(0)
		if f.Node == s.stream.SkewNode {
			skew = s.stream.SkewSec
		}
		for _, a := range alerts {
			if a.Node != f.Node {
				continue
			}
			at := a.Time - skew
			if at >= f.Start-2*s.ds.Step && at <= f.End+s.cfg.SlackSec {
				matched++
				break
			}
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	return matched, total, float64(matched) / float64(total)
}

// registryDrill corrupts the active model on disk and demands the store
// quarantine it and recover a loadable predecessor.
func (s *soak) registryDrill() error {
	corrupted, err := CorruptActiveModel(s.store, s.counts)
	if err != nil {
		return err
	}
	det, v, err := s.store.LoadActive()
	if err != nil {
		return fmt.Errorf("chaos: registry did not recover from corruption: %w", err)
	}
	if det == nil || v.ID == corrupted {
		return fmt.Errorf("chaos: corrupted version %s still active", corrupted)
	}
	entries, err := os.ReadDir(filepath.Join(s.store.Dir(), "quarantine"))
	if err != nil || len(entries) == 0 {
		return fmt.Errorf("chaos: corrupted payload was not quarantined (err %v)", err)
	}
	for _, rec := range s.store.Versions() {
		if rec.ID == corrupted && rec.Status != lifecycle.StatusQuarantined {
			return fmt.Errorf("chaos: version %s status %q, want quarantined", corrupted, rec.Status)
		}
	}
	s.rep.QuarantinedID, s.rep.RecoveredID = corrupted, v.ID
	return nil
}

// reconcile scrapes the daemon's own /metrics exposition and demands the
// counters account for every injected fault — the harness's core
// contract. All violations are reported together.
func (s *soak) reconcile() error {
	m, err := s.metricsSnapshot()
	if err != nil {
		return err
	}
	get := func(name string) int64 {
		var sum float64
		for key, v := range m {
			if key == name || strings.HasPrefix(key, name+"{") {
				sum += v
			}
		}
		return int64(sum + 0.5)
	}
	var errs []string
	chk := func(label string, got, want int64) {
		if got != want {
			errs = append(errs, fmt.Sprintf("%s: got %d, want %d", label, got, want))
		}
	}
	cs := s.counts.Snapshot()
	s.rep.Counts = cs
	s.rep.FaultKinds = s.counts.Kinds()
	s.rep.PushLines, s.rep.PushSamples, s.rep.PushJobs = s.fwdLines, s.pushSamples, s.pushJobs
	s.alertMu.Lock()
	alerts := append([]runtime.Alert(nil), s.alerts...)
	s.alertMu.Unlock()
	s.rep.Alerts = len(alerts)
	s.rep.Epoch = s.d.Monitor().Epoch()

	// Recall over the clean-phase ground truth: the daemon is drained, so
	// the alert list is final. Chaos may delay detection; it must not
	// blind it.
	split := s.ds.SplitTime()
	midA := split + (s.ds.Horizon-split)*7/10
	midA -= midA % s.ds.Step
	s.rep.MatchedFaults, s.rep.TotalFaults, s.rep.Recall = s.recall(alerts, split, midA)
	if s.rep.TotalFaults == 0 {
		errs = append(errs, "no ground-truth faults inside the clean phase")
	} else if s.rep.Recall < s.cfg.RecallFloor {
		errs = append(errs, fmt.Sprintf("recall %.3f below floor %.3f (%d/%d faults)",
			s.rep.Recall, s.cfg.RecallFloor, s.rep.MatchedFaults, s.rep.TotalFaults))
	}

	// Scrape path: every injected fault is a counted failure, every
	// non-faulted request a counted success. Shutdown may cancel one
	// in-flight scrape, adding a single failure outside the ledger.
	scrapeInjected := cs[Scrape5xx] + cs[ScrapeDrop] + cs[ScrapeGarble] + cs[ScrapeTruncate]
	scrapeFails := get("nodesentry_scrape_failures_total")
	if scrapeFails < scrapeInjected || scrapeFails > scrapeInjected+1 {
		errs = append(errs, fmt.Sprintf("scrape failures: got %d, want %d (+1 shutdown tolerance)",
			scrapeFails, scrapeInjected))
	}
	scrapeOK := get("nodesentry_scrape_total")
	s.rep.ScrapeSweeps = scrapeOK
	if diff := scrapeOK + scrapeFails - s.scrapeT.Requests(); diff < 0 || diff > 1 {
		errs = append(errs, fmt.Sprintf("scrape accounting: %d ok + %d failed vs %d requests",
			scrapeOK, scrapeFails, s.scrapeT.Requests()))
	}
	chk("parse errors", get("nodesentry_intake_parse_errors_total"), cs[ScrapeGarble]+cs[ScrapeTruncate])

	// Sample conservation: intake == push + probes + scrape, and the
	// monitor scored every one of them.
	probeSamples := s.probeSeq * int64(len(s.probes))
	chk("intake samples", get("nodesentry_intake_samples_total"),
		s.pushSamples+probeSamples+int64(len(s.exporter.nodes))*scrapeOK)
	chk("monitor ingest", get("nodesentry_ingest_samples_total"), get("nodesentry_intake_samples_total"))
	chk("intake jobs", get("nodesentry_intake_jobs_total"), s.pushJobs+int64(len(s.exporter.nodes)))
	chk("unregistered samples", get("nodesentry_ingest_unregistered_total"), 0)
	chk("shape mismatches", get("nodesentry_intake_shape_mismatch_total")+get("nodesentry_ingest_shape_mismatch_total"), 0)

	// Zero drop, everywhere: shard queues, forwarder, alert channel.
	chk("shard dropped", get("nodesentry_shard_dropped_total"), 0)
	chk("router dropped", s.d.Router().Dropped(), 0)
	chk("forward dropped", get("nodesentry_forward_dropped_total"), 0)
	chk("forward lines", get("nodesentry_forward_lines_total"), s.fwdLines)
	chk("monitor alert drops", s.d.Monitor().Dropped(), 0)
	chk("alerts dropped", get("nodesentry_alerts_dropped_total"), 0)

	// Every injected intake failure surfaces as exactly one forwarder
	// retry (and one counted failure), and nothing else does.
	chk("forward retries", get("nodesentry_forward_retries_total"), cs[AcceptDrop]+cs[ConnDrop])
	chk("forward failures", get("nodesentry_forward_failures_total"), cs[AcceptDrop]+cs[ConnDrop])

	// Alert path: everything the monitor delivered reached the webhook
	// receiver despite the flaky transport. With the summarization tier
	// interposed the delivery unit changes — folded alerts arrive as one
	// incident payload per open/resolve edge, unfolded ones stay
	// per-alert — but the accounting identity is exact either way.
	chk("alerts delivered", get("nodesentry_alerts_delivered_total"), int64(len(alerts)))
	if sum := s.d.Summarizer(); sum != nil {
		st := sum.Stats()
		s.rep.SummaryObserved, s.rep.SummaryFolded, s.rep.SummaryUnfolded = st.Observed, st.Folded, st.Raw
		s.rep.IncidentsOpened, s.rep.IncidentsResolved = st.Opened, st.Resolved
		chk("summary observed", st.Observed, int64(len(alerts)))
		chk("summary folded+raw", st.Folded+st.Raw, st.Observed)
		chk("summary metric observed", get("nodesentry_summary_alerts_observed_total"), st.Observed)
		chk("summary metric folded", get("nodesentry_summary_alerts_folded_total"), st.Folded)
		// Daemon close force-flushed and resolved everything: the fault
		// cleared, so no incident stays open and none leaks.
		chk("incidents resolved", st.Resolved, st.Opened)
		chk("open incidents after close", int64(sum.OpenCount()), 0)
		chk("summary metric open", get("nodesentry_summary_incidents_open"), 0)
		chk("webhook delivered", get("nodesentry_webhook_delivered_total"), st.Emissions())
		chk("webhook received", s.webhookOK.Load(), st.Emissions())
	} else {
		chk("webhook delivered", get("nodesentry_webhook_delivered_total"), int64(len(alerts)))
		chk("webhook received", s.webhookOK.Load(), int64(len(alerts)))
	}
	chk("webhook failures", get("nodesentry_webhook_failures_total"), cs[Webhook5xx])
	chk("webhook retries", get("nodesentry_webhook_retries_total"), cs[Webhook5xx])

	// Swap accounting: forced swaps plus promotions, every alert stamped
	// with a valid epoch.
	wantSwaps := int64(s.rep.ForcedSwaps + s.rep.Promotions)
	chk("detector swaps", get("nodesentry_detector_swaps_total"), wantSwaps)
	chk("detector epoch", s.rep.Epoch, 1+wantSwaps)
	for _, a := range alerts {
		if a.Epoch < 1 || a.Epoch > s.rep.Epoch {
			errs = append(errs, fmt.Sprintf("alert epoch %d outside [1, %d]", a.Epoch, s.rep.Epoch))
			break
		}
	}
	// Fleet tier: the event journal's fault ledger must equal the injected
	// ledger exactly (both directions), and the state/SSE surfaces must
	// have stayed live through every phase and terminated cleanly.
	fv := s.d.FleetView()
	ft := fv.FaultTotals()
	for kind, n := range cs {
		chk("fleet fault "+string(kind), ft[string(kind)], n)
	}
	for kind := range ft {
		if _, ok := cs[FaultKind(kind)]; !ok {
			errs = append(errs, fmt.Sprintf("fleet journal has fault kind %q the ledger never injected", kind))
		}
	}
	for _, n := range fv.Journal().Totals() {
		s.rep.FleetEvents += n
	}
	if s.rep.FleetEvents == 0 {
		errs = append(errs, "fleet journal recorded no events")
	}
	if s.rep.FleetProbes == 0 {
		errs = append(errs, "no /fleet/state probes succeeded")
	}
	select {
	case err := <-s.sseErr:
		if err != nil {
			errs = append(errs, "sse stream failed mid-run: "+err.Error())
		}
	case <-time.After(5 * time.Second):
		errs = append(errs, "sse stream did not terminate after daemon close")
	}
	s.rep.SSEEvents = s.sseData.Load()
	if s.rep.SSEEvents == 0 {
		errs = append(errs, "sse stream received no events")
	}

	if len(errs) > 0 {
		return fmt.Errorf("chaos: reconciliation failed:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// metricsSnapshot scrapes the run's registry through a real /metrics
// exposition — the same surface an operator reconciles against.
func (s *soak) metricsSnapshot() (map[string]float64, error) {
	srv := httptest.NewServer(obs.Handler(s.reg, nil))
	defer srv.Close()
	resp, err := s.plainClient.Get(srv.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	series, err := telemetry.ParseSeries(string(body))
	if err != nil {
		return nil, err
	}
	return telemetry.SeriesMap(series), nil
}

func (s *soak) span(name string) func() {
	if s.cfg.Tracer == nil {
		return func() {}
	}
	sp := s.cfg.Tracer.Start(name)
	return sp.End
}

// phaseLines renders [from, to) of every real node as one JSONL stream:
// a layout line, job transitions in span order, and every sample scaled
// by mul with timestamps shifted by offset.
func phaseLines(ds *dataset.Dataset, from, to int64, mul float64, offset int64) []ingest.Line {
	var out []ingest.Line
	for _, node := range ds.Nodes() {
		out = append(out, nodeLines(ds, node, node, from, to, mul, offset)...)
	}
	return out
}

// nodeLines renders one node's [from, to) slice, optionally under an
// assumed name (the flood clones).
func nodeLines(ds *dataset.Dataset, src, as string, from, to int64, mul float64, offset int64) []ingest.Line {
	f := ds.Frames[src]
	view := f.Slice(f.IndexOf(from), f.IndexOf(to))
	out := []ingest.Line{{Node: as, Metrics: view.Metrics}}
	spans := ds.SpansForNode(src, from, to)
	si := 0
	for t := 0; t < view.Len(); t++ {
		ts := view.Start + int64(t)*view.Step
		for si < len(spans) && spans[si].Start <= ts {
			job := spans[si].Job
			out = append(out, ingest.Line{Node: as, Job: &job, Start: spans[si].Start + offset})
			si++
		}
		vals := make([]ingest.JSONFloat, len(view.Data))
		for m := range vals {
			vals[m] = ingest.JSONFloat(view.Data[m][t] * mul)
		}
		out = append(out, ingest.Line{Node: as, Time: ts + offset, Values: vals})
	}
	return out
}

// probeNames brute-forces one node name per shard under the router's
// FNV-1a placement, so a settle probe lands on every queue.
func probeNames(shards int) []string {
	names := make([]string, shards)
	for target := range names {
		for j := 0; ; j++ {
			name := fmt.Sprintf("chaos-probe-%d", j)
			if ingest.FNVShard(name, shards) == target {
				names[target] = name
				break
			}
		}
	}
	return names
}

// exporter is the scrape-side origin: a /metrics endpoint exposing two
// synthetic nodes whose bodies advance one timestep per request, with
// job-transition lines on the first body. Faults never originate here —
// the chaos Transport in front decides which requests arrive and which
// bodies are delivered intact.
type exporter struct {
	srv     *httptest.Server
	nodes   []string
	metrics []string
	data    [][]float64
	start   int64
	step    int64
	k       atomic.Int64
}

func newExporter(ds *dataset.Dataset) *exporter {
	src := ds.Nodes()[0]
	f := ds.Frames[src]
	view := f.Slice(f.IndexOf(ds.SplitTime()), f.Len())
	data := make([][]float64, len(view.Data))
	for m := range view.Data {
		data[m] = make([]float64, view.Len())
		for t := 0; t < view.Len(); t++ {
			v := view.Data[m][t]
			if v != v { // NaN would be omitted from the body; keep every
				v = 0 // line so sample accounting stays exact
			}
			data[m][t] = v
		}
	}
	e := &exporter{
		nodes:   []string{"scrape-0", "scrape-1"},
		metrics: view.Metrics,
		data:    data,
		start:   view.Start,
		step:    view.Step,
	}
	e.srv = httptest.NewServer(http.HandlerFunc(e.serve))
	return e
}

func (e *exporter) serve(w http.ResponseWriter, r *http.Request) {
	k := e.k.Add(1) - 1
	t := int(k % int64(len(e.data[0])))
	tsMs := (e.start + k*e.step) * 1000
	// Append-based formatting: a scrape body is thousands of series lines
	// and per-line fmt boxing dominated the soak's allocation profile. The
	// node names here are plain ASCII, so %q reduces to bare quotes.
	b := make([]byte, 0, 64<<10)
	series := func(name, node string, v float64) {
		b = append(b, name...)
		b = append(b, `{node="`...)
		b = append(b, node...)
		b = append(b, `"} `...)
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, ' ')
		b = strconv.AppendInt(b, tsMs, 10)
		b = append(b, '\n')
	}
	for _, node := range e.nodes {
		if k == 0 {
			series(ingest.JobTransitionSeries, node, 7)
		}
		for m, name := range e.metrics {
			series(name, node, e.data[m][t])
		}
	}
	_, _ = w.Write(b)
}
