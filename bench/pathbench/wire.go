package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/daemon"
	"nodesentry/internal/ingest"
	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
	"nodesentry/internal/summary"
)

// replaySummary is the summarizer configuration of alert-tier workloads.
// sentryd's defaults (5 s fold window, 60 s quiet-to-resolve) are wall
// clock settings for a live stream; a replay compresses eight hours of
// telemetry into seconds, so the windows are compressed with it — which
// also spreads webhook deliveries evenly over a pass instead of bunching
// them every five seconds.
func replaySummary() *summary.Config {
	return &summary.Config{Window: 100 * time.Millisecond, ResolveAfter: time.Second, MinGroup: 3}
}

// hookReceiver is the loopback webhook endpoint of alert-tier workloads:
// it reads every delivery and counts it.
type hookReceiver struct {
	srv      *http.Server
	url      string
	received atomic.Int64
	done     chan error
}

func startHookReceiver() (*hookReceiver, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("webhook receiver: %w", err)
	}
	h := &hookReceiver{url: "http://" + ln.Addr().String() + "/hook", done: make(chan error, 1)}
	mux := http.NewServeMux()
	mux.HandleFunc("/hook", func(w http.ResponseWriter, r *http.Request) {
		// The count is the delivery; a body that fails to drain only
		// costs the sink its keep-alive connection.
		_, _ = io.Copy(io.Discard, r.Body)
		h.received.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	h.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { h.done <- h.srv.Serve(ln) }()
	return h, nil
}

func (h *hookReceiver) close(ctx context.Context) error {
	err := h.srv.Shutdown(ctx)
	if serr := <-h.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// stack is one running scoring path plus the handles the harness observes
// it through.
type stack struct {
	addr   string
	mon    *runtime.Monitor
	router *ingest.ShardRouter
	reg    *obs.Registry
	col    *collector
	hook   *hookReceiver // nil without the alert tier
	depth  []*obs.Gauge  // per-shard router queue depth
	stop   func(context.Context) error
}

// queueDepth is the router's current backlog, summed over shards, read
// from the gauges the router itself maintains.
func (s *stack) queueDepth() float64 {
	var d float64
	for _, g := range s.depth {
		d += g.Value()
	}
	return d
}

// close shuts the stack down upstream to downstream and then the webhook
// receiver, so late deliveries still land.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.stop(ctx)
	if s.hook != nil {
		if herr := s.hook.close(ctx); err == nil {
			err = herr
		}
	}
	return err
}

// startDaemon stands up the literal production loop — daemon.New on a
// loopback listener, wired exactly as cmd/sentryd wires it, registry
// included — in the benchmark's fixed environment.
func startDaemon(det *core.Detector, w workload, nodes []string, layouts map[string][]string) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("intake listener: %w", err)
	}
	s := &stack{reg: obs.NewRegistry(), col: newCollector(nodes, det.WindowLen(), w)}
	cfg := daemon.Config{
		Detector: det, Step: stepSec, Layouts: layouts,
		ScoringWorkers: benchWorkers, BatchWindows: w.batchWindows,
		Shards: benchShards, QueueSize: benchQueueSize, Policy: ingest.Block,
		Listener: ln, Metrics: s.reg, OnAlert: s.col.onAlert,
	}
	if w.alertTier {
		if s.hook, err = startHookReceiver(); err != nil {
			_ = ln.Close()
			return nil, err
		}
		cfg.WebhookURL = s.hook.url
		cfg.Summary = replaySummary()
	}
	d, err := daemon.New(cfg)
	if err != nil {
		_ = ln.Close()
		return nil, fmt.Errorf("daemon.New: %w", err)
	}
	d.Monitor().Tap(s.col.hooks())
	s.addr, s.mon, s.router, s.stop = d.Addr(), d.Monitor(), d.Router(), d.Close
	s.bindDepth()
	return s, nil
}

func (s *stack) bindDepth() {
	for i := 0; i < benchShards; i++ {
		s.depth = append(s.depth, s.reg.Gauge("nodesentry_shard_queue_depth", "shard", strconv.Itoa(i)))
	}
}
