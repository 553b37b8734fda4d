package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"nodesentry/internal/obs"
)

// Backoff computes exponential retry delays: Base, Base·Factor,
// Base·Factor², … capped at Max, each optionally jittered by ±Jitter
// fraction. The zero value is usable (100 ms base, ×2 growth, 5 s cap,
// no jitter). runtime.WebhookSink shares this machinery with Factor 1
// (its historical constant backoff).
type Backoff struct {
	// Base is the first delay (default 100 ms).
	Base time.Duration
	// Max caps the delay (default 5 s).
	Max time.Duration
	// Factor is the per-attempt growth (default 2; 1 = constant).
	Factor float64
	// Jitter randomizes each delay by ±this fraction (0..1), breaking
	// retry synchronization across a fleet of agents.
	Jitter float64
}

// Delay returns the sleep before retry attempt (1-based). rng supplies
// the jitter and may be nil when Jitter is 0.
func (b Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxD := b.Max
	if maxD <= 0 {
		maxD = 5 * time.Second
	}
	factor := b.Factor
	if factor <= 0 {
		factor = 2
	}
	d := float64(base) * math.Pow(factor, float64(attempt-1))
	if d > float64(maxD) {
		d = float64(maxD)
	}
	if b.Jitter > 0 && rng != nil {
		d *= 1 + b.Jitter*(2*rng.Float64()-1)
		if d < 0 {
			d = 0
		}
	}
	return time.Duration(d)
}

// ForwarderConfig parameterizes a Forwarder.
type ForwarderConfig struct {
	// URL is the gateway push endpoint (…/push).
	URL string
	// MaxBatch flushes a batch at this many lines (default 128).
	MaxBatch int
	// MaxAge flushes a non-empty batch older than this (default 2 s).
	MaxAge time.Duration
	// QueueSize bounds the send queue in batches (default 64); when the
	// gateway is unreachable long enough to fill it, new batches are
	// dropped and counted — an agent must never block the host.
	QueueSize int
	// Timeout bounds one send attempt (default 5 s).
	Timeout time.Duration
	// MaxRetries re-attempts a failed batch this many extra times
	// before dropping it (default 3). A batch the gateway rejects — a
	// 4xx other than 408 and 429 — is dropped at once.
	MaxRetries int
	// Backoff shapes the inter-attempt delays.
	Backoff Backoff
	// Seed seeds the jitter source (0 = wall clock).
	Seed int64
	// Client defaults to http.DefaultClient with Timeout applied per
	// attempt via context.
	Client *http.Client
	// Metrics, when non-nil, receives batch/retry/drop counters.
	Metrics *obs.Registry
	// Logger, when non-nil, receives send failures.
	Logger *slog.Logger
}

func (c ForwarderConfig) withDefaults() ForwarderConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 128
	}
	if c.MaxAge <= 0 {
		c.MaxAge = 2 * time.Second
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	return c
}

// Forwarder is the agent-side client: it implements Sink, batches the
// stream into JSONL Line records by size and age, and POSTs batches to
// a gateway with context timeouts, jittered exponential backoff, and a
// bounded retry queue. Close drains gracefully. Append calls never
// block on the network — overflow is dropped and counted.
type Forwarder struct {
	cfg ForwarderConfig

	mu     sync.Mutex
	cur    []Line
	curAt  time.Time
	closed bool

	q     chan []Line
	done  chan struct{}
	abort chan struct{}
	wg    sync.WaitGroup
	rng   *rand.Rand

	// encBuf is send's grow-once encode scratch. send runs on the sender
	// goroutine, and Close drains only after wg.Wait() has joined it, so
	// the buffer is never touched concurrently.
	encBuf []byte

	batches *obs.Counter
	lines   *obs.Counter
	retries *obs.Counter
	fails   *obs.Counter
	drops   *obs.Counter
	depth   *obs.Gauge
}

// NewForwarder starts the sender goroutine. Call Close to flush and
// stop it.
func NewForwarder(cfg ForwarderConfig) *Forwarder {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	r := cfg.Metrics
	f := &Forwarder{
		cfg:     cfg,
		q:       make(chan []Line, cfg.QueueSize),
		done:    make(chan struct{}),
		abort:   make(chan struct{}),
		rng:     rand.New(rand.NewSource(seed)),
		batches: r.Counter("nodesentry_forward_batches_total"),
		lines:   r.Counter("nodesentry_forward_lines_total"),
		retries: r.Counter("nodesentry_forward_retries_total"),
		fails:   r.Counter("nodesentry_forward_failures_total"),
		drops:   r.Counter("nodesentry_forward_dropped_total"),
		depth:   r.Gauge("nodesentry_forward_queue_depth"),
	}
	f.wg.Add(1)
	go f.run(f.done)
	return f
}

// RegisterNode batches a layout declaration (Sink).
func (f *Forwarder) RegisterNode(node string, metrics []string) {
	f.append(Line{Node: node, Metrics: append([]string(nil), metrics...)})
}

// ObserveJob batches a job transition (Sink).
func (f *Forwarder) ObserveJob(node string, job int64, start int64) {
	f.append(Line{Node: node, Job: &job, Start: start})
}

// Ingest batches one sample (Sink). The vector is copied.
func (f *Forwarder) Ingest(node string, ts int64, values []float64) {
	f.append(Line{Node: node, Time: ts, Values: jsonFloats(values)})
}

func (f *Forwarder) append(l Line) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		f.drops.Inc()
		return
	}
	if len(f.cur) == 0 {
		f.curAt = time.Now()
	}
	f.cur = append(f.cur, l)
	if len(f.cur) >= f.cfg.MaxBatch {
		f.flushLocked()
	}
}

// flushLocked moves the building batch onto the send queue, dropping it
// (counted) when the queue is full. Callers hold f.mu.
func (f *Forwarder) flushLocked() {
	if len(f.cur) == 0 {
		return
	}
	select {
	case f.q <- f.cur:
		f.depth.Set(float64(len(f.q)))
	default:
		f.drops.Add(int64(len(f.cur)))
		if f.cfg.Logger != nil {
			f.cfg.Logger.Warn("forward queue full: dropping batch", "lines", len(f.cur))
		}
	}
	f.cur = nil
}

// run is the sender loop: it sends queued batches and flushes the
// building batch when it ages past MaxAge. done is its stop signal. An
// in-flight send is never cancelled by an orderly Close — re-queueing a
// batch whose delivery raced shutdown would double-deliver it — only by
// the abort channel, which Close closes when its caller's ctx expires.
func (f *Forwarder) run(done chan struct{}) {
	defer f.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-f.abort:
			cancel()
		case <-ctx.Done():
		}
	}()
	tick := f.cfg.MaxAge / 2
	if tick <= 0 {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case batch := <-f.q:
			f.depth.Set(float64(len(f.q)))
			if err := f.send(ctx, batch); err != nil {
				f.drops.Add(int64(len(batch)))
			}
		case <-ticker.C:
			f.mu.Lock()
			if len(f.cur) > 0 && time.Since(f.curAt) >= f.cfg.MaxAge {
				f.flushLocked()
			}
			f.mu.Unlock()
		}
	}
}

// send delivers one batch, retrying per the backoff policy until ctx
// expires or MaxRetries is exhausted; a batch the gateway rejected
// (errRejected) is not retried. A batch that still fails is the caller's
// to account.
func (f *Forwarder) send(ctx context.Context, batch []Line) error {
	f.encBuf = f.encBuf[:0]
	for _, l := range batch {
		f.encBuf = appendLineJSON(f.encBuf, l)
	}
	body := f.encBuf
	var last error
	for attempt := 0; attempt <= f.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			f.retries.Inc()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(f.cfg.Backoff.Delay(attempt, f.rng)):
			}
		}
		if last = f.post(ctx, body); last == nil {
			f.batches.Inc()
			f.lines.Add(int64(len(batch)))
			return nil
		}
		f.fails.Inc()
		if f.cfg.Logger != nil {
			f.cfg.Logger.Warn("forward attempt failed", "attempt", attempt+1, "err", last)
		}
		if ctx.Err() != nil || errors.Is(last, errRejected) {
			return last
		}
	}
	return last
}

// errRejected marks a gateway answer that resending the same body cannot
// change: a 4xx other than 408 (timeout) and 429 (rate limit). The Intake
// applies a JSONL body line by line before it answers 400 at a bad line,
// so a retry would also apply every line before that one again.
var errRejected = errors.New("ingest: gateway rejected batch")

// post performs one delivery attempt under the per-attempt timeout.
func (f *Forwarder) post(ctx context.Context, body []byte) error {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.cfg.URL, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // body unread beyond status; close error is inert
	switch code := resp.StatusCode; {
	case code >= 400 && code < 500 && code != http.StatusRequestTimeout && code != http.StatusTooManyRequests:
		return fmt.Errorf("%w: %s", errRejected, resp.Status)
	case code >= 300:
		return fmt.Errorf("ingest: gateway returned %s", resp.Status)
	}
	return nil
}

// Close flushes the building batch, stops the sender, and drains every
// queued batch synchronously under ctx (each with the full retry
// policy). A send already in flight is allowed to finish (it is bounded
// by the per-attempt Timeout and retry budget) rather than cancelled —
// cancellation cannot distinguish a delivered batch from a lost one, so
// aborting it risks a duplicate on resend. Only when ctx expires is the
// in-flight send aborted and everything still queued dropped, counted,
// and reported via the returned error. Idempotent.
func (f *Forwarder) Close(ctx context.Context) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.flushLocked()
	f.mu.Unlock()
	stopAbort := make(chan struct{})
	defer close(stopAbort)
	go func() {
		select {
		case <-ctx.Done():
			close(f.abort)
		case <-stopAbort:
		}
	}()
	close(f.done)
	f.wg.Wait()
	for {
		select {
		case batch := <-f.q:
			f.depth.Set(float64(len(f.q)))
			if err := f.send(ctx, batch); err != nil {
				f.drops.Add(int64(len(batch)))
				if ctx.Err() != nil {
					f.dropRemaining()
					return fmt.Errorf("ingest: drain aborted: %w", ctx.Err())
				}
			}
		default:
			return nil
		}
	}
}

// dropRemaining counts everything still queued as dropped.
func (f *Forwarder) dropRemaining() {
	for {
		select {
		case batch := <-f.q:
			f.drops.Add(int64(len(batch)))
		default:
			f.depth.Set(0)
			return
		}
	}
}
