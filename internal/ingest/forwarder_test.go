package ingest

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nodesentry/internal/obs"
)

func TestBackoffDelays(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 500 * time.Millisecond, Factor: 2}
	want := []time.Duration{100, 200, 400, 500, 500}
	for i, w := range want {
		if got := b.Delay(i+1, nil); got != w*time.Millisecond {
			t.Errorf("attempt %d delay = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	// Defaults: 100 ms base, x2, 5 s cap.
	var zero Backoff
	if got := zero.Delay(1, nil); got != 100*time.Millisecond {
		t.Errorf("zero-value first delay = %v", got)
	}
	if got := zero.Delay(20, nil); got != 5*time.Second {
		t.Errorf("zero-value capped delay = %v", got)
	}
	// Jitter stays inside ±fraction and never goes negative.
	rng := rand.New(rand.NewSource(42))
	j := Backoff{Base: 100 * time.Millisecond, Factor: 1, Jitter: 0.5}
	for i := 0; i < 100; i++ {
		d := j.Delay(1, rng)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v escapes [50ms,150ms]", d)
		}
	}
}

// gatewayStub records pushed JSONL bodies and can fail the first N
// requests.
type gatewayStub struct {
	mu       sync.Mutex
	bodies   []string
	failures int
	reqs     atomic.Int64
}

func (g *gatewayStub) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.reqs.Add(1)
		g.mu.Lock()
		defer g.mu.Unlock()
		if g.failures > 0 {
			g.failures--
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		g.bodies = append(g.bodies, string(body))
		w.WriteHeader(http.StatusAccepted)
	})
}

func (g *gatewayStub) lines() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for _, body := range g.bodies {
		for _, ln := range strings.Split(strings.TrimSpace(body), "\n") {
			if ln != "" {
				out = append(out, ln)
			}
		}
	}
	return out
}

func TestForwarderBatchesBySize(t *testing.T) {
	stub := &gatewayStub{}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()
	f := NewForwarder(ForwarderConfig{URL: srv.URL, MaxBatch: 3, MaxAge: time.Hour, Seed: 1})
	f.RegisterNode("n", []string{"cpu"})
	f.ObserveJob("n", 4, 100)
	f.Ingest("n", 160, []float64{0.5}) // completes the 3-line batch
	deadline := time.Now().Add(5 * time.Second)
	for stub.reqs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := f.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	lines := stub.lines()
	if len(lines) != 3 {
		t.Fatalf("gateway saw %d lines, want 3: %v", len(lines), lines)
	}
	if !strings.Contains(lines[0], `"metrics":["cpu"]`) ||
		!strings.Contains(lines[1], `"job":4`) ||
		!strings.Contains(lines[2], `"values":[0.5]`) {
		t.Errorf("wire lines wrong: %v", lines)
	}
}

func TestForwarderFlushesByAge(t *testing.T) {
	stub := &gatewayStub{}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()
	f := NewForwarder(ForwarderConfig{URL: srv.URL, MaxBatch: 1000, MaxAge: 20 * time.Millisecond, Seed: 1})
	f.Ingest("n", 1, []float64{1})
	deadline := time.Now().Add(5 * time.Second)
	for stub.reqs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if stub.reqs.Load() == 0 {
		t.Fatal("age flush never fired")
	}
	if err := f.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(stub.lines()) != 1 {
		t.Fatalf("gateway saw %v", stub.lines())
	}
}

func TestForwarderRetriesThenDelivers(t *testing.T) {
	stub := &gatewayStub{failures: 2}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()
	reg := obs.NewRegistry()
	f := NewForwarder(ForwarderConfig{
		URL: srv.URL, MaxBatch: 1, MaxRetries: 3, Seed: 1,
		Backoff: Backoff{Base: time.Millisecond, Max: time.Millisecond, Factor: 1},
		Metrics: reg,
	})
	f.Ingest("n", 1, []float64{2.5})
	// Wait for delivery before Close: closing mid-retry cancels the
	// in-flight attempt, which would count one extra failure.
	batches := reg.Counter("nodesentry_forward_batches_total")
	deadline := time.Now().Add(10 * time.Second)
	for batches.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := f.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(stub.lines()); got != 1 {
		t.Fatalf("delivered %d lines, want 1", got)
	}
	if v := reg.Counter("nodesentry_forward_retries_total").Value(); v != 2 {
		t.Errorf("retries = %d, want 2", v)
	}
	if v := reg.Counter("nodesentry_forward_failures_total").Value(); v != 2 {
		t.Errorf("failures = %d, want 2", v)
	}
	if v := reg.Counter("nodesentry_forward_batches_total").Value(); v != 1 {
		t.Errorf("batches = %d, want 1", v)
	}
	if v := reg.Counter("nodesentry_forward_dropped_total").Value(); v != 0 {
		t.Errorf("dropped = %d, want 0", v)
	}
}

func TestForwarderDropsWhenQueueFullAndExhausted(t *testing.T) {
	// No server listening: every attempt fails fast.
	reg := obs.NewRegistry()
	f := NewForwarder(ForwarderConfig{
		URL: "http://127.0.0.1:0/push", MaxBatch: 1, QueueSize: 1, MaxRetries: 0, Seed: 1,
		Backoff: Backoff{Base: time.Millisecond, Max: time.Millisecond, Factor: 1},
		Timeout: 50 * time.Millisecond,
		Metrics: reg,
	})
	for i := 0; i < 20; i++ {
		f.Ingest("n", int64(i), []float64{1})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = f.Close(ctx) // unreachable gateway: drain errors are expected
	dropped := reg.Counter("nodesentry_forward_dropped_total").Value()
	delivered := reg.Counter("nodesentry_forward_lines_total").Value()
	if delivered != 0 {
		t.Errorf("delivered %d lines to a dead endpoint", delivered)
	}
	if dropped != 20 {
		t.Errorf("dropped = %d, want all 20", dropped)
	}
	// Appends after Close are dropped, not queued.
	f.Ingest("n", 99, []float64{1})
	if v := reg.Counter("nodesentry_forward_dropped_total").Value(); v != dropped+1 {
		t.Errorf("post-close ingest not counted: %d", v)
	}
}

func TestForwarderCloseIsIdempotent(t *testing.T) {
	f := NewForwarder(ForwarderConfig{URL: "http://127.0.0.1:0/push", Seed: 1})
	if err := f.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// forwardThroughIntake sends what feed appends, as one batch of three
// lines, from a Forwarder to a real Intake, and returns the events that
// reached the gateway's sink and the forwarder's counters.
func forwardThroughIntake(t *testing.T, feed func(f *Forwarder)) ([]string, *obs.Registry) {
	t.Helper()
	sink := &recordSink{}
	srv := httptest.NewServer(NewIntake(testDecoder(sink, nil), IntakeConfig{}).Handler())
	defer srv.Close()
	reg := obs.NewRegistry()
	f := NewForwarder(ForwarderConfig{
		URL: srv.URL + "/push", MaxBatch: 3, MaxAge: time.Hour, MaxRetries: 3, Seed: 1,
		Backoff: Backoff{Base: time.Millisecond, Max: time.Millisecond, Factor: 1},
		Metrics: reg,
	})
	feed(f)
	if err := f.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sink.all(), reg
}

// TestForwarderDoesNotResendRejectedBatch: the Intake applies a JSONL
// body line by line and answers 400 at the first bad line, so resending
// the batch would apply every line before that one again. A rejected
// batch is dropped at once, one failure and every line counted.
func TestForwarderDoesNotResendRejectedBatch(t *testing.T) {
	got, reg := forwardThroughIntake(t, func(f *Forwarder) {
		f.Ingest("n", 60, []float64{1})
		f.Ingest("", 120, []float64{2}) // no node: the gateway answers 400 here
		f.Ingest("n", 180, []float64{3})
	})
	if want := []string{"ing n 60 [1]"}; !slices.Equal(got, want) {
		t.Errorf("gateway applied %q, want %q once", got, want)
	}
	for name, want := range map[string]int64{"failures": 1, "retries": 0, "dropped": 3, "batches": 0} {
		if v := reg.Counter("nodesentry_forward_" + name + "_total").Value(); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
}

// TestForwarderDeliversZeroWidthSample: Ingest with no values is a sample
// of width zero, and its line keeps "values":[] — without it the line has
// no shape, and the gateway rejects the whole batch.
func TestForwarderDeliversZeroWidthSample(t *testing.T) {
	got, reg := forwardThroughIntake(t, func(f *Forwarder) {
		f.Ingest("n", 60, []float64{1})
		f.Ingest("n", 120, nil)
		f.Ingest("n", 180, []float64{3})
	})
	if want := []string{"ing n 60 [1]", "ing n 120 []", "ing n 180 [3]"}; !slices.Equal(got, want) {
		t.Errorf("gateway applied %q, want %q", got, want)
	}
	if v := reg.Counter("nodesentry_forward_dropped_total").Value(); v != 0 {
		t.Errorf("dropped = %d, want 0", v)
	}
}
