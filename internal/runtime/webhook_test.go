package runtime

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nodesentry/internal/diagnose"
	"nodesentry/internal/ingest"
	"nodesentry/internal/obs"
)

// constantBackoff keeps the retry tests fast: 1 ms between every attempt.
var constantBackoff = ingest.Backoff{Base: time.Millisecond, Max: time.Millisecond, Factor: 1}

func sampleAlert() Alert {
	return Alert{
		Node: "cn-1", Time: 12345, Job: 7, Score: 42.5, Priority: Critical,
		Diagnosis: diagnose.Report{
			Node: "cn-1", Level: "Memory", Remediation: "checkpoint and restart",
			Findings: []diagnose.Finding{{Metric: "mem_used", Category: "Memory", Deviation: 4.2, Direction: 1}},
		},
	}
}

func TestWebhookSinkSend(t *testing.T) {
	var mu sync.Mutex
	var got []webhookPayload
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var p webhookPayload
		if err := json.Unmarshal(body, &p); err != nil {
			t.Errorf("bad payload: %v", err)
		}
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	}))
	defer srv.Close()

	sink := &WebhookSink{URL: srv.URL}
	if err := sink.Send(sampleAlert()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("server received %d payloads", len(got))
	}
	p := got[0]
	if p.Node != "cn-1" || p.Priority != "critical" || p.Level != "Memory" {
		t.Errorf("payload %+v", p)
	}
	if len(p.TopMetrics) != 1 || p.TopMetrics[0].Metric != "mem_used" {
		t.Errorf("metrics %+v", p.TopMetrics)
	}
}

func TestWebhookSinkErrorPath(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadGateway)
	}))
	defer srv.Close()
	sink := &WebhookSink{URL: srv.URL}
	if err := sink.Send(sampleAlert()); err == nil {
		t.Fatal("non-2xx accepted")
	}
	// Unreachable endpoint.
	sink2 := &WebhookSink{URL: "http://127.0.0.1:1/nope"}
	if err := sink2.Send(sampleAlert()); err == nil {
		t.Error("unreachable endpoint accepted")
	}
}

// TestWebhookCounters asserts the delivery accounting satellite: attempts,
// failures, retries, and deliveries all land in the registry.
func TestWebhookCounters(t *testing.T) {
	var mu sync.Mutex
	failures := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if failures > 0 {
			failures--
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	sink := &WebhookSink{URL: srv.URL, MaxRetries: 3, Backoff: constantBackoff, Metrics: reg}
	if err := sink.Send(sampleAlert()); err != nil {
		t.Fatalf("send with retries: %v", err)
	}
	check := func(name string, want int64) {
		t.Helper()
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	check("nodesentry_webhook_attempts_total", 3)  // 1 initial + 2 retries
	check("nodesentry_webhook_failures_total", 2)  // the two 503s
	check("nodesentry_webhook_retries_total", 2)   // re-attempts after them
	check("nodesentry_webhook_delivered_total", 1) // the final success
}

// TestWebhookFailureCounters covers the give-up path: every attempt fails,
// the send errors, and nothing counts as delivered.
func TestWebhookFailureCounters(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadGateway)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	sink := &WebhookSink{URL: srv.URL, MaxRetries: 1, Backoff: constantBackoff, Metrics: reg}
	if err := sink.Send(sampleAlert()); err == nil {
		t.Fatal("send must fail when every attempt fails")
	}
	if got := reg.Counter("nodesentry_webhook_attempts_total").Value(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
	if got := reg.Counter("nodesentry_webhook_failures_total").Value(); got != 2 {
		t.Errorf("failures = %d, want 2", got)
	}
	if got := reg.Counter("nodesentry_webhook_retries_total").Value(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if got := reg.Counter("nodesentry_webhook_delivered_total").Value(); got != 0 {
		t.Errorf("delivered = %d, want 0", got)
	}
}
