package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"nodesentry/internal/ingest"
	"nodesentry/internal/obs"
)

// WebhookSink forwards alerts to an HTTP endpoint as JSON — the "triggers
// prioritized alerts to operators" edge of the Fig. 7 workflow, compatible
// with Alertmanager-style receivers.
type WebhookSink struct {
	// URL receives POSTed alerts.
	URL string
	// Client defaults to a 5-second-timeout client.
	Client *http.Client
	// MaxRetries re-attempts a failed delivery up to this many extra
	// times before giving up (0 keeps the historical fire-once behavior).
	// The sink never blocks detection: Send runs on the alert consumer's
	// goroutine, off the scoring path.
	MaxRetries int
	// Backoff is the delay policy between attempts, shared with
	// ingest.Forwarder (zero value: 100 ms doubling up to 5 s).
	Backoff ingest.Backoff
	// Metrics, when non-nil, counts delivery activity:
	//
	//	nodesentry_webhook_attempts_total    every POST attempted
	//	nodesentry_webhook_delivered_total   alerts accepted by the receiver
	//	nodesentry_webhook_failures_total    attempts that errored or got non-2xx
	//	nodesentry_webhook_retries_total     re-attempts after a failure
	Metrics *obs.Registry

	once      sync.Once
	attempts  *obs.Counter
	delivered *obs.Counter
	failures  *obs.Counter
	retries   *obs.Counter
}

// instrument resolves the counter handles once; all are nil no-ops when
// Metrics is nil.
func (s *WebhookSink) instrument() {
	s.once.Do(func() {
		s.attempts = s.Metrics.Counter("nodesentry_webhook_attempts_total")
		s.delivered = s.Metrics.Counter("nodesentry_webhook_delivered_total")
		s.failures = s.Metrics.Counter("nodesentry_webhook_failures_total")
		s.retries = s.Metrics.Counter("nodesentry_webhook_retries_total")
	})
}

// webhookPayload is the wire format.
type webhookPayload struct {
	Node        string  `json:"node"`
	Time        int64   `json:"time"`
	Job         int64   `json:"job"`
	Score       float64 `json:"score"`
	Priority    string  `json:"priority"`
	Level       string  `json:"level"`
	Remediation string  `json:"remediation"`
	TopMetrics  []struct {
		Metric    string  `json:"metric"`
		Category  string  `json:"category"`
		Deviation float64 `json:"deviation"`
	} `json:"top_metrics"`
}

// Send delivers one alert, retrying up to MaxRetries times; the last
// attempt's error is returned.
func (s *WebhookSink) Send(a Alert) error {
	p := webhookPayload{
		Node:        a.Node,
		Time:        a.Time,
		Job:         a.Job,
		Score:       a.Score,
		Priority:    a.Priority.String(),
		Level:       a.Diagnosis.Level,
		Remediation: a.Diagnosis.Remediation,
	}
	for _, f := range a.Diagnosis.Findings {
		p.TopMetrics = append(p.TopMetrics, struct {
			Metric    string  `json:"metric"`
			Category  string  `json:"category"`
			Deviation float64 `json:"deviation"`
		}{f.Metric, f.Category, f.Deviation})
	}
	body, err := json.Marshal(p)
	if err != nil {
		s.instrument()
		s.failures.Inc()
		return err
	}
	return s.SendRaw(body)
}

// SendRaw delivers a pre-marshaled JSON body through the same retrying
// path (and the same nodesentry_webhook_* counters) as Send — the seam
// the summarization tier posts folded incident payloads through without
// the sink knowing their shape.
func (s *WebhookSink) SendRaw(body []byte) error {
	s.instrument()
	client := s.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	var last error
	for attempt := 0; attempt <= s.MaxRetries; attempt++ {
		if attempt > 0 {
			s.retries.Inc()
			time.Sleep(s.Backoff.Delay(attempt, nil))
		}
		s.attempts.Inc()
		if last = s.post(client, body); last == nil {
			s.delivered.Inc()
			return nil
		}
		s.failures.Inc()
	}
	return last
}

// post performs one delivery attempt.
func (s *WebhookSink) post(client *http.Client, body []byte) error {
	resp, err := client.Post(s.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // body already consumed; close error is inert
	if resp.StatusCode >= 300 {
		return fmt.Errorf("runtime: webhook returned %s", resp.Status)
	}
	return nil
}

// String is the priority's name on the wire: "critical" or "warning".
func (p Priority) String() string {
	if p == Critical {
		return "critical"
	}
	return "warning"
}
