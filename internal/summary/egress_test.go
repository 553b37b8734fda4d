package summary

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nodesentry/internal/diagnose"
	"nodesentry/internal/runtime"
	"nodesentry/internal/testutil"
)

// bodyHook is a webhook receiver recording every POSTed body in order.
type bodyHook struct {
	srv    *httptest.Server
	mu     sync.Mutex
	bodies []string
}

func newBodyHook() *bodyHook {
	h := &bodyHook{}
	h.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		h.mu.Lock()
		h.bodies = append(h.bodies, string(b))
		h.mu.Unlock()
	}))
	return h
}

func (h *bodyHook) take() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.bodies...)
}

func familyAlert(family string, i int) runtime.Alert {
	return runtime.Alert{
		Node: fmt.Sprintf("cn-%02d", i), Time: 1000 + int64(i), Job: 8812, Score: 4 + float64(i),
		Diagnosis: diagnose.Report{Level: family, Findings: []diagnose.Finding{{Metric: "m", Category: family, Deviation: 2}}},
	}
}

// TestEgressBodySequence drives the egress through each shape of alert
// stream and checks the webhook saw exactly the bodies the contract names,
// in order: one Send body per alert that did not fold, one WebhookJSON
// body per incident open and resolve, nothing for updates — and that their
// count is the summarizer's Emissions().
func TestEgressBodySequence(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()

	// Reference encoding of a raw body: a bare sink's Send.
	ref := newBodyHook()
	defer ref.srv.Close()
	refSink := &runtime.WebhookSink{URL: ref.srv.URL, Client: client}
	rawBody := func(a runtime.Alert) string {
		t.Helper()
		before := len(ref.take())
		if err := refSink.Send(a); err != nil {
			t.Fatal(err)
		}
		return ref.take()[before]
	}

	mem := func(from, n int) []runtime.Alert {
		var out []runtime.Alert
		for i := from; i < from+n; i++ {
			out = append(out, familyAlert("Memory", i))
		}
		return out
	}
	cpu1, net1 := familyAlert("CPU", 40), familyAlert("Network", 41)

	type step struct {
		observe []runtime.Alert
		advance time.Duration // fake-clock step before the flush
	}
	for _, tc := range []struct {
		name    string
		summary bool
		steps   []step
		// want lists the expected bodies: "raw <node>" or
		// "<transition> <incident id>".
		want        []string
		wantUpdates int
	}{
		{
			name:  "summary off delivers every alert raw",
			steps: []step{{observe: append(mem(0, 4), cpu1)}},
			want:  []string{"raw cn-00", "raw cn-01", "raw cn-02", "raw cn-03", "raw cn-40"},
		},
		{
			name:    "raw only: no group reaches MinGroup",
			summary: true,
			steps:   []step{{observe: []runtime.Alert{cpu1, net1}}, {observe: mem(0, 2)}},
			want:    []string{"raw cn-40", "raw cn-41", "raw cn-00", "raw cn-01"},
		},
		{
			name:    "all folded: open, update, resolve after quiet",
			summary: true,
			steps: []step{
				{observe: mem(0, 5)},
				{observe: mem(5, 2)},
				{advance: time.Minute},
			},
			want:        []string{"open inc-000001", "resolve inc-000001"},
			wantUpdates: 1,
		},
		{
			name:    "mixed: one family folds, stragglers deliver raw",
			summary: true,
			steps: []step{
				{observe: append(append([]runtime.Alert{cpu1}, mem(0, 3)...), net1)},
				{advance: time.Minute},
			},
			want: []string{"raw cn-40", "open inc-000001", "raw cn-41", "resolve inc-000001"},
		},
		{
			name:    "close with an open incident resolves it, tail included",
			summary: true,
			steps: []step{
				{observe: mem(0, 3)},
				{observe: []runtime.Alert{familyAlert("Memory", 9), cpu1}, advance: -1}, // left pending for Close
			},
			want:        []string{"open inc-000001", "raw cn-40", "resolve inc-000001"},
			wantUpdates: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hook := newBodyHook()
			defer hook.srv.Close()
			now := time.Unix(1010, 0)
			var journaled []string
			incidentBody := map[string]string{}
			cfg := EgressConfig[runtime.Alert]{
				Sink:    &runtime.WebhookSink{URL: hook.srv.URL, Client: client},
				Event:   FromAlert,
				SendRaw: (*runtime.WebhookSink).Send,
				Journal: func(inc Incident, tr Transition) {
					key := string(tr) + " " + inc.ID
					journaled = append(journaled, key)
					body, err := WebhookJSON(inc, tr)
					if err != nil {
						t.Error(err)
					}
					incidentBody[key] = string(body)
				},
			}
			if tc.summary {
				cfg.Summary = &Config{MinGroup: 3, ResolveAfter: 30 * time.Second, Clock: func() time.Time { return now }}
			}
			g := NewEgress(cfg)
			for _, st := range tc.steps {
				for _, a := range st.observe {
					g.Observe(a)
				}
				if st.advance < 0 {
					continue
				}
				now = now.Add(st.advance)
				g.Flush(now)
			}
			g.Close()

			rawOf := map[string]string{}
			for _, st := range tc.steps {
				for _, a := range st.observe {
					rawOf["raw "+a.Node] = rawBody(a)
				}
			}
			got := hook.take()
			if len(got) != len(tc.want) {
				t.Fatalf("webhook saw %d bodies, want %d (%v):\n%v", len(got), len(tc.want), tc.want, got)
			}
			for i, key := range tc.want {
				want, ok := rawOf[key]
				if !ok {
					want, ok = incidentBody[key]
				}
				if !ok {
					t.Fatalf("body %d: %q never journaled or observed (journal: %v)", i, key, journaled)
				}
				if got[i] != want {
					t.Errorf("body %d (%s):\n got  %s\n want %s", i, key, got[i], want)
				}
			}

			sum := g.Summarizer()
			if !tc.summary {
				if sum != nil || len(journaled) != 0 {
					t.Fatalf("summary off: summarizer %v, journal %v", sum, journaled)
				}
				return
			}
			st := sum.Stats()
			if st.Emissions() != st.Opened+st.Resolved+st.Raw || st.Emissions() != int64(len(got)) {
				t.Errorf("emissions %d, opened+resolved+raw %d, bodies %d",
					st.Emissions(), st.Opened+st.Resolved+st.Raw, len(got))
			}
			if st.Observed != st.Folded+st.Raw || st.Opened != st.Resolved {
				t.Errorf("accounting after Close: %+v", st)
			}
			// Updates reach the journal, never the webhook.
			if int(st.Updated) != tc.wantUpdates || len(journaled) != int(st.Opened+st.Updated+st.Resolved) {
				t.Errorf("updates %d (want %d), journal %v", st.Updated, tc.wantUpdates, journaled)
			}
		})
	}
}
