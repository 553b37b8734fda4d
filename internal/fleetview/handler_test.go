package fleetview

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
	"nodesentry/internal/testutil"
)

// serveFixture builds a fed monitor + aggregator behind an obs.Handler
// test server — the same wiring sentryd uses.
func serveFixture(t *testing.T, reg *obs.Registry) (*runtime.Monitor, *Aggregator, *httptest.Server) {
	t.Helper()
	ds, det := fixture(t)
	mon, err := runtime.NewMonitor(det, runtime.Config{Step: ds.Step, AlertBuffer: 4096, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	a := New(mon, Config{VicinityThreshold: 3.5, Metrics: reg})
	src := ds.Nodes()[0]
	from, to, ok := cleanWindow(ds, src, 120)
	if !ok {
		t.Fatalf("no clean window for %s", src)
	}
	feedCohort(mon, ds, src, from, to, []string{"web-0", "web-1", "web-2"}, 9, func(string) float64 { return 1 })
	a.Evaluate()
	srv := httptest.NewServer(obs.Handler(reg, nil, a.Mounts()...))
	t.Cleanup(func() {
		srv.Close()
		a.Close()
		mon.Close()
		for range mon.Alerts() {
		}
	})
	return mon, a, srv
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func TestStateEndpoint(t *testing.T) {
	mon, _, srv := serveFixture(t, obs.NewRegistry())

	code, body := getBody(t, srv.URL+"/fleet/state?spark=4")
	if code != http.StatusOK {
		t.Fatalf("/fleet/state: %d %s", code, body)
	}
	var st FleetState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("unmarshal /fleet/state: %v\n%s", err, body)
	}
	if len(st.Nodes) != 3 {
		t.Fatalf("state has %d nodes, want 3", len(st.Nodes))
	}
	view := mon.SnapshotConsistent()
	if st.Epoch != view.Epoch {
		t.Errorf("state epoch %d, monitor %d", st.Epoch, view.Epoch)
	}
	for _, ns := range st.Nodes {
		if !ns.Ready {
			t.Errorf("node %s not ready after feeding", ns.Node)
		}
		if len(ns.Spark) == 0 || len(ns.Spark) > 4 {
			t.Errorf("node %s spark has %d points, want 1..4", ns.Node, len(ns.Spark))
		}
		if ns.Job != 9 {
			t.Errorf("node %s job %d, want 9", ns.Node, ns.Job)
		}
	}

	if code, _ := getBody(t, srv.URL+"/fleet/state?spark=nope"); code != http.StatusBadRequest {
		t.Errorf("bad spark accepted: %d", code)
	}
	if code, _ := getBody(t, srv.URL+"/fleet/state?spark=-1"); code != http.StatusBadRequest {
		t.Errorf("negative spark accepted: %d", code)
	}
}

// TestStateSparkCapped: a client asking for more inline points than
// sparkPoints gets exactly sparkPoints from a node whose ring holds more.
func TestStateSparkCapped(t *testing.T) {
	_, a, srv := serveFixture(t, obs.NewRegistry())
	for i := 0; i < 2*sparkPoints; i++ {
		a.onScores("web-0", 0, int64(i), []float64{1})
	}

	_, body := getBody(t, srv.URL+"/fleet/state?spark="+strconv.Itoa(10*sparkPoints))
	var st FleetState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("unmarshal /fleet/state: %v\n%s", err, body)
	}
	found := false
	for _, ns := range st.Nodes {
		if len(ns.Spark) > sparkPoints {
			t.Errorf("node %s spark has %d points, cap is %d", ns.Node, len(ns.Spark), sparkPoints)
		}
		if ns.Node == "web-0" {
			found = true
			if len(ns.Spark) != sparkPoints {
				t.Errorf("web-0 spark has %d points, want the cap %d", len(ns.Spark), sparkPoints)
			}
		}
	}
	if !found {
		t.Fatal("web-0 missing from /fleet/state")
	}
}

// TestStateMetricsAgree pins the cross-surface consistency stamp: the
// nodesentry_snapshot_epoch/_seq gauges a /metrics scrape refreshes name
// the same monitor state /fleet/state reports, so the two surfaces can be
// reconciled when the monitor is quiescent.
func TestStateMetricsAgree(t *testing.T) {
	reg := obs.NewRegistry()
	_, _, srv := serveFixture(t, reg)

	// Quiescent monitor: no ingestion between the two reads.
	_, metrics := getBody(t, srv.URL+"/metrics")
	_, body := getBody(t, srv.URL+"/fleet/state?spark=0")
	var st FleetState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}

	parse := func(name string) float64 {
		for _, line := range strings.Split(metrics, "\n") {
			if strings.HasPrefix(line, name+" ") {
				v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
				if err != nil {
					t.Fatalf("parse %s: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("metric %s missing from scrape:\n%s", name, metrics)
		return 0
	}
	if got := parse("nodesentry_snapshot_epoch"); got != float64(st.Epoch) {
		t.Errorf("snapshot epoch gauge %v, state %d", got, st.Epoch)
	}
	if got := parse("nodesentry_snapshot_seq"); got != float64(st.Seq) {
		t.Errorf("snapshot seq gauge %v, state %d", got, st.Seq)
	}
	// The vicinity residual gauges exist per node and signal.
	if !strings.Contains(metrics, `nodesentry_vicinity_residual{node="web-0",signal="score"}`) {
		t.Errorf("vicinity residual gauge missing:\n%s", metrics)
	}
}

func TestNodeEndpoint(t *testing.T) {
	_, _, srv := serveFixture(t, obs.NewRegistry())

	code, body := getBody(t, srv.URL+"/fleet/nodes/web-1")
	if code != http.StatusOK {
		t.Fatalf("/fleet/nodes/web-1: %d %s", code, body)
	}
	var d NodeDetail
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	if d.Node != "web-1" || !d.Ready || len(d.History) == 0 {
		t.Fatalf("detail = %+v", d)
	}

	if code, _ := getBody(t, srv.URL+"/fleet/nodes/no-such-node"); code != http.StatusNotFound {
		t.Errorf("unknown node: %d, want 404", code)
	}
}

func TestEventsJSON(t *testing.T) {
	_, a, srv := serveFixture(t, obs.NewRegistry())
	a.RecordEvent("drift", "", "psi=0.9", 0.9)
	a.RecordEvent("retrain", "", "drift", 0)

	code, body := getBody(t, srv.URL+"/fleet/events")
	if code != http.StatusOK {
		t.Fatalf("/fleet/events: %d", code)
	}
	var events []Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("journal has %d events, want >= 2", len(events))
	}
	cursor := events[len(events)-2].Seq

	code, body = getBody(t, srv.URL+"/fleet/events?since="+strconv.FormatUint(cursor, 10))
	if code != http.StatusOK {
		t.Fatal(code)
	}
	var tail []Event
	if err := json.Unmarshal([]byte(body), &tail); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].Kind != "retrain" {
		t.Fatalf("since=%d returned %+v", cursor, tail)
	}

	if code, _ := getBody(t, srv.URL+"/fleet/events?since=nope"); code != http.StatusBadRequest {
		t.Errorf("bad since accepted: %d", code)
	}
}

func TestDashboardAndAssets(t *testing.T) {
	_, _, srv := serveFixture(t, obs.NewRegistry())

	code, body := getBody(t, srv.URL+"/fleet/")
	if code != http.StatusOK {
		t.Fatalf("/fleet/: %d", code)
	}
	for _, want := range []string{"nodesentry fleet", "data-vicinity-threshold=\"3.5\"", "dashboard.js"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	code, body = getBody(t, srv.URL+"/fleet/assets/dashboard.js")
	if code != http.StatusOK || !strings.Contains(body, "renderHeatmap") {
		t.Fatalf("/fleet/assets/dashboard.js: %d", code)
	}
}

// TestSSEStream drives a live SSE client end to end: journal replay,
// live publishes, seq dedup across the replay/live boundary, and — the
// leak check — a clean unwind on client disconnect with zero goroutines
// left behind.
func TestSSEStream(t *testing.T) {
	_, a, srv := serveFixture(t, obs.NewRegistry())
	// Snapshot after the fixture is up: the httptest accept loop and the
	// monitor live for the whole test (closed in t.Cleanup, after this
	// check), so the baseline must include them. What must NOT outlive
	// the disconnect below is anything the SSE stream itself started.
	checkG := testutil.CheckGoroutines(t)
	a.RecordEvent("drift", "", "replayed", 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/fleet/events?stream=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	testutil.Eventually(t, "SSE client registered", func() error {
		if a.Bus().Clients() != 1 {
			return fmt.Errorf("clients = %d", a.Bus().Clients())
		}
		return nil
	})
	a.RecordEvent("retrain", "", "live", 0)

	// Read frames until both the replayed and the live event arrive.
	type frame struct{ id, event, data string }
	frames := make(chan frame, 16)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		var f frame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				f.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.data = strings.TrimPrefix(line, "data: ")
			case line == "" && f.data != "":
				frames <- f
				f = frame{}
			}
		}
	}()

	var got []frame
	seen := map[string]bool{}
	for f := range frames {
		got = append(got, f)
		if seen[f.id] {
			t.Fatalf("duplicate seq %s across replay/live boundary", f.id)
		}
		seen[f.id] = true
		var e Event
		if err := json.Unmarshal([]byte(f.data), &e); err != nil {
			t.Fatalf("frame data %q: %v", f.data, err)
		}
		if e.Kind != f.event {
			t.Fatalf("frame event %q carries kind %q", f.event, e.Kind)
		}
		if e.Detail == "live" {
			break
		}
	}
	if len(got) < 2 {
		t.Fatalf("received %d frames, want replay + live", len(got))
	}

	// Disconnect: the handler must unwind off the request goroutine and
	// unsubscribe; nothing may leak.
	cancel()
	testutil.Eventually(t, "SSE client unregistered", func() error {
		if n := a.Bus().Clients(); n != 0 {
			return fmt.Errorf("clients = %d", n)
		}
		return nil
	})
	resp.Body.Close()
	srv.CloseClientConnections()
	checkG()
}

// TestSSECloseEndsStreams: Aggregator.Close terminates live streams
// server-side (the daemon shutdown path).
func TestSSECloseEndsStreams(t *testing.T) {
	_, a, srv := serveFixture(t, obs.NewRegistry())

	resp, err := http.Get(srv.URL + "/fleet/events?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	testutil.Eventually(t, "SSE client registered", func() error {
		if a.Bus().Clients() != 1 {
			return fmt.Errorf("clients = %d", a.Bus().Clients())
		}
		return nil
	})

	a.Close()
	// The server handler returns on a.done; the body read then hits EOF.
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatalf("draining closed stream: %v", err)
	}
}
