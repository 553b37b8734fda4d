package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"nodesentry/internal/coord"
	"nodesentry/internal/core"
	"nodesentry/internal/dataset"
	"nodesentry/internal/fleetview"
	"nodesentry/internal/ingest"
	"nodesentry/internal/mts"
	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
	"nodesentry/internal/summary"
	"nodesentry/internal/telemetry"
	"nodesentry/internal/testutil"
)

var (
	fixOnce sync.Once
	fixDS   *dataset.Dataset
	fixDet  *core.Detector
	fixErr  error
)

func fastOpts() core.Options {
	o := core.DefaultOptions()
	o.Epochs = 3
	o.MaxWindowsPerCluster = 60
	o.KMax = 4
	o.RepSegments = 3
	return o
}

func fixture(tb testing.TB) (*dataset.Dataset, *core.Detector) {
	tb.Helper()
	fixOnce.Do(func() {
		fixDS = dataset.Build(dataset.Tiny())
		in := core.TrainInput{
			Frames:         fixDS.TrainFrames(),
			Spans:          map[string][]mts.JobSpan{},
			SemanticGroups: telemetry.SemanticIndex(fixDS.Catalog),
		}
		for _, node := range fixDS.Nodes() {
			in.Spans[node] = fixDS.SpansForNode(node, 0, fixDS.SplitTime())
		}
		fixDet, fixErr = core.Train(in, fastOpts())
	})
	if fixErr != nil {
		tb.Fatal(fixErr)
	}
	return fixDS, fixDet
}

// evalLines renders every node's eval split as the JSONL line sequence a
// push client would send: layout, job transitions in span order, samples.
func evalLines(ds *dataset.Dataset) []ingest.Line {
	var out []ingest.Line
	from, to := ds.SplitTime(), ds.Horizon
	for _, node := range ds.Nodes() {
		f := ds.Frames[node]
		view := f.Slice(f.IndexOf(from), f.IndexOf(to))
		out = append(out, ingest.Line{Node: node, Metrics: view.Metrics})
		spans := ds.SpansForNode(node, from, to)
		si := 0
		for t := 0; t < view.Len(); t++ {
			ts := view.Start + int64(t)*view.Step
			for si < len(spans) && spans[si].Start <= ts {
				job := spans[si].Job
				out = append(out, ingest.Line{Node: node, Job: &job, Start: spans[si].Start})
				si++
			}
			vals := make([]ingest.JSONFloat, len(view.Data))
			for m := range vals {
				vals[m] = ingest.JSONFloat(view.Data[m][t])
			}
			out = append(out, ingest.Line{Node: node, Time: ts, Values: vals})
		}
	}
	return out
}

// applyLines drives a Sink directly, bypassing the decoder.
func applyLines(sink ingest.Sink, lines []ingest.Line) {
	for _, l := range lines {
		switch {
		case len(l.Metrics) > 0:
			sink.RegisterNode(l.Node, l.Metrics)
		case l.Job != nil:
			sink.ObserveJob(l.Node, *l.Job, l.Start)
		default:
			vals := make([]float64, len(l.Values))
			for i, v := range l.Values {
				vals[i] = float64(v)
			}
			sink.Ingest(l.Node, l.Time, vals)
		}
	}
}

// pushLines drives the daemon's decoder over the JSONL wire shape.
func pushLines(t *testing.T, d *Daemon, lines []ingest.Line) {
	t.Helper()
	var buf bytes.Buffer
	for _, l := range lines {
		raw, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	if _, err := d.Decoder().PushJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

// alertKey captures everything downstream consumers see of an alert.
func alertKey(a runtime.Alert) string {
	return fmt.Sprintf("%s@%d job=%d score=%.17g prio=%d level=%s epoch=%d",
		a.Node, a.Time, a.Job, a.Score, a.Priority, a.Diagnosis.Level, a.Epoch)
}

func sortedKeys(alerts []runtime.Alert) []string {
	keys := make([]string, len(alerts))
	for i, a := range alerts {
		keys[i] = alertKey(a)
	}
	sort.Strings(keys)
	return keys
}

// TestStandaloneByteIdentity pins the role refactor's core promise: a
// daemon without Config.Coord is the pre-coordinator wiring. The same
// eval stream through the full daemon (decoder → router → monitor) and
// through a bare monitor yields byte-identical alert sets, and none of
// the coordinator seams exist.
func TestStandaloneByteIdentity(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ds, det := fixture(t)
	lines := evalLines(ds)

	// Reference: the bare monitor, fed directly.
	mon, err := runtime.NewMonitor(det, runtime.Config{Step: ds.Step, ScoringWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var bare []runtime.Alert
	bareDone := make(chan struct{})
	go func() {
		defer close(bareDone)
		for a := range mon.Alerts() {
			bare = append(bare, a)
		}
	}()
	applyLines(mon, lines)
	mon.Close()
	<-bareDone
	if len(bare) == 0 {
		t.Fatal("eval split raised no alerts; identity check is vacuous")
	}

	// The full standalone daemon, fed over the JSONL wire shape.
	var mu sync.Mutex
	var got []runtime.Alert
	d, err := New(Config{
		Detector: det, Step: ds.Step, ScoringWorkers: 2, Shards: 4,
		OnAlert: func(a runtime.Alert) {
			mu.Lock()
			got = append(got, a)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.agent != nil || d.ShardFilter() != nil {
		t.Fatal("standalone daemon grew coordinator components")
	}
	pushLines(t, d, lines)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}

	want, have := sortedKeys(bare), sortedKeys(got)
	if len(want) != len(have) {
		t.Fatalf("alert counts differ: bare %d, daemon %d", len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("alert %d differs:\n  bare:   %s\n  daemon: %s", i, want[i], have[i])
		}
	}
}

// TestScorerModeForwardsToCoordinator wires a daemon as a scorer against
// a live coordinator: it registers, applies the assignment to its shard
// filter, and every alert it raises lands in the coordinator's ledger
// exactly once.
func TestScorerModeForwardsToCoordinator(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ds, det := fixture(t)

	c := coord.New(coord.Config{TotalShards: 4})
	defer c.Close()
	srv := httptest.NewServer(obs.Handler(nil, nil, c.Mounts()...))
	defer func() {
		srv.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	var mu sync.Mutex
	var got []runtime.Alert
	d, err := New(Config{
		Detector: det, Step: ds.Step, ScoringWorkers: 2, Shards: 4,
		Coord: &coord.AgentConfig{
			ID:                "scorer-1",
			CoordinatorURL:    srv.URL,
			HeartbeatInterval: 50 * time.Millisecond,
			PullInterval:      -1,
		},
		OnAlert: func(a runtime.Alert) {
			mu.Lock()
			got = append(got, a)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, "scorer registers", func() error {
		if len(c.Scorers()) != 1 {
			return fmt.Errorf("scorers = %d", len(c.Scorers()))
		}
		return nil
	})
	// The sole scorer owns every shard, so the filter passes everything.
	if f := d.ShardFilter(); f == nil || !f.Owns("any-node") {
		t.Fatalf("shard filter not transparent for the sole scorer: %+v", f)
	}

	pushLines(t, d, evalLines(ds))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}

	if len(got) == 0 {
		t.Fatal("scorer raised no alerts")
	}
	led := c.LedgerSnapshot()
	if led.Received != int64(len(got)) {
		t.Fatalf("coordinator received %d alerts, scorer raised %d", led.Received, len(got))
	}
	if led.Fenced != 0 {
		t.Fatalf("sole owner had %d alerts fenced: %+v", led.Fenced, led)
	}
	if led.Received != led.Accepted+led.Fenced+led.Deduped {
		t.Fatalf("ledger does not balance: %+v", led)
	}
	// Close deregistered the scorer gracefully.
	if n := len(c.Scorers()); n != 0 {
		t.Fatalf("scorer still registered after Close: %d", n)
	}
}

// captureHook is an httptest webhook receiver that records every POSTed
// body.
type captureHook struct {
	srv    *httptest.Server
	mu     sync.Mutex
	bodies []string
}

func newCaptureHook() *captureHook {
	h := &captureHook{}
	h.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r.Body)
		h.mu.Lock()
		h.bodies = append(h.bodies, buf.String())
		h.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	return h
}

func (h *captureHook) sorted() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := append([]string(nil), h.bodies...)
	sort.Strings(out)
	return out
}

// TestSummaryOffByteIdentity pins the tier's opt-in contract: a daemon
// WITHOUT Config.Summary delivers exactly the per-alert webhook stream
// the pre-summarization wiring produced — the same eval replay through a
// bare WebhookSink yields byte-identical POST bodies.
func TestSummaryOffByteIdentity(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ds, det := fixture(t)
	lines := evalLines(ds)

	// Reference: the bare monitor's alerts through a bare sink — the
	// per-alert payload stream as it has always been.
	ref := newCaptureHook()
	defer ref.srv.Close()
	mon, err := runtime.NewMonitor(det, runtime.Config{Step: ds.Step, ScoringWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	refSink := &runtime.WebhookSink{URL: ref.srv.URL}
	refDone := make(chan struct{})
	go func() {
		defer close(refDone)
		for a := range mon.Alerts() {
			if err := refSink.Send(a); err != nil {
				t.Errorf("reference send: %v", err)
			}
		}
	}()
	applyLines(mon, lines)
	mon.Close()
	<-refDone

	// The daemon with the summary tier left off.
	hook := newCaptureHook()
	defer hook.srv.Close()
	d, err := New(Config{
		Detector: det, Step: ds.Step, ScoringWorkers: 2, Shards: 4,
		WebhookURL: hook.srv.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Summarizer() != nil {
		t.Fatal("daemon grew a summarizer without Config.Summary")
	}
	pushLines(t, d, lines)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}

	want, got := ref.sorted(), hook.sorted()
	if len(want) == 0 {
		t.Fatal("reference replay delivered no webhooks; identity check is vacuous")
	}
	if len(want) != len(got) {
		t.Fatalf("webhook counts differ: reference %d, daemon %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("webhook body %d differs:\n  reference: %.200s\n  daemon:    %.200s", i, want[i], got[i])
		}
	}
}

// TestSummaryFoldsWebhookStream runs the daemon with the summarization
// tier on: the webhook receives folded incident payloads plus unfolded
// raw alerts, total deliveries equal the summarizer's emission count,
// the accounting identity holds, and the fleetview journal gained the
// incident lane.
func TestSummaryFoldsWebhookStream(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ds, det := fixture(t)

	hook := newCaptureHook()
	defer hook.srv.Close()
	d, err := New(Config{
		Detector: det, Step: ds.Step, ScoringWorkers: 2, Shards: 4,
		WebhookURL: hook.srv.URL,
		Summary: &summary.Config{
			// One giant window: everything pends until Close's final
			// flush, so the whole replay folds in one deterministic batch.
			Window:     time.Hour,
			MinGroup:   3,
			PendingCap: 1 << 16,
		},
		FleetView: &fleetview.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Summarizer() == nil {
		t.Fatal("Config.Summary set but no summarizer")
	}
	pushLines(t, d, evalLines(ds))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}

	st := d.Summarizer().Stats()
	if st.Observed == 0 {
		t.Fatal("replay raised no alerts; folding check is vacuous")
	}
	if st.Folded+st.Raw != st.Observed {
		t.Fatalf("folded %d + raw %d != observed %d", st.Folded, st.Raw, st.Observed)
	}
	if st.Folded == 0 {
		t.Fatalf("nothing folded out of %d alerts (raw %d)", st.Observed, st.Raw)
	}
	if st.Resolved != st.Opened {
		t.Fatalf("%d incidents opened, %d resolved after Close", st.Opened, st.Resolved)
	}
	if n := int64(len(hook.sorted())); n != st.Emissions() {
		t.Fatalf("webhook saw %d deliveries, summarizer emitted %d", n, st.Emissions())
	}
	if st.Emissions() >= st.Observed {
		t.Fatalf("no delivery reduction: %d emissions for %d alerts", st.Emissions(), st.Observed)
	}
	if got := d.FleetView().Journal().Totals()[fleetview.EventIncident]; got == 0 {
		t.Fatal("fleetview journal recorded no incident events")
	}
}
