package coord

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"nodesentry/internal/ingest"
	"nodesentry/internal/lifecycle"
	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
	"nodesentry/internal/testutil"
)

// newTestAgent wires an agent with its own HTTP client so the test can
// flush keep-alive conns via the returned closer (defer it before the
// goroutine check).
func newTestAgent(t *testing.T, cfg AgentConfig, filter *ShardFilter, mon *runtime.Monitor) (*Agent, func()) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	cfg.Client = client
	ag, err := NewAgent(cfg, filter, mon)
	if err != nil {
		t.Fatal(err)
	}
	return ag, client.CloseIdleConnections
}

func TestAgentRegisterHeartbeatReRegister(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	clk := newTestClock()
	c := New(Config{TotalShards: 4, LeaseTTL: 10 * time.Second, Clock: clk.now})
	defer c.Close()
	srv, closeSrv := serveCoordinator(t, c, nil)
	defer closeSrv()

	filter := NewShardFilter(newRecordingSink(), nil)
	ag, closeClient := newTestAgent(t, AgentConfig{
		ID: "scorer-a", CoordinatorURL: srv.URL, PullInterval: -1,
	}, filter, nil)
	defer closeClient()

	if !ag.Register() {
		t.Fatal("register failed")
	}
	if a := ag.Assignment(); a.Epoch != 1 || len(a.Shards) != 4 {
		t.Fatalf("applied assignment = %+v", a)
	}
	// The assignment reached the filter, not just the agent's cache.
	if filter.Epoch() != 1 {
		t.Fatalf("filter epoch = %d, want 1", filter.Epoch())
	}

	// A second scorer joins; the next heartbeat picks up the new table.
	c.Register(ScorerInfo{ID: "scorer-b"})
	if !ag.HeartbeatOnce() {
		t.Fatal("heartbeat failed")
	}
	if a := ag.Assignment(); a.Epoch != 2 || len(a.Shards) != 2 {
		t.Fatalf("post-join assignment = %+v", a)
	}

	// The lease lapses while the agent is partitioned: the coordinator
	// answers 410 and the agent re-registers in the same HeartbeatOnce.
	clk.advance(11 * time.Second)
	c.Heartbeat("scorer-b")
	c.Sweep()
	if got := len(c.Scorers()); got != 1 {
		t.Fatalf("membership after expiry = %d scorers", got)
	}
	if !ag.HeartbeatOnce() {
		t.Fatal("heartbeat after lease loss did not recover")
	}
	if got := len(c.Scorers()); got != 2 {
		t.Fatalf("agent did not re-register: %d scorers", got)
	}
	if a := ag.Assignment(); a.Epoch != c.Epoch() {
		t.Fatalf("re-registered assignment epoch = %d, coordinator at %d", a.Epoch, c.Epoch())
	}
}

// TestAgentRejectsMalformedAssignment answers register and heartbeat with
// 200 and a body that decodes to an unusable assignment — what an empty
// response or a mangling proxy produces. None may reach the ingest path as
// a zero-shard table (FNVShard would divide by zero); the filter keeps
// enforcing the last good assignment and each one counts as a heartbeat
// error.
func TestAgentRejectsMalformedAssignment(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	good := `{"epoch":3,"scorer":"scorer-a","shards":[0,2],"total_shards":4}`
	var body atomic.Value
	body.Store(good)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(body.Load().(string)))
	}))
	defer srv.Close()

	sink := newRecordingSink()
	reg := obs.NewRegistry()
	filter := NewShardFilter(sink, nil)
	ag, closeClient := newTestAgent(t, AgentConfig{
		ID: "scorer-a", CoordinatorURL: srv.URL, PullInterval: -1, Metrics: reg,
	}, filter, nil)
	defer closeClient()
	hbErrors := reg.Counter("nodesentry_agent_heartbeat_errors_total")

	// Before any good assignment a malformed one leaves the filter
	// transparent and the agent unregistered.
	body.Store("")
	if ag.Register() {
		t.Fatal("register accepted an empty assignment")
	}
	filter.Ingest("node-0", 100, []float64{1})
	if sink.samples["node-0"] != 1 || hbErrors.Value() != 1 {
		t.Fatalf("pre-assignment: samples=%d heartbeat_errors=%d", sink.samples["node-0"], hbErrors.Value())
	}

	body.Store(good)
	if !ag.Register() || filter.Epoch() != 3 {
		t.Fatalf("good assignment not applied: filter epoch %d", filter.Epoch())
	}

	for _, tc := range []struct {
		name, body string
		applied    bool
	}{
		{"empty body", "", false},
		{"empty object", "{}", false},
		{"zero total", `{"epoch":9,"shards":[0],"total_shards":0}`, false},
		{"negative total", `{"epoch":9,"shards":[0],"total_shards":-4}`, false},
		// Out-of-range indices are ignored, the rest of the table applies.
		{"shard beyond total", `{"epoch":4,"shards":[0,2,4,-1],"total_shards":4}`, true},
	} {
		before := hbErrors.Value()
		body.Store(tc.body)
		if got := ag.HeartbeatOnce(); got != tc.applied {
			t.Errorf("%s: HeartbeatOnce = %v, want %v", tc.name, got, tc.applied)
		}
		wantEpoch, wantErrs := int64(3), before+1
		if tc.applied {
			wantEpoch, wantErrs = 4, before
		}
		if filter.Epoch() != wantEpoch || ag.Assignment().Epoch != wantEpoch || hbErrors.Value() != wantErrs {
			t.Errorf("%s: filter epoch %d, agent epoch %d, heartbeat_errors %d; want %d, %d, %d",
				tc.name, filter.Epoch(), ag.Assignment().Epoch, hbErrors.Value(), wantEpoch, wantEpoch, wantErrs)
		}
		// Shards 0 and 2 of 4 stay the owned set throughout.
		for i := 0; i < 32; i++ {
			node := fmt.Sprintf("probe-%d", i)
			shard := ingest.FNVShard(node, 4)
			if owned := shard == 0 || shard == 2; filter.Owns(node) != owned {
				t.Errorf("%s: Owns(%s) = %v on shard %d", tc.name, node, !owned, shard)
			}
			filter.Ingest(node, 100, []float64{1}) // must not panic
		}
	}
}

func TestAgentForwardAlertVerdicts(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	c := New(Config{TotalShards: 4})
	defer c.Close()
	srv, closeSrv := serveCoordinator(t, c, nil)
	defer closeSrv()

	filter := NewShardFilter(newRecordingSink(), nil)
	ag, closeClient := newTestAgent(t, AgentConfig{
		ID: "scorer-a", CoordinatorURL: srv.URL, PullInterval: -1,
	}, filter, nil)
	defer closeClient()
	if !ag.Register() {
		t.Fatal("register failed")
	}

	node := nodeOwnedBy(t, c, "scorer-a")
	alert := runtime.Alert{Node: node, Time: 900, Score: 7.5}
	if v, err := ag.ForwardAlert(alert); err != nil || v != VerdictAccepted {
		t.Fatalf("forward = %s, %v", v, err)
	}
	// At-least-once redelivery lands as a duplicate, not a double count.
	if v, err := ag.ForwardAlert(alert); err != nil || v != VerdictDuplicate {
		t.Fatalf("redelivery = %s, %v", v, err)
	}
	led := c.LedgerSnapshot()
	if led.Accepted != 1 || led.Deduped != 1 {
		t.Fatalf("ledger = %+v", led)
	}
	// An unreachable coordinator is an error after retries, not a hang.
	closeSrv()
	if _, err := ag.ForwardAlert(runtime.Alert{Node: node, Time: 901}); err == nil {
		t.Fatal("forward to closed coordinator succeeded")
	}
}

func TestAgentSyncModelHotSwap(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ds, det := fixture(t)
	store, err := lifecycle.OpenStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := store.SaveVersion(det, "published by coordinator")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Activate(v1.ID); err != nil {
		t.Fatal(err)
	}
	c := New(Config{TotalShards: 4, Store: store})
	defer c.Close()
	srv, closeSrv := serveCoordinator(t, c, nil)
	defer closeSrv()

	mon, err := runtime.NewMonitor(det, runtime.Config{Step: ds.Step, ScoringWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	filter := NewShardFilter(mon, nil)
	ag, closeClient := newTestAgent(t, AgentConfig{
		ID: "scorer-a", CoordinatorURL: srv.URL,
	}, filter, mon)
	defer closeClient()

	// The agent starts without a registry identity: the active version is
	// news, so it pulls, checksum-verifies, and hot-swaps.
	if err := ag.SyncModel(); err != nil {
		t.Fatal(err)
	}
	if got := ag.ModelID(); got != v1.ID {
		t.Fatalf("model id after sync = %s, want %s", got, v1.ID)
	}
	if got := mon.Epoch(); got != 2 {
		t.Fatalf("monitor epoch after swap = %d, want 2", got)
	}
	// Re-sync against an unchanged registry is a no-op.
	if err := ag.SyncModel(); err != nil {
		t.Fatal(err)
	}
	if got := mon.Epoch(); got != 2 {
		t.Fatalf("idempotent sync re-swapped: epoch %d", got)
	}

	// A newly activated version swaps again on the next sync.
	v2, err := store.SaveVersion(det, "retrained")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Activate(v2.ID); err != nil {
		t.Fatal(err)
	}
	if err := ag.SyncModel(); err != nil {
		t.Fatal(err)
	}
	if got := ag.ModelID(); got != v2.ID {
		t.Fatalf("model id after second sync = %s, want %s", got, v2.ID)
	}
	if got := mon.Epoch(); got != 3 {
		t.Fatalf("monitor epoch after second swap = %d, want 3", got)
	}
}

func TestAgentRunShutsDownClean(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	c := New(Config{TotalShards: 4})
	defer c.Close()
	srv, closeSrv := serveCoordinator(t, c, nil)
	defer closeSrv()

	filter := NewShardFilter(newRecordingSink(), nil)
	ag, closeClient := newTestAgent(t, AgentConfig{
		ID: "scorer-a", CoordinatorURL: srv.URL,
		HeartbeatInterval: 10 * time.Millisecond, PullInterval: -1,
	}, filter, nil)
	defer closeClient()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ag.Run(ctx)
	}()
	testutil.Eventually(t, "agent registers", func() error {
		if len(c.Scorers()) != 1 {
			return fmt.Errorf("scorers = %d", len(c.Scorers()))
		}
		return nil
	})
	cancel()
	<-done
	// The shutdown path deregistered gracefully.
	if got := len(c.Scorers()); got != 0 {
		t.Fatalf("scorer still registered after Run exit: %d", got)
	}
}
