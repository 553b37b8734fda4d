package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nodesentry/internal/ingest"
	"nodesentry/internal/testutil"
)

// nodeOwnedBy fabricates a node name whose FNV shard is owned by want
// under the coordinator's current table.
func nodeOwnedBy(t *testing.T, c *Coordinator, want string) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		node := fmt.Sprintf("node-%d", i)
		if info, ok := c.Owner(node); ok && info.ID == want {
			return node
		}
	}
	t.Fatalf("no probe node maps to %s", want)
	return ""
}

func TestMembershipAssignsDisjointCover(t *testing.T) {
	clk := newTestClock()
	c := New(Config{TotalShards: 8, Clock: clk.now})
	defer c.Close()

	a1 := c.Register(ScorerInfo{ID: "scorer-a"})
	if a1.Epoch != 1 || len(a1.Shards) != 8 {
		t.Fatalf("single scorer assignment = %+v, want epoch 1 owning all 8", a1)
	}
	a2 := c.Register(ScorerInfo{ID: "scorer-b"})
	if a2.Epoch != 2 {
		t.Fatalf("second join epoch = %d, want 2", a2.Epoch)
	}

	// The two assignments are disjoint and cover every shard.
	owned := map[int]string{}
	for _, a := range c.Assignments() {
		for _, s := range a.Shards {
			if prev, dup := owned[s]; dup {
				t.Fatalf("shard %d assigned to both %s and %s", s, prev, a.Scorer)
			}
			owned[s] = a.Scorer
		}
	}
	if len(owned) != 8 {
		t.Fatalf("assignments cover %d/8 shards", len(owned))
	}

	// Heartbeats renew without churning the epoch.
	if a, ok := c.Heartbeat("scorer-a"); !ok || a.Epoch != 2 {
		t.Fatalf("heartbeat = %+v, %v", a, ok)
	}
	// Re-registering an existing scorer (restart) is not a table change.
	if a := c.Register(ScorerInfo{ID: "scorer-b"}); a.Epoch != 2 {
		t.Fatalf("re-register bumped epoch to %d", a.Epoch)
	}
	// Unknown heartbeats demand re-registration.
	if _, ok := c.Heartbeat("scorer-zombie"); ok {
		t.Fatal("heartbeat for unknown scorer succeeded")
	}

	// Graceful leave: the survivor owns everything, epoch bumps once.
	c.Leave("scorer-b")
	if got := c.Epoch(); got != 3 {
		t.Fatalf("epoch after leave = %d, want 3", got)
	}
	a, ok := c.Heartbeat("scorer-a")
	if !ok || len(a.Shards) != 8 {
		t.Fatalf("survivor assignment = %+v", a)
	}
}

func TestLeaseExpiryReassigns(t *testing.T) {
	clk := newTestClock()
	c := New(Config{TotalShards: 4, LeaseTTL: 10 * time.Second, Clock: clk.now})
	defer c.Close()
	c.Register(ScorerInfo{ID: "scorer-a"})
	c.Register(ScorerInfo{ID: "scorer-b"})
	epoch := c.Epoch()

	// scorer-a keeps heartbeating; scorer-b goes dark. Sweeps inside the
	// TTL change nothing.
	clk.advance(6 * time.Second)
	c.Heartbeat("scorer-a")
	c.Sweep()
	if got := c.Epoch(); got != epoch {
		t.Fatalf("sweep inside TTL bumped epoch %d → %d", epoch, got)
	}
	// Past the TTL, b's lease lapses: its shards move to a, epoch bumps.
	clk.advance(6 * time.Second)
	c.Heartbeat("scorer-a")
	c.Sweep()
	if got := c.Epoch(); got != epoch+1 {
		t.Fatalf("epoch after expiry = %d, want %d", got, epoch+1)
	}
	if scorers := c.Scorers(); len(scorers) != 1 || scorers[0].ID != "scorer-a" {
		t.Fatalf("membership after expiry = %+v", scorers)
	}
	if a, _ := c.Heartbeat("scorer-a"); len(a.Shards) != 4 {
		t.Fatalf("survivor owns %d/4 shards", len(a.Shards))
	}
	// The expired scorer's next heartbeat is refused — it must re-register
	// and will then get fresh shards under the new epoch.
	if _, ok := c.Heartbeat("scorer-b"); ok {
		t.Fatal("expired scorer's heartbeat still honored")
	}
}

// TestEpochFencing pins the fence semantics the zero-lost/zero-duplicate
// contract rests on:
//
//   - a scorer that lost a shard is fenced on the ownership check;
//   - a scorer that re-gained a shard but stamps a pre-loss epoch is
//     fenced on the acquisition (`since`) check;
//   - a scorer that held its shard continuously across an unrelated epoch
//     bump is NOT fenced just because its heartbeat lags the bump;
//   - redelivery of an accepted alert is a duplicate, not a double count.
func TestEpochFencing(t *testing.T) {
	clk := newTestClock()
	c := New(Config{TotalShards: 8, Clock: clk.now})
	defer c.Close()
	aAsn := c.Register(ScorerInfo{ID: "scorer-a"})
	c.Register(ScorerInfo{ID: "scorer-b"})
	epoch2 := c.Epoch()

	nodeA := nodeOwnedBy(t, c, "scorer-a") // owned by a since epoch 1 or 2
	nodeB := nodeOwnedBy(t, c, "scorer-b")

	// Baseline: both owners land alerts under the current epoch.
	if v := c.Accept(AlertEnvelope{Scorer: "scorer-a", Epoch: epoch2, Node: nodeA, Time: 100}); v.Status != VerdictAccepted {
		t.Fatalf("owner alert = %s", v.Status)
	}
	if v := c.Accept(AlertEnvelope{Scorer: "scorer-b", Epoch: epoch2, Node: nodeB, Time: 100}); v.Status != VerdictAccepted {
		t.Fatalf("owner alert = %s", v.Status)
	}
	// Wrong owner, current epoch: fenced (split-brain claim on a shard).
	if v := c.Accept(AlertEnvelope{Scorer: "scorer-b", Epoch: epoch2, Node: nodeA, Time: 101}); v.Status != VerdictFenced {
		t.Fatalf("non-owner alert = %s, want fenced", v.Status)
	}

	// b dies; its shards move to a at epoch 3.
	c.Leave("scorer-b")
	epoch3 := c.Epoch()
	if epoch3 != epoch2+1 {
		t.Fatalf("epoch after leave = %d", epoch3)
	}
	// A stale scorer-b keeps sending for its old node: fenced (ownership).
	if v := c.Accept(AlertEnvelope{Scorer: "scorer-b", Epoch: epoch2, Node: nodeB, Time: 102}); v.Status != VerdictFenced {
		t.Fatalf("stale scorer alert = %s, want fenced", v.Status)
	}
	// scorer-a re-scores the handed-over node but stamps its pre-handover
	// epoch: fenced (acquisition check) until its heartbeat catches up.
	if v := c.Accept(AlertEnvelope{Scorer: "scorer-a", Epoch: epoch2, Node: nodeB, Time: 103}); v.Status != VerdictFenced {
		t.Fatalf("pre-acquisition epoch alert = %s, want fenced", v.Status)
	}
	if v := c.Accept(AlertEnvelope{Scorer: "scorer-a", Epoch: epoch3, Node: nodeB, Time: 103}); v.Status != VerdictAccepted {
		t.Fatalf("post-acquisition alert = %s, want accepted", v.Status)
	}
	// Continuous ownership: a has held nodeA's shard since before the
	// bump, so an alert stamped with the older epoch still lands.
	if v := c.Accept(AlertEnvelope{Scorer: "scorer-a", Epoch: aAsn.Epoch, Node: nodeA, Time: 104}); v.Status != VerdictAccepted {
		t.Fatalf("continuous-owner lagging-epoch alert = %s, want accepted", v.Status)
	}
	// Redelivery of an accepted alert: duplicate, never double-counted.
	if v := c.Accept(AlertEnvelope{Scorer: "scorer-a", Epoch: epoch3, Node: nodeB, Time: 103}); v.Status != VerdictDuplicate {
		t.Fatalf("redelivery = %s, want duplicate", v.Status)
	}

	// The ledger partitions exactly: every received alert in one bucket.
	led := c.LedgerSnapshot()
	if led.Received != led.Accepted+led.Fenced+led.Deduped {
		t.Fatalf("ledger does not balance: %+v", led)
	}
	if led.Accepted != 4 || led.Fenced != 3 || led.Deduped != 1 {
		t.Fatalf("ledger = %+v, want 4 accepted / 3 fenced / 1 duplicate", led)
	}
	if got := len(c.Accepted()); got != 4 {
		t.Fatalf("accepted ledger holds %d entries, want 4", got)
	}
}

// TestWebhookWithoutSummaryDeliversAcceptedEnvelopes covers the egress
// with Summary off: the webhook receives exactly one envelope body per
// accepted alert, in acceptance order, and nothing for a fenced or
// duplicate one.
func TestWebhookWithoutSummaryDeliversAcceptedEnvelopes(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var mu sync.Mutex
	var bodies [][]byte
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, b)
		mu.Unlock()
	}))
	defer hook.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()

	c := New(Config{TotalShards: 8, WebhookURL: hook.URL, WebhookClient: client})
	defer c.Close()
	if c.egress.Summarizer() != nil {
		t.Fatal("coordinator grew a summarizer without Config.Summary")
	}
	c.Register(ScorerInfo{ID: "scorer-a"})
	c.Register(ScorerInfo{ID: "scorer-b"})
	epoch := c.Epoch()
	nodeA, nodeB := nodeOwnedBy(t, c, "scorer-a"), nodeOwnedBy(t, c, "scorer-b")

	var accepted []AlertEnvelope
	for _, tc := range []struct {
		env  AlertEnvelope
		want string
	}{
		{AlertEnvelope{Scorer: "scorer-a", Epoch: epoch, Node: nodeA, Time: 100, Score: 3.5, Level: "Memory"}, VerdictAccepted},
		{AlertEnvelope{Scorer: "scorer-b", Epoch: epoch, Node: nodeA, Time: 101}, VerdictFenced},
		{AlertEnvelope{Scorer: "scorer-a", Epoch: epoch, Node: nodeA, Time: 100, Score: 3.5, Level: "Memory"}, VerdictDuplicate},
		{AlertEnvelope{Scorer: "scorer-b", Epoch: epoch, Node: nodeB, Time: 102, Job: 7, Priority: 1}, VerdictAccepted},
	} {
		if v := c.Accept(tc.env); v.Status != tc.want {
			t.Fatalf("envelope %+v: verdict %s, want %s", tc.env, v.Status, tc.want)
		}
		if tc.want == VerdictAccepted {
			accepted = append(accepted, tc.env)
		}
	}
	c.Sweep() // with nothing to fold, a sweep delivers nothing more

	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != len(accepted) {
		t.Fatalf("webhook saw %d bodies for %d accepted alerts", len(bodies), len(accepted))
	}
	for i, env := range accepted {
		want, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if string(bodies[i]) != string(want) {
			t.Errorf("body %d = %s, want %s", i, bodies[i], want)
		}
	}
}

func TestOwnerMatchesShardRouterLines(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	clk := newTestClock()
	c := New(Config{TotalShards: 8, Clock: clk.now})
	defer c.Close()
	c.Register(ScorerInfo{ID: "scorer-a"})
	c.Register(ScorerInfo{ID: "scorer-b"})
	asn := map[string]Assignment{}
	for _, a := range c.Assignments() {
		asn[a.Scorer] = a
	}
	// The coordinator's answer for every probe node agrees with the FNV
	// partition line the in-process ShardRouter would use.
	for i := 0; i < 64; i++ {
		node := fmt.Sprintf("c%02dn%02d", i%4, i)
		shard := ingest.FNVShard(node, 8)
		info, ok := c.Owner(node)
		if !ok {
			t.Fatalf("no owner for %s", node)
		}
		if !asn[info.ID].Owns(shard) {
			t.Fatalf("owner %s of %s does not own shard %d in its own assignment", info.ID, node, shard)
		}
	}
}

func TestCoordinatorRunShutsDownClean(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	c := New(Config{TotalShards: 4, SweepInterval: 10 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(ctx)
	}()
	c.Register(ScorerInfo{ID: "scorer-a"})
	time.Sleep(30 * time.Millisecond) // let a few sweeps fire
	cancel()
	<-done
	c.Close() // idempotent with the context cancel path
}
