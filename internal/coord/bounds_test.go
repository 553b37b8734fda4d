package coord

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nodesentry/internal/ingest"
	"nodesentry/internal/lifecycle"
	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
	"nodesentry/internal/testutil"
)

// TestFanInBoundsScorerBody: a scorer whose /metrics body is one byte past
// ingest.DefaultMaxBodyBytes fails that fetch alone — one fan-in error —
// and the member keeps its last good series. The oversized body is valid
// exposition, so only the bound can turn it away.
func TestFanInBoundsScorerBody(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	clk := newTestClock()
	reg := obs.NewRegistry()
	c := New(Config{TotalShards: 4, Clock: clk.now, Metrics: reg, LeaseTTL: time.Hour})
	defer c.Close()
	s := newFakeScorer(t, "scorer-a", []string{"n1"})
	defer s.srv.Close()
	c.Register(ScorerInfo{ID: "scorer-a", ObsURL: s.srv.URL})
	c.Sweep()
	before := c.MergedMetricsText()
	if !strings.Contains(before, "nodesentry_alerts_total 3") {
		t.Fatalf("first sweep did not cache the scorer's series:\n%s", before)
	}

	head := "nodesentry_alerts_total 999\n# "
	s.metrics = head + strings.Repeat("x", ingest.DefaultMaxBodyBytes+1-len(head))
	snap := testutil.SnapshotCounters(map[string]*obs.Counter{
		"errs": reg.Counter("nodesentry_coord_fanin_errors_total"),
	})
	c.Sweep()
	snap.ExpectDelta(t, "errs", 1)
	if after := c.MergedMetricsText(); after != before {
		t.Fatalf("oversized body replaced the cached series:\nbefore:\n%s\nafter:\n%.300s", before, after)
	}
}

// countingReader counts the bytes drawn from r.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestAgentSyncModelBoundsPayload: a registry whose payload streams past
// the manifest's Version.Bytes fails SyncModel after the agent has drawn
// at most Bytes+1 bytes, and the monitor keeps its detector.
func TestAgentSyncModelBoundsPayload(t *testing.T) {
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
	payload, _, err := store.ReadPayload(v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{TotalShards: 4, Store: store})
	defer c.Close()
	// The genuine payload, then a megabyte the manifest never promised.
	stream := &countingReader{r: io.MultiReader(bytes.NewReader(payload), bytes.NewReader(make([]byte, 1<<20)))}

	mon, err := runtime.NewMonitor(det, runtime.Config{Step: ds.Step})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	// The registry is served in-process: the manifest from the
	// coordinator's real handler, the payload from stream, which counts on
	// the serving side the bytes the agent draws.
	registry := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if strings.HasPrefix(r.URL.Path, "/registry/model/") {
			return okResponse(r, stream), nil
		}
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, r)
		return rec.Result(), nil
	})
	ag, err := NewAgent(AgentConfig{
		ID: "scorer-a", CoordinatorURL: "http://coordinator.test", Client: &http.Client{Transport: registry},
	}, NewShardFilter(newRecordingSink(), nil), mon)
	if err != nil {
		t.Fatal(err)
	}

	if err := ag.SyncModel(); err == nil {
		t.Fatal("SyncModel accepted a payload longer than the manifest's Bytes")
	}
	if got, limit := stream.n.Load(), v1.Bytes+1; got > limit {
		t.Fatalf("agent drew %d payload bytes, want at most Bytes+1 = %d", got, limit)
	}
	if got := mon.Epoch(); got != 1 {
		t.Fatalf("monitor epoch = %d after a refused pull, want 1 (no swap)", got)
	}
	if got := ag.ModelID(); got != "" {
		t.Fatalf("agent model id = %q after a refused pull", got)
	}
}
