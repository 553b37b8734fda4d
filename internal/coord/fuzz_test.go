package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nodesentry/internal/ingest"
)

// FuzzCoordinatorHandler posts one arbitrary body to every control-plane
// endpoint of a coordinator on a fake clock, in lease order. No body may
// panic the coordinator or draw a 5xx, and the alert ledger must balance
// after every call.
func FuzzCoordinatorHandler(f *testing.F) {
	for _, seed := range []string{
		`{"id":"scorer-a"}`,
		`{"id":"scorer-b","push_url":"http://127.0.0.1:9100","obs_url":"http://127.0.0.1:9090"}`,
		`{"id":"ghost"}`,
		`{"scorer":"scorer-a","epoch":1,"node":"node-0","time":900,"score":7.5}`,
		`{"scorer":"scorer-b","epoch":2,"node":"node-1","time":500,"priority":2,"level":"Memory","family":"Memory"}`,
		`{`, ``, `{}`, `null`, `[]`, `{"id":""}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		clk := newTestClock()
		c := New(Config{TotalShards: 4, Clock: clk.now})
		defer c.Close()
		c.Register(ScorerInfo{ID: "scorer-a"})
		h := c.Handler()
		for _, path := range []string{"/coord/register", "/coord/heartbeat", "/coord/alerts", "/coord/alerts", "/coord/leave", "/coord/alerts"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("POST %s answered %d: %s", path, rec.Code, rec.Body)
			}
			if led := c.LedgerSnapshot(); led.Received != led.Accepted+led.Fenced+led.Deduped {
				t.Fatalf("after POST %s the ledger does not balance: %+v", path, led)
			}
			clk.advance(time.Second)
		}
	})
}

// roundTripFunc serves an agent's requests in-process.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// okResponse answers req with 200 and body, as an in-process transport.
func okResponse(req *http.Request, body io.Reader) *http.Response {
	return &http.Response{
		Status: "200 OK", StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Body: io.NopCloser(body), ContentLength: -1, Request: req,
	}
}

// FuzzAgentAssignment answers an agent's heartbeat with arbitrary bytes.
// No answer may panic the agent or its ShardFilter; one the filter takes
// is enforced exactly as it decodes, and one it rejects leaves the
// previous assignment enforced — TestAgentRejectsMalformedAssignment's
// property, for every input.
func FuzzAgentAssignment(f *testing.F) {
	const good = `{"epoch":3,"scorer":"scorer-a","shards":[0,2],"total_shards":4}`
	for _, seed := range []string{
		good, ``, `{}`,
		`{"epoch":9,"shards":[0],"total_shards":0}`,
		`{"epoch":9,"shards":[0],"total_shards":-4}`,
		`{"epoch":4,"shards":[0,2,4,-1],"total_shards":4}`,
		`{"epoch":5,"shards":[1],"total_shards":9999999999}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		reply := []byte(good)
		client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			return okResponse(r, bytes.NewReader(reply)), nil
		})}
		filter := NewShardFilter(newRecordingSink(), nil)
		ag, err := NewAgent(AgentConfig{
			ID: "scorer-a", CoordinatorURL: "http://coordinator.test", PullInterval: -1, Client: client,
		}, filter, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ag.Register() {
			t.Fatal("good assignment not applied")
		}

		reply = body
		applied := ag.HeartbeatOnce()
		want := Assignment{Epoch: 3, Scorer: "scorer-a", Shards: []int{0, 2}, TotalShards: 4}
		if applied {
			var got Assignment
			if err := json.Unmarshal(body, &got); err != nil || got.TotalShards <= 0 {
				t.Fatalf("filter took an assignment it should have rejected: %q", body)
			}
			want = got
		}
		if filter.Epoch() != want.Epoch || ag.Assignment().Epoch != want.Epoch {
			t.Fatalf("applied=%v: filter epoch %d, agent epoch %d, want %d", applied, filter.Epoch(), ag.Assignment().Epoch, want.Epoch)
		}
		for i := 0; i < 32; i++ {
			node := fmt.Sprintf("probe-%d", i)
			if owned := want.Owns(ingest.FNVShard(node, want.TotalShards)); filter.Owns(node) != owned {
				t.Fatalf("applied=%v: Owns(%s) = %v, want %v", applied, node, !owned, owned)
			}
			filter.Ingest(node, 100, []float64{1}) // must not panic
		}
	})
}
