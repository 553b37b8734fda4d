package chaos_test

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"nodesentry/internal/chaos"
	"nodesentry/internal/telemetry"
)

// TestTransportScript pins the per-request schedule: synthesized faults
// never reach the origin, body mutations always unparse, and the ledger
// records exactly what was injected.
func TestTransportScript(t *testing.T) {
	var arrived atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Add(1)
		_, _ = io.WriteString(w, "cpu{node=\"a\"} 0.5 60000\nmem{node=\"a\"} 0.25 60000\n")
	}))
	defer origin.Close()

	counts := chaos.NewCounts()
	client := &http.Client{Transport: &chaos.Transport{
		Script: []chaos.FaultKind{
			chaos.Pass, chaos.Scrape5xx, chaos.ScrapeDrop, chaos.ScrapeGarble, chaos.ScrapeTruncate,
		},
		Counts: counts,
	}}
	defer client.CloseIdleConnections()

	type want struct {
		status  int // 0 = transport error
		parses  bool
		arrives bool
	}
	wants := []want{
		{status: 200, parses: true, arrives: true},
		{status: 503, parses: false, arrives: false},
		{status: 0, parses: false, arrives: false},
		{status: 200, parses: false, arrives: true},
		{status: 200, parses: false, arrives: true},
	}
	arrivedBefore := int64(0)
	for i, w := range wants {
		resp, err := client.Get(origin.URL)
		if w.status == 0 {
			if err == nil {
				t.Fatalf("request %d: want transport error, got status %d", i, resp.StatusCode)
			}
			continue
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != w.status {
			t.Errorf("request %d: status %d, want %d", i, resp.StatusCode, w.status)
		}
		if w.status == 200 {
			_, perr := telemetry.ParseSeries(string(body))
			if (perr == nil) != w.parses {
				t.Errorf("request %d: parse err %v, want parseable=%v", i, perr, w.parses)
			}
		}
		if got := arrived.Load(); w.arrives && got == arrivedBefore {
			t.Errorf("request %d: never reached origin", i)
		} else if !w.arrives && got != arrivedBefore {
			t.Errorf("request %d: synthesized fault reached origin", i)
		}
		arrivedBefore = arrived.Load()
	}
	for _, kind := range []chaos.FaultKind{
		chaos.Scrape5xx, chaos.ScrapeDrop, chaos.ScrapeGarble, chaos.ScrapeTruncate,
	} {
		if counts.Get(kind) != 1 {
			t.Errorf("ledger %s = %d, want 1", kind, counts.Get(kind))
		}
	}
	if counts.Kinds() != 4 {
		t.Errorf("ledger kinds = %d, want 4", counts.Kinds())
	}
}

// TestListenerAcceptDrop pins the accept-side fault: scripted
// connections die before any bytes flow, the server never sees them,
// and later connections pass untouched.
func TestListenerAcceptDrop(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counts := chaos.NewCounts()
	ln := &chaos.Listener{
		Listener: raw,
		Script:   []chaos.FaultKind{chaos.AcceptDrop, chaos.Pass, chaos.AcceptDrop},
		Counts:   counts,
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close(); <-done }()

	url := "http://" + raw.Addr().String() + "/"
	oks, fails := 0, 0
	for i := 0; i < 4; i++ {
		// One client per attempt: a dropped connection must not poison a
		// pooled one.
		c := &http.Client{}
		resp, err := c.Get(url)
		if err != nil {
			fails++
		} else {
			_ = resp.Body.Close()
			oks++
		}
		c.CloseIdleConnections()
	}
	if fails != 2 || oks != 2 {
		t.Errorf("got %d failures / %d successes, want 2/2", fails, oks)
	}
	if counts.Get(chaos.AcceptDrop) != 2 {
		t.Errorf("ledger accept_drop = %d, want 2", counts.Get(chaos.AcceptDrop))
	}
}

// TestTransportHold pins Hold's contract: it returns only once the request
// already in flight has closed its body, it parks a request that arrives
// until release, and a parked request near its deadline goes through
// rather than fail.
func TestTransportHold(t *testing.T) {
	var arrived atomic.Int64
	first := make(chan struct{})
	unblock := make(chan struct{})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if arrived.Add(1) == 1 {
			close(first)
			<-unblock
		}
		_, _ = io.WriteString(w, "ok\n")
	}))
	defer origin.Close()
	tr := &chaos.Transport{Counts: chaos.NewCounts()}
	client := &http.Client{Transport: tr}
	defer client.CloseIdleConnections()
	get := func(ctx context.Context, done chan<- error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, origin.URL, nil)
		if err != nil {
			done <- err
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			done <- err
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		done <- resp.Body.Close()
	}

	inFlight := make(chan error, 1)
	go get(context.Background(), inFlight)
	<-first
	held := make(chan func(), 1)
	go func() { held <- tr.Hold() }()
	select {
	case <-held:
		t.Fatal("Hold returned while a request was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(unblock)
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	release := <-held

	parked := make(chan error, 1)
	go get(context.Background(), parked)
	select {
	case err := <-parked:
		t.Fatalf("request finished during the hold (err %v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	if n := arrived.Load(); n != 1 {
		t.Fatalf("origin saw %d requests during the hold, want 1", n)
	}
	release()
	if err := <-parked; err != nil {
		t.Fatalf("parked request after release: %v", err)
	}

	release = tr.Hold()
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 1200*time.Millisecond)
	defer cancel()
	near := make(chan error, 1)
	go get(ctx, near)
	if err := <-near; err != nil {
		t.Fatalf("request near its deadline was not let through: %v", err)
	}
	if n := arrived.Load(); n != 3 {
		t.Fatalf("origin saw %d requests, want 3", n)
	}
}
