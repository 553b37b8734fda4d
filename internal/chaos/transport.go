package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// errInjected is what a dropped request surfaces to the HTTP client.
var errInjected = errors.New("chaos: injected connection drop")

// Transport is an http.RoundTripper that applies a scripted fault to
// each request by arrival index: Script[i % len(Script)] governs request
// i, so every cycle through the script injects each listed fault exactly
// once and the total dose is a pure function of the request count.
// Synthesized faults (drops, 5xx) never reach the base transport — an
// origin server behind a Transport sees only the requests that pass.
type Transport struct {
	// Base performs real requests (http.DefaultTransport when nil).
	Base http.RoundTripper
	// Script is the per-request fault schedule (empty = all Pass).
	Script []FaultKind
	// SlowDelay is the WebhookSlow hold time (default 50ms).
	SlowDelay time.Duration
	// Counts receives every injected fault.
	Counts *Counts

	n atomic.Int64

	mu sync.Mutex
	// gate is non-nil while a Hold is in force; its release closes it.
	gate chan struct{}
	// inflight counts requests past the gate whose response body is not
	// yet closed.
	inflight int
}

// Requests returns how many requests have entered the transport,
// including ones answered synthetically.
func (t *Transport) Requests() int64 { return t.n.Load() }

// Hold parks every request that arrives until release is called, and
// returns once the requests already past it have closed their response
// bodies. A parked request goes through anyway when its context is within
// a second of its deadline, so a long hold delays traffic but never fails
// a request the fault ledger does not account for.
func (t *Transport) Hold() (release func()) {
	gate := make(chan struct{})
	t.mu.Lock()
	t.gate = gate
	t.mu.Unlock()
	for {
		t.mu.Lock()
		n := t.inflight
		t.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		t.mu.Lock()
		t.gate = nil
		t.mu.Unlock()
		close(gate)
	}
}

// admit waits out a Hold and counts req in flight.
func (t *Transport) admit(req *http.Request) {
	t.mu.Lock()
	gate := t.gate
	if gate == nil {
		t.inflight++
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	var expire <-chan time.Time
	if deadline, ok := req.Context().Deadline(); ok {
		timer := time.NewTimer(time.Until(deadline) - time.Second)
		defer timer.Stop()
		expire = timer.C
	}
	select {
	case <-gate:
	case <-expire:
	case <-req.Context().Done():
	}
	t.mu.Lock()
	t.inflight++
	t.mu.Unlock()
}

func (t *Transport) finish() {
	t.mu.Lock()
	t.inflight--
	t.mu.Unlock()
}

// finishingBody ends its request's flight when the client closes it.
type finishingBody struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (b *finishingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.finish)
	return err
}

// RoundTrip applies the scheduled fault for this request index.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.admit(req)
	resp, err := t.roundTrip(req)
	if err != nil {
		t.finish()
		return resp, err
	}
	resp.Body = &finishingBody{ReadCloser: resp.Body, finish: t.finish}
	return resp, nil
}

func (t *Transport) roundTrip(req *http.Request) (*http.Response, error) {
	i := t.n.Add(1) - 1
	kind := Pass
	if len(t.Script) > 0 {
		kind = t.Script[i%int64(len(t.Script))]
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	switch kind {
	case ConnDrop, ScrapeDrop:
		t.Counts.Add(kind, 1)
		if req.Body != nil {
			_ = req.Body.Close() // RoundTripper contract: close even on error
		}
		return nil, errInjected
	case Scrape5xx, Webhook5xx:
		t.Counts.Add(kind, 1)
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
			_ = req.Body.Close()
		}
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{},
			Body:    io.NopCloser(bytes.NewReader([]byte("chaos\n"))),
			Request: req,
		}, nil
	case WebhookSlow:
		t.Counts.Add(kind, 1)
		d := t.SlowDelay
		if d <= 0 {
			d = 50 * time.Millisecond
		}
		time.Sleep(d)
		return base.RoundTrip(req)
	case ScrapeGarble, ScrapeTruncate:
		resp, err := base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return nil, err
		}
		t.Counts.Add(kind, 1)
		resp.Body = io.NopCloser(bytes.NewReader(mutilate(kind, body)))
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return resp, nil
	default:
		return base.RoundTrip(req)
	}
}

// mutilate corrupts a scrape body. Both shapes end with a NUL byte on
// its own line — no Prometheus exposition parser accepts that, so an
// injected corruption is guaranteed to surface as exactly one parse
// error rather than silently decoding to fewer samples.
func mutilate(kind FaultKind, body []byte) []byte {
	out := append([]byte(nil), body...)
	if kind == ScrapeTruncate {
		out = out[:len(out)/2]
	} else {
		for i := len(out) / 4; i < len(out)/2; i++ {
			out[i] ^= 0xA5
		}
	}
	return append(out, []byte("\n\x00\n")...)
}

// Listener wraps a net.Listener with scripted accept faults: the i-th
// accepted connection is closed immediately when Script[i] is
// AcceptDrop (the client sees a reset before any bytes flow), and
// passes through otherwise. Entries are consumed once — beyond the end
// of the script every accept passes — so the injected dose is exactly
// the number of AcceptDrop entries, provided at least that many
// connections arrive.
type Listener struct {
	net.Listener
	// Script is consumed one entry per accepted connection.
	Script []FaultKind
	// Counts receives every injected drop.
	Counts *Counts

	n atomic.Int64
}

// Accept applies the schedule, never surfacing an injected fault to the
// server: a dropped connection is the client's problem, the accept loop
// just moves on.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return c, err
		}
		i := l.n.Add(1) - 1
		if i < int64(len(l.Script)) && l.Script[i] == AcceptDrop {
			l.Counts.Add(AcceptDrop, 1)
			_ = c.Close()
			continue
		}
		return c, nil
	}
}
