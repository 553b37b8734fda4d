package ingest

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nodesentry/internal/obs"
)

func postPush(t *testing.T, url, contentType, body string, gzipped bool) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if gzipped {
		gz := gzip.NewWriter(&buf)
		if _, err := gz.Write([]byte(body)); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		buf.WriteString(body)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/push", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if gzipped {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	return resp
}

func TestIntakePushFormats(t *testing.T) {
	sink := &recordSink{}
	reg := obs.NewRegistry()
	dec := testDecoder(sink, reg)
	in := NewIntake(dec, IntakeConfig{Metrics: reg})
	srv := httptest.NewServer(in.Handler())
	defer srv.Close()

	// Exposition push.
	resp := postPush(t, srv.URL, "text/plain", "cpu{node=\"a\"} 1 60000\n", false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("exposition push: %s", resp.Status)
	}
	msg, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(msg), "accepted 1 samples") {
		t.Errorf("push response %q", msg)
	}
	// JSONL by content type.
	resp = postPush(t, srv.URL, "application/x-ndjson", `{"node":"a","time":120,"values":[2]}`+"\n", false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("jsonl push: %s", resp.Status)
	}
	// JSONL by sniffing (no content type).
	resp = postPush(t, srv.URL, "", `{"node":"a","time":180,"values":[3]}`+"\n", false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sniffed jsonl push: %s", resp.Status)
	}
	// Gzipped exposition.
	resp = postPush(t, srv.URL, "text/plain", "cpu{node=\"a\"} 4 240000\n", true)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("gzip push: %s", resp.Status)
	}

	events := sink.forNode("a")
	want := []string{"reg a [cpu]", "ing a 60 [1]", "ing a 120 [2]", "ing a 180 [3]", "ing a 240 [4]"}
	if len(events) != len(want) {
		t.Fatalf("events %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, events[i], want[i])
		}
	}
	if v := reg.Counter("nodesentry_intake_requests_total", "status", "ok").Value(); v != 4 {
		t.Errorf("ok requests = %d, want 4", v)
	}
}

func TestIntakeRejections(t *testing.T) {
	reg := obs.NewRegistry()
	dec := testDecoder(&recordSink{}, reg)
	in := NewIntake(dec, IntakeConfig{Metrics: reg, MaxBodyBytes: 64})
	srv := httptest.NewServer(in.Handler())
	defer srv.Close()

	// Wrong method.
	resp, err := http.Get(srv.URL + "/push")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /push: %s", resp.Status)
	}
	// Oversized plain body.
	resp = postPush(t, srv.URL, "text/plain", strings.Repeat("x", 200), false)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized push: %s, want 413", resp.Status)
	}
	// Gzip bomb: tiny compressed, inflates past the limit.
	resp = postPush(t, srv.URL, "text/plain", strings.Repeat("a", 100000), true)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("gzip bomb: %s, want 413", resp.Status)
	}
	// Corrupt gzip.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/push", strings.NewReader("not gzip"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt gzip: %s, want 400", resp.Status)
	}
	// Malformed exposition.
	resp = postPush(t, srv.URL, "text/plain", "cpu{node=\"a\" 1", false)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed exposition: %s, want 400", resp.Status)
	}
	if v := reg.Counter("nodesentry_intake_requests_total", "status", "error").Value(); v < 5 {
		t.Errorf("error requests = %d, want >= 5", v)
	}
	// Liveness endpoint still answers.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if string(body) != "ok\n" {
		t.Errorf("healthz = %q", body)
	}
}

func TestIsJSONL(t *testing.T) {
	for _, tc := range []struct {
		ct, body string
		want     bool
	}{
		{"application/json", "anything", true},
		{"application/x-ndjson", "", true},
		{"text/plain", `{"node":"a"}`, true}, // body sniffing wins over a non-JSON content type
		{"", "  \n\t{\"node\":\"a\"}", true},
		{"", "cpu{node=\"a\"} 1", false},
		{"", "# TYPE cpu gauge", false},
		{"", "", false},
	} {
		if got := isJSONL(tc.ct, tc.body); got != tc.want {
			t.Errorf("isJSONL(%q, %q) = %v, want %v", tc.ct, tc.body, got, tc.want)
		}
	}
}
