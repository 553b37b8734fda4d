package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nodesentry"
	"nodesentry/internal/labeling"
)

func testTool(t *testing.T) *tool {
	t.Helper()
	cfg := nodesentry.TinyDataset()
	cfg.Nodes = 2
	cfg.HorizonDays = 0.5
	ds := nodesentry.BuildDataset(cfg)
	return newTool(ds, labeling.NewStore(), t.TempDir())
}

func get(t *testing.T, h http.HandlerFunc, url string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("bad JSON from %s: %v", url, err)
		}
	}
	return rec
}

func post(t *testing.T, h http.HandlerFunc, url, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("bad JSON from %s: %v", url, err)
		}
	}
	return rec
}

func TestHandleNodes(t *testing.T) {
	tl := testTool(t)
	var nodes []string
	get(t, tl.handleNodes, "/api/nodes", &nodes)
	if len(nodes) != 2 {
		t.Fatalf("nodes = %v", nodes)
	}
}

func TestHandleSeries(t *testing.T) {
	tl := testTool(t)
	node := tl.ds.Nodes()[0]
	var resp seriesResponse
	get(t, tl.handleSeries, "/api/series?node="+node, &resp)
	if resp.Node != node || len(resp.Times) == 0 || len(resp.Times) != len(resp.Values) {
		t.Fatalf("series response malformed: %d times %d values", len(resp.Times), len(resp.Values))
	}
	if len(resp.Times) > 2000 {
		t.Error("series not downsampled")
	}
	if rec := get(t, tl.handleSeries, "/api/series?node=nope", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown node returned %d", rec.Code)
	}
}

func TestLabelCancelRoundTrip(t *testing.T) {
	tl := testTool(t)
	node := tl.ds.Nodes()[0]
	var ivs []map[string]int64
	post(t, tl.handleLabel, "/api/label", `{"node":"`+node+`","start":100,"end":400}`, &ivs)
	if len(ivs) != 1 {
		t.Fatalf("after label: %v", ivs)
	}
	post(t, tl.handleCancel, "/api/cancel", `{"node":"`+node+`","start":150,"end":200}`, &ivs)
	if len(ivs) != 2 {
		t.Fatalf("after cancel split: %v", ivs)
	}
	if rec := post(t, tl.handleLabel, "/api/label", `{"node":"x","start":5,"end":5}`, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("empty interval accepted: %d", rec.Code)
	}
	if rec := post(t, tl.handleLabel, "/api/label", `not json`, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON accepted: %d", rec.Code)
	}
}

func TestHandleSuggest(t *testing.T) {
	tl := testTool(t)
	node := tl.ds.Nodes()[0]
	var sugs []labeling.Suggestion
	get(t, tl.handleSuggest, "/api/suggest?node="+node, &sugs)
	// The statistical engine may or may not fire on this node; the
	// contract is a well-formed (possibly empty) list.
	for _, s := range sugs {
		if s.Node != node || s.Span.End <= s.Span.Start {
			t.Errorf("malformed suggestion %+v", s)
		}
	}
}

func TestHandleClustersAndMove(t *testing.T) {
	tl := testTool(t)
	var resp clustersResponse
	get(t, tl.handleClusters, "/api/clusters", &resp)
	if resp.K < 1 || len(resp.Segments) == 0 {
		t.Fatalf("clusters response %+v", resp)
	}
	var mv map[string]any
	post(t, tl.handleMove, "/api/move", `{"segment":0,"cluster":0}`, &mv)
	if mv["ok"] != true {
		t.Errorf("move response %v", mv)
	}
	if rec := post(t, tl.handleMove, "/api/move", `{"segment":-1,"cluster":0}`, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad move accepted: %d", rec.Code)
	}
}

func TestHandleSaveAndIndex(t *testing.T) {
	tl := testTool(t)
	var ok map[string]any
	post(t, tl.handleSave, "/api/save", `{}`, &ok)
	if ok["ok"] != true {
		t.Error("save failed")
	}
	rec := get(t, tl.handleIndex, "/", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "NodeSentry") {
		t.Error("index page broken")
	}
	if rec := get(t, tl.handleIndex, "/nope", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path returned %d", rec.Code)
	}
}

func TestCLICommands(t *testing.T) {
	tl := testTool(t)
	node := tl.ds.Nodes()[0]
	cases := [][]string{
		{"label", node, "100", "400"},
		{"cancel", node, "150", "200"},
		{"list"},
		{"suggest", node},
		{"clusters"},
		{"move", "0", "0"},
		{"save"},
	}
	for _, args := range cases {
		if err := tl.runCLI(args); err != nil {
			t.Errorf("CLI %v: %v", args, err)
		}
	}
	for _, bad := range [][]string{
		{"unknown"}, {"label", node, "x", "y"}, {"move", "a", "b"}, {"label", node},
	} {
		if err := tl.runCLI(bad); err == nil {
			t.Errorf("CLI %v should fail", bad)
		}
	}
}

// otherCluster returns a cluster segment i is not in.
func otherCluster(t *testing.T, tl *tool, i int) int {
	t.Helper()
	cs, err := tl.clusters()
	if err != nil {
		t.Fatal(err)
	}
	return (cs.Labels()[i] + 1) % cs.NumClusters()
}

// TestMovePersistsAcrossRuns: a move made by one labeltool run is what the
// next run on the same workdir starts from.
func TestMovePersistsAcrossRuns(t *testing.T) {
	first := testTool(t)
	target := otherCluster(t, first, 0)
	if err := first.runCLI([]string{"move", "0", strconv.Itoa(target)}); err != nil {
		t.Fatal(err)
	}
	fresh := newTool(first.ds, labeling.NewStore(), first.workdir)
	var resp clustersResponse
	if rec := get(t, fresh.handleClusters, "/api/clusters", &resp); rec.Code != http.StatusOK {
		t.Fatalf("clusters: %d %s", rec.Code, rec.Body)
	}
	if resp.Adjusted != 1 || resp.Segments[0].Cluster != target {
		t.Fatalf("fresh run: adjusted=%d segment 0 in cluster %d, want 1 and %d",
			resp.Adjusted, resp.Segments[0].Cluster, target)
	}
}

// TestMovesAccumulateAcrossRuns: two runs that each move one segment both
// leave their move behind; the second does not overwrite the first.
func TestMovesAccumulateAcrossRuns(t *testing.T) {
	first := testTool(t)
	second := newTool(first.ds, labeling.NewStore(), first.workdir)
	t0 := otherCluster(t, first, 0)
	if err := first.runCLI([]string{"move", "0", strconv.Itoa(t0)}); err != nil {
		t.Fatal(err)
	}
	t1 := otherCluster(t, second, 1)
	var mv map[string]any
	if rec := post(t, second.handleMove, "/api/move", fmt.Sprintf(`{"segment":1,"cluster":%d}`, t1), &mv); rec.Code != http.StatusOK {
		t.Fatalf("move: %d %s", rec.Code, rec.Body)
	}
	cs, err := newTool(first.ds, labeling.NewStore(), first.workdir).clusters()
	if err != nil {
		t.Fatal(err)
	}
	if labels := cs.Labels(); cs.Adjusted() != 2 || labels[0] != t0 || labels[1] != t1 {
		t.Fatalf("fresh run: adjusted=%d labels[0:2]=%v, want 2 and [%d %d]", cs.Adjusted(), labels[:2], t0, t1)
	}
}

// TestMalformedAdjustmentsRejected: a cluster_adjust.txt that does not fit
// the dataset fails both front ends instead of being applied or ignored.
func TestMalformedAdjustmentsRejected(t *testing.T) {
	tl := testTool(t)
	path := filepath.Join(tl.workdir, "cluster_adjust.txt")
	if err := os.WriteFile(path, []byte("cn-9999 1 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := tl.runCLI([]string{"clusters"}); err == nil {
		t.Error("CLI clusters accepted a malformed cluster_adjust.txt")
	}
	if err := tl.runCLI([]string{"move", "0", "0"}); err == nil {
		t.Error("CLI move accepted a malformed cluster_adjust.txt")
	}
	if rec := get(t, tl.handleClusters, "/api/clusters", nil); rec.Code != http.StatusInternalServerError {
		t.Errorf("GET /api/clusters = %d, want 500", rec.Code)
	}
	if rec := post(t, tl.handleMove, "/api/move", `{"segment":0,"cluster":0}`, nil); rec.Code != http.StatusInternalServerError {
		t.Errorf("POST /api/move = %d, want 500", rec.Code)
	}
}
