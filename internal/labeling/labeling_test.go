package labeling

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nodesentry/internal/mat"
	"nodesentry/internal/mts"
)

func TestLabelCancel(t *testing.T) {
	s := NewStore()
	if err := s.Label("n1", mts.Interval{Start: 100, End: 200}); err != nil {
		t.Fatal(err)
	}
	if err := s.Label("n1", mts.Interval{Start: 300, End: 400}); err != nil {
		t.Fatal(err)
	}
	if err := s.Label("n1", mts.Interval{Start: 150, End: 150}); err == nil {
		t.Error("empty interval should be rejected")
	}
	// Cancel the middle of the first interval: splits it.
	s.Cancel("n1", mts.Interval{Start: 120, End: 180})
	got := s.Labels()["n1"]
	want := []mts.Interval{{Start: 100, End: 120}, {Start: 180, End: 200}, {Start: 300, End: 400}}
	if len(got) != len(want) {
		t.Fatalf("labels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("labels = %v, want %v", got, want)
		}
	}
	// Two accepted labels + one cancel; the rejected empty interval does
	// not enter history.
	if len(s.History()) != 3 {
		t.Errorf("history has %d entries, want 3", len(s.History()))
	}
}

func TestStoreSaveLoad(t *testing.T) {
	s := NewStore()
	s.Label("n1", mts.Interval{Start: 10, End: 20})
	s.Label("n2", mts.Interval{Start: 30, End: 40})
	s.Cancel("n2", mts.Interval{Start: 30, End: 35})
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for node, ivs := range s.Labels() {
		g := got.Labels()[node]
		if len(g) != len(ivs) {
			t.Fatalf("node %s: %v vs %v", node, g, ivs)
		}
		for i := range ivs {
			if g[i] != ivs[i] {
				t.Fatalf("node %s label %d differs", node, i)
			}
		}
	}
	if len(got.History()) != len(s.History()) {
		t.Errorf("history: %d vs %d", len(got.History()), len(s.History()))
	}
}

func TestLoadEmptyDir(t *testing.T) {
	s, err := Load(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Labels()) != 0 {
		t.Error("fresh dir should give empty store")
	}
}

func TestSuggest(t *testing.T) {
	f := &mts.NodeFrame{Node: "n1", Metrics: []string{"m"},
		Data: [][]float64{make([]float64, 10)}, Start: 1000, Step: 60}
	scores := []float64{0, 0, 5, 9, 7, 0, 0, 3, 0, 0}
	preds := []bool{false, false, true, true, true, false, false, true, false, false}
	sugs := Suggest(f, scores, preds, "ksigma")
	if len(sugs) != 2 {
		t.Fatalf("got %d suggestions, want 2", len(sugs))
	}
	if sugs[0].Span.Start != f.TimeAt(2) || sugs[0].Span.End != f.TimeAt(5) {
		t.Errorf("first suggestion span %v", sugs[0].Span)
	}
	if sugs[0].Score != 9 || sugs[0].Method != "ksigma" {
		t.Errorf("first suggestion %+v", sugs[0])
	}
	// Accepting a suggestion labels it.
	s := NewStore()
	if err := s.Accept(sugs[0]); err != nil {
		t.Fatal(err)
	}
	if len(s.Labels()["n1"]) != 1 {
		t.Error("accept did not label")
	}
}

func clusterFixture() (*mat.Matrix, []mts.Segment) {
	rng := rand.New(rand.NewSource(1))
	F := mat.New(20, 3)
	segs := make([]mts.Segment, 20)
	for i := 0; i < 20; i++ {
		base := float64((i % 2) * 50)
		for j := 0; j < 3; j++ {
			F.Set(i, j, base+rng.NormFloat64())
		}
		segs[i] = mts.Segment{Node: "n", Job: int64(i)}
	}
	return F, segs
}

func TestClusterSessionBasics(t *testing.T) {
	F, segs := clusterFixture()
	cs := NewClusterSession(F, segs, 2, 5)
	if cs.NumClusters() != 2 {
		t.Fatalf("auto clustering found %d clusters, want 2", cs.NumClusters())
	}
	if cs.Adjusted() != 0 {
		t.Error("fresh session should have no adjustments")
	}
	before := cs.Silhouette()
	if err := cs.Move(0, 1-cs.Labels()[0]); err != nil {
		t.Fatal(err)
	}
	if cs.Adjusted() != 1 {
		t.Errorf("adjusted = %d, want 1", cs.Adjusted())
	}
	if cs.Silhouette() >= before {
		t.Error("moving a point to the wrong cluster should hurt the silhouette")
	}
	// Creating a new cluster via target == k.
	if err := cs.Move(1, cs.NumClusters()); err != nil {
		t.Fatal(err)
	}
	if cs.NumClusters() != 3 {
		t.Errorf("new cluster not created: k=%d", cs.NumClusters())
	}
	if err := cs.Move(99, 0); err == nil {
		t.Error("out-of-range segment accepted")
	}
	if err := cs.Move(0, 99); err == nil {
		t.Error("out-of-range cluster accepted")
	}
	C := cs.Centroids()
	if C.Rows != cs.NumClusters() {
		t.Errorf("centroids rows = %d", C.Rows)
	}
}

func TestClusterSessionSaveLoad(t *testing.T) {
	F, segs := clusterFixture()
	cs := NewClusterSession(F, segs, 2, 5)
	cs.Move(3, 1-cs.Labels()[3])
	dir := t.TempDir()
	if err := cs.Save(dir); err != nil {
		t.Fatal(err)
	}
	// A fresh session restores the adjustments from disk.
	cs2 := NewClusterSession(F, segs, 2, 5)
	if err := cs2.LoadAdjustments(filepath.Join(dir, "cluster_adjust.txt")); err != nil {
		t.Fatal(err)
	}
	a, b := cs.Labels(), cs2.Labels()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored labels differ at %d", i)
		}
	}
	// Original algorithmic labels are preserved separately.
	orig := cs2.OriginalLabels()
	if orig[3] == cs2.Labels()[3] {
		t.Error("adjustment should differ from the original")
	}
}

// TestLoadAdjustmentsRejects: a cluster_adjust.txt that does not belong to
// the session's segments, or names a cluster past the segment count, is
// an error and leaves the session as it was.
func TestLoadAdjustmentsRejects(t *testing.T) {
	F, segs := clusterFixture()
	saved := NewClusterSession(F, segs, 2, 5)
	dir := t.TempDir()
	if err := saved.Save(dir); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, "cluster_adjust.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(good)), "\n")
	withRow := func(i int, row string) string {
		out := append([]string(nil), rows...)
		out[i] = row
		return strings.Join(out, "\n") + "\n"
	}
	cases := map[string]string{
		"other node":          withRow(4, "m 4 0"),
		"other job":           withRow(4, "n 5 0"),
		"rows reordered":      withRow(4, rows[5]),
		"label = segments":    withRow(4, fmt.Sprintf("n 4 %d", len(segs))),
		"huge label":          withRow(4, "n 4 1000000000"),
		"negative label":      withRow(4, "n 4 -1"),
		"missing row":         strings.Join(rows[1:], "\n"),
		"empty file":          "",
		"non-numeric cluster": withRow(4, "n 4 x"),
	}
	for name, body := range cases {
		path := filepath.Join(t.TempDir(), "cluster_adjust.txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		cs := NewClusterSession(F, segs, 2, 5)
		before, k := cs.Labels(), cs.NumClusters()
		if err := cs.LoadAdjustments(path); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !slices.Equal(cs.Labels(), before) || cs.NumClusters() != k {
			t.Errorf("%s: rejected file changed the session", name)
		}
	}
}
