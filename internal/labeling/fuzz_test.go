package labeling

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadAdjustments feeds arbitrary bytes to LoadAdjustments, which
// labeltool reads from its workdir on every start. It must never panic; an
// accepted file leaves every label below the segment count, and the
// session still scores, centers and moves.
func FuzzLoadAdjustments(f *testing.F) {
	F, segs := clusterFixture()
	seed := NewClusterSession(F, segs, 2, 5)
	if err := seed.Move(3, 1-seed.Labels()[3]); err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if err := seed.Save(dir); err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"cluster_adjust.txt", "config_files/cluster_result.txt"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte("n 0 1000000000\n"))
	f.Add([]byte("m 0 0\n"))
	f.Add([]byte(""))

	path := filepath.Join(f.TempDir(), "cluster_adjust.txt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cs := NewClusterSession(F, segs, 2, 5)
		if err := cs.LoadAdjustments(path); err != nil {
			return
		}
		for i, l := range cs.Labels() {
			if l < 0 || l >= len(segs) {
				t.Fatalf("accepted label %d for segment %d, want 0..%d", l, i, len(segs)-1)
			}
		}
		if k := cs.NumClusters(); k > len(segs) {
			t.Fatalf("%d clusters over %d segments", k, len(segs))
		}
		_ = cs.Silhouette()
		if C := cs.Centroids(); C.Rows != cs.NumClusters() {
			t.Fatalf("centroids rows = %d, clusters = %d", C.Rows, cs.NumClusters())
		}
		if err := cs.Move(0, 0); err != nil {
			t.Fatal(err)
		}
	})
}
