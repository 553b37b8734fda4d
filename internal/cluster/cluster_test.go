package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nodesentry/internal/mat"
)

// blobs generates k well-separated Gaussian blobs of `per` points each in
// dim dimensions; returns the data and true labels.
func blobs(rng *rand.Rand, k, per, dim int, spread float64) (*mat.Matrix, []int) {
	X := mat.New(k*per, dim)
	truth := make([]int, k*per)
	for c := 0; c < k; c++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = float64(c*20) + rng.NormFloat64()
		}
		for p := 0; p < per; p++ {
			i := c*per + p
			truth[i] = c
			row := X.Row(i)
			for j := range row {
				row[j] = center[j] + spread*rng.NormFloat64()
			}
		}
	}
	return X, truth
}

// sameClustering reports whether two labelings induce the same partition.
func sameClustering(a, b []int) bool {
	fwd := map[int]int{}
	rev := map[int]int{}
	for i := range a {
		if m, ok := fwd[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := rev[b[i]]; ok && m != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

func TestHACRecoversBlobs(t *testing.T) {
	for _, linkage := range []Linkage{Single, Complete, Average, Ward} {
		rng := rand.New(rand.NewSource(1))
		X, truth := blobs(rng, 3, 12, 4, 0.5)
		labels := HAC(X, linkage, 3)
		if !sameClustering(labels, truth) {
			t.Errorf("%v linkage did not recover blob structure", linkage)
		}
	}
}

func TestHACHandComputed(t *testing.T) {
	// Points on a line: 0, 1, 10, 11. k=2 must split {0,1} | {10,11}.
	X := mat.FromRows([][]float64{{0}, {1}, {10}, {11}})
	labels := HAC(X, Average, 2)
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] {
		t.Errorf("labels = %v", labels)
	}
	// k=1: all together.
	one := HAC(X, Average, 1)
	for _, l := range one {
		if l != 0 {
			t.Errorf("k=1 labels = %v", one)
		}
	}
	// k=n: all singletons.
	four := HAC(X, Average, 4)
	seen := map[int]bool{}
	for _, l := range four {
		if seen[l] {
			t.Errorf("k=n labels not distinct: %v", four)
		}
		seen[l] = true
	}
}

func TestHACAutoFindsK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, truth := blobs(rng, 4, 10, 3, 0.4)
	res := HACAuto(X, Average, 2, 8)
	if res.K != 4 {
		t.Errorf("auto k = %d (scores %v), want 4", res.K, res.Scores)
	}
	if !sameClustering(res.Labels, truth) {
		t.Error("auto labels do not match blob structure")
	}
	if res.Silhouette < 0.5 {
		t.Errorf("silhouette = %v, want high for separated blobs", res.Silhouette)
	}
}

func TestHACAutoDegenerate(t *testing.T) {
	X := mat.FromRows([][]float64{{1, 2}})
	res := HACAuto(X, Average, 2, 5)
	if res.K != 1 || len(res.Labels) != 1 {
		t.Errorf("single-point result %+v", res)
	}
}

func TestSilhouetteBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		X := mat.New(n, 3)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			for j := 0; j < 3; j++ {
				X.Set(i, j, rng.NormFloat64())
			}
			labels[i] = rng.Intn(3)
		}
		s := Silhouette(X, labels)
		return s >= -1.000001 && s <= 1.000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSilhouetteSeparatedBeatsMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, truth := blobs(rng, 2, 15, 3, 0.5)
	mixed := make([]int, len(truth))
	for i := range mixed {
		mixed[i] = i % 2
	}
	if Silhouette(X, truth) <= Silhouette(X, mixed) {
		t.Error("true clustering should out-silhouette a random one")
	}
}

func TestCentroidsAndAssign(t *testing.T) {
	X := mat.FromRows([][]float64{{0, 0}, {2, 0}, {10, 10}})
	labels := []int{0, 0, 1}
	C := Centroids(X, labels, 2)
	if C.At(0, 0) != 1 || C.At(0, 1) != 0 || C.At(1, 0) != 10 {
		t.Errorf("centroids = %v", C.Data)
	}
	c, d := Assign([]float64{9, 9}, C)
	if c != 1 {
		t.Errorf("assigned to %d", c)
	}
	if math.Abs(d-math.Sqrt(2)) > 1e-12 {
		t.Errorf("distance = %v", d)
	}
}

func TestNearestMembers(t *testing.T) {
	X := mat.FromRows([][]float64{{0}, {1}, {2}, {50}})
	labels := []int{0, 0, 0, 1}
	got := NearestMembers(X, labels, []float64{0.9}, 0, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("NearestMembers = %v, want [1 0]", got)
	}
	// m larger than membership.
	all := NearestMembers(X, labels, []float64{0}, 0, 10)
	if len(all) != 3 {
		t.Errorf("want all 3 members, got %v", all)
	}
}

func TestKMeansRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, truth := blobs(rng, 3, 20, 4, 0.5)
	labels := KMeans(X, 3, 50, 7)
	if !sameClustering(labels, truth) {
		t.Error("k-means did not recover blobs")
	}
}

func TestKMeansDegenerate(t *testing.T) {
	X := mat.FromRows([][]float64{{1}, {2}})
	if got := KMeans(X, 1, 10, 1); got[0] != 0 || got[1] != 0 {
		t.Errorf("k=1 labels = %v", got)
	}
	if got := KMeans(X, 5, 10, 1); len(got) != 2 {
		t.Errorf("k>n labels = %v", got)
	}
	if got := KMeans(mat.New(0, 3), 2, 10, 1); len(got) != 0 {
		t.Errorf("empty input labels = %v", got)
	}
}

func TestGMMFitsBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, _ := blobs(rng, 2, 40, 2, 0.6)
	g := FitGMM(X, 2, 30, 9, 0)
	if g.NumComponents() != 2 {
		t.Fatalf("components = %d", g.NumComponents())
	}
	// A point near a blob center has small Mahalanobis distance; a far
	// outlier has a large one.
	near := g.MahalanobisMin(g.Means[0])
	far := g.MahalanobisMin([]float64{1000, 1000})
	if near > 1 || far < 50 {
		t.Errorf("mahalanobis near=%v far=%v", near, far)
	}
}

func TestGMMPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, _ := blobs(rng, 2, 40, 2, 0.5)
	g := FitGMM(X, 6, 40, 10, 0.05)
	if g.NumComponents() > 4 {
		t.Errorf("pruning left %d components for 2 blobs", g.NumComponents())
	}
	sum := 0.0
	for _, w := range g.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v after pruning", sum)
	}
}

func seq(vals ...float64) [][]float64 {
	out := make([][]float64, len(vals))
	for i, v := range vals {
		out[i] = []float64{v}
	}
	return out
}

func TestDTWBasics(t *testing.T) {
	a := seq(1, 2, 3)
	if d := DTW(a, a, 0); d != 0 {
		t.Errorf("self-DTW = %v", d)
	}
	// Time-shifted copies align almost perfectly.
	b := seq(1, 1, 2, 3)
	if d := DTW(a, b, 0); d > 1e-9 {
		t.Errorf("shifted DTW = %v, want ~0", d)
	}
	c := seq(10, 10, 10)
	if d := DTW(a, c, 0); d < 10 {
		t.Errorf("distant DTW = %v, want large", d)
	}
	if !math.IsInf(DTW(nil, a, 0), 1) {
		t.Error("empty-sequence DTW should be +Inf")
	}
}

func TestDTWSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(10), 2+rng.Intn(10)
		a := make([][]float64, n)
		b := make([][]float64, m)
		for i := range a {
			a[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		for i := range b {
			b[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		d1, d2 := DTW(a, b, 0), DTW(b, a, 0)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDTWBandUpperBoundsUnconstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := make([][]float64, 20)
	b := make([][]float64, 25)
	for i := range a {
		a[i] = []float64{rng.NormFloat64()}
	}
	for i := range b {
		b[i] = []float64{rng.NormFloat64()}
	}
	free := DTW(a, b, 0)
	banded := DTW(a, b, 3)
	if banded < free-1e-9 {
		t.Errorf("banded DTW %v below unconstrained %v", banded, free)
	}
}

func TestPairwiseEuclidean(t *testing.T) {
	X := mat.FromRows([][]float64{{0, 0}, {3, 4}})
	D := PairwiseEuclidean(X)
	if D.At(0, 1) != 5 || D.At(1, 0) != 5 || D.At(0, 0) != 0 {
		t.Errorf("D = %v", D.Data)
	}
}

func BenchmarkHAC200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	X, _ := blobs(rng, 5, 40, 8, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HAC(X, Average, 5)
	}
}
