// Package cluster implements the clustering substrate of NodeSentry:
// Hierarchical Agglomerative Clustering with silhouette-based automatic
// cluster-count selection (§3.3), plus the algorithms the baselines and the
// labeling tool need — k-means, an EM Gaussian mixture standing in for the
// variational BGMM of ISC'20, and multivariate Dynamic Time Warping (the
// expensive shape-based alternative the paper rules out in Challenge 1).
package cluster

import (
	"fmt"
	"math"

	"nodesentry/internal/mat"
)

// Linkage selects the HAC merge criterion.
type Linkage int

// Supported linkages.
const (
	Single Linkage = iota
	Complete
	Average
	Ward
)

// String implements fmt.Stringer.
func (l Linkage) String() string {
	switch l {
	case Single:
		return "single"
	case Complete:
		return "complete"
	case Average:
		return "average"
	case Ward:
		return "ward"
	default:
		return fmt.Sprintf("linkage(%d)", int(l))
	}
}

// PairwiseEuclidean computes the symmetric distance matrix of the rows of
// X, in parallel.
func PairwiseEuclidean(X *mat.Matrix) *mat.Matrix {
	n := X.Rows
	D := mat.New(n, n)
	mat.Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ri := X.Row(i)
			for j := i + 1; j < n; j++ {
				d := mat.EuclideanDist(ri, X.Row(j))
				D.Set(i, j, d)
				D.Set(j, i, d)
			}
		}
	})
	return D
}

// HAC agglomerates the rows of X into k clusters using the given linkage
// and Euclidean distance, returning a label per row in [0, k). k must be in
// [1, X.Rows].
func HAC(X *mat.Matrix, linkage Linkage, k int) []int {
	labels, _ := hacWithSnapshots(X, linkage, k, k)
	return labels[k]
}

// AutoResult reports an automatic HAC run.
type AutoResult struct {
	Labels     []int
	K          int
	Silhouette float64
	// Scores maps each candidate k to its silhouette coefficient.
	Scores map[int]float64
}

// HACAuto agglomerates and picks the cluster count in [kMin, kMax] with the
// best silhouette coefficient, the paper's "operators do not require
// iterative attempts" property. The dendrogram is built once; every
// candidate k is a cut of it.
func HACAuto(X *mat.Matrix, linkage Linkage, kMin, kMax int) AutoResult {
	n := X.Rows
	if kMin < 2 {
		kMin = 2
	}
	if kMax > n {
		kMax = n
	}
	if kMax < kMin {
		kMax = kMin
	}
	snaps, D := hacWithSnapshots(X, linkage, kMin, kMax)
	best := AutoResult{K: kMin, Silhouette: math.Inf(-1), Scores: map[int]float64{}}
	for k := kMin; k <= kMax; k++ {
		labels, ok := snaps[k]
		if !ok {
			continue
		}
		s := silhouetteFromDist(D, labels, k)
		best.Scores[k] = s
		if s > best.Silhouette {
			best.Silhouette = s
			best.K = k
			best.Labels = labels
		}
	}
	if best.Labels == nil && n > 0 {
		// Degenerate inputs (n < kMin): everything in one cluster.
		best.K = 1
		best.Labels = make([]int, n)
		best.Silhouette = 0
	}
	return best
}

// hacWithSnapshots runs bottom-up agglomeration with Lance-Williams
// updates, snapshotting the labeling at every active-cluster count in
// [kMin, kMax]. It returns the snapshots and the original distance matrix.
func hacWithSnapshots(X *mat.Matrix, linkage Linkage, kMin, kMax int) (map[int][]int, *mat.Matrix) {
	n := X.Rows
	snaps := map[int][]int{}
	D0 := PairwiseEuclidean(X)
	if n == 0 {
		return snaps, D0
	}
	// Working copy; Ward operates on squared distances.
	W := mat.New(n, n)
	for i := range W.Data {
		if linkage == Ward {
			W.Data[i] = D0.Data[i] * D0.Data[i]
		} else {
			W.Data[i] = D0.Data[i]
		}
	}
	active := make([]bool, n)
	size := make([]int, n)
	parent := make([]int, n) // union-find to derive labels
	for i := range active {
		active[i] = true
		size[i] = 1
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	snapshot := func(clusters int) {
		if clusters < kMin || clusters > kMax {
			return
		}
		labels := make([]int, n)
		next := 0
		remap := map[int]int{}
		for i := 0; i < n; i++ {
			r := find(i)
			id, ok := remap[r]
			if !ok {
				id = next
				remap[r] = id
				next++
			}
			labels[i] = id
		}
		snaps[clusters] = labels
	}
	snapshot(n)

	for clusters := n; clusters > 1; clusters-- {
		// Find the closest active pair.
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			row := W.Row(i)
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if row[j] < bd {
					bi, bj, bd = i, j, row[j]
				}
			}
		}
		if bi < 0 {
			break
		}
		// Merge bj into bi with the Lance-Williams update.
		si, sj := float64(size[bi]), float64(size[bj])
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			dik := W.At(bi, k)
			djk := W.At(bj, k)
			var d float64
			switch linkage {
			case Single:
				d = math.Min(dik, djk)
			case Complete:
				d = math.Max(dik, djk)
			case Average:
				d = (si*dik + sj*djk) / (si + sj)
			case Ward:
				sk := float64(size[k])
				tot := si + sj + sk
				d = ((si+sk)*dik + (sj+sk)*djk - sk*bd) / tot
			}
			W.Set(bi, k, d)
			W.Set(k, bi, d)
		}
		active[bj] = false
		size[bi] += size[bj]
		parent[find(bj)] = find(bi)
		snapshot(clusters - 1)
	}
	return snaps, D0
}

// Silhouette returns the mean silhouette coefficient of the labeling over
// the rows of X (Euclidean), in [-1, 1]; higher is better. Singleton
// clusters contribute 0, and a single-cluster labeling scores 0.
func Silhouette(X *mat.Matrix, labels []int) float64 {
	k := 0
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	return silhouetteFromDist(PairwiseEuclidean(X), labels, k)
}

func silhouetteFromDist(D *mat.Matrix, labels []int, k int) float64 {
	n := len(labels)
	if n == 0 || k < 2 {
		return 0
	}
	counts := make([]int, k)
	for _, l := range labels {
		counts[l]++
	}
	total := 0.0
	for i := 0; i < n; i++ {
		li := labels[i]
		if counts[li] <= 1 {
			continue // silhouette of a singleton is defined as 0
		}
		sums := make([]float64, k)
		row := D.Row(i)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sums[labels[j]] += row[j]
		}
		a := sums[li] / float64(counts[li]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == li || counts[c] == 0 {
				continue
			}
			if m := sums[c] / float64(counts[c]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
		}
	}
	return total / float64(n)
}

// Centroids computes the mean vector of each cluster; empty clusters get
// zero vectors.
func Centroids(X *mat.Matrix, labels []int, k int) *mat.Matrix {
	C := mat.New(k, X.Cols)
	counts := make([]int, k)
	for i, l := range labels {
		mat.Axpy(1, X.Row(i), C.Row(l))
		counts[l]++
	}
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			inv := 1 / float64(counts[c])
			row := C.Row(c)
			for j := range row {
				row[j] *= inv
			}
		}
	}
	return C
}

// Assign returns the index and distance of the centroid nearest to v.
func Assign(v []float64, centroids *mat.Matrix) (int, float64) {
	best, bd := -1, math.Inf(1)
	for c := 0; c < centroids.Rows; c++ {
		if d := mat.EuclideanDist(v, centroids.Row(c)); d < bd {
			best, bd = c, d
		}
	}
	return best, bd
}

// NearestMembers returns the indices of the m rows of X in cluster c that
// lie closest to the cluster centroid — the K representative segments used
// to train the shared model (§3.4).
func NearestMembers(X *mat.Matrix, labels []int, centroid []float64, c, m int) []int {
	type cand struct {
		idx int
		d   float64
	}
	var cands []cand
	for i, l := range labels {
		if l == c {
			cands = append(cands, cand{i, mat.EuclideanDist(X.Row(i), centroid)})
		}
	}
	for i := 1; i < len(cands); i++ { // insertion sort: member lists are small
		for j := i; j > 0 && cands[j].d < cands[j-1].d; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	if m > len(cands) {
		m = len(cands)
	}
	out := make([]int, m)
	for i := 0; i < m; i++ {
		out[i] = cands[i].idx
	}
	return out
}
