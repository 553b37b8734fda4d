package cluster

import (
	"math"
	"math/rand"
	"sync/atomic"

	"nodesentry/internal/mat"
)

// KMeans clusters the rows of X into k clusters with Lloyd's algorithm and
// k-means++ seeding, returning a label per row. Used by the labeling tool's
// built-in clustering and by ablation baselines.
func KMeans(X *mat.Matrix, k, iters int, seed int64) []int {
	n := X.Rows
	labels := make([]int, n)
	if n == 0 || k <= 1 {
		return labels
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	C := kmeansPlusPlusInit(X, k, rng)
	for it := 0; it < iters; it++ {
		var changed atomic.Bool
		mat.Parallel(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c, _ := Assign(X.Row(i), C)
				if c != labels[i] {
					labels[i] = c
					changed.Store(true)
				}
			}
		})
		C = Centroids(X, labels, k)
		if !changed.Load() {
			break
		}
	}
	return labels
}

func kmeansPlusPlusInit(X *mat.Matrix, k int, rng *rand.Rand) *mat.Matrix {
	n := X.Rows
	C := mat.New(k, X.Cols)
	first := rng.Intn(n)
	copy(C.Row(0), X.Row(first))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = mat.SquaredDist(X.Row(i), C.Row(0))
	}
	for c := 1; c < k; c++ {
		sum := 0.0
		for _, v := range d2 {
			sum += v
		}
		var pick int
		if sum <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * sum
			for i, v := range d2 {
				r -= v
				if r <= 0 {
					pick = i
					break
				}
			}
		}
		copy(C.Row(c), X.Row(pick))
		for i := range d2 {
			if d := mat.SquaredDist(X.Row(i), C.Row(c)); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return C
}

// GMM is a diagonal-covariance Gaussian mixture. With weight pruning it
// stands in for the variational Bayesian GMM of the ISC'20 baseline: the
// Dirichlet prior's effect — shutting down superfluous components — is
// emulated by discarding components whose responsibility mass falls below
// a threshold after EM.
type GMM struct {
	Weights []float64
	Means   [][]float64
	Vars    [][]float64
}

// FitGMM fits a mixture with k initial components by EM, pruning components
// whose weight drops below prune (set 0 to disable). Variances are floored
// for numerical stability.
func FitGMM(X *mat.Matrix, k, iters int, seed int64, prune float64) *GMM {
	n, d := X.Rows, X.Cols
	if n == 0 || k < 1 {
		return &GMM{}
	}
	if k > n {
		k = n
	}
	const varFloor = 1e-6
	// Initialize from k-means.
	labels := KMeans(X, k, 20, seed)
	g := &GMM{}
	counts := make([]int, k)
	for _, l := range labels {
		counts[l]++
	}
	for c := 0; c < k; c++ {
		mean := make([]float64, d)
		vr := make([]float64, d)
		cnt := 0
		for i, l := range labels {
			if l != c {
				continue
			}
			mat.Axpy(1, X.Row(i), mean)
			cnt++
		}
		if cnt == 0 {
			continue
		}
		for j := range mean {
			mean[j] /= float64(cnt)
		}
		for i, l := range labels {
			if l != c {
				continue
			}
			row := X.Row(i)
			for j := range vr {
				dv := row[j] - mean[j]
				vr[j] += dv * dv
			}
		}
		for j := range vr {
			vr[j] = vr[j]/float64(cnt) + varFloor
		}
		g.Weights = append(g.Weights, float64(cnt)/float64(n))
		g.Means = append(g.Means, mean)
		g.Vars = append(g.Vars, vr)
	}

	resp := mat.New(n, len(g.Weights))
	for it := 0; it < iters; it++ {
		// E step.
		mat.Parallel(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := resp.Row(i)
				maxL := math.Inf(-1)
				for c := range g.Weights {
					row[c] = math.Log(g.Weights[c]+1e-300) + g.logGaussian(X.Row(i), c)
					if row[c] > maxL {
						maxL = row[c]
					}
				}
				sum := 0.0
				for c := range row {
					row[c] = math.Exp(row[c] - maxL)
					sum += row[c]
				}
				for c := range row {
					row[c] /= sum
				}
			}
		})
		// M step.
		for c := range g.Weights {
			var wsum float64
			mean := make([]float64, d)
			for i := 0; i < n; i++ {
				r := resp.At(i, c)
				wsum += r
				mat.Axpy(r, X.Row(i), mean)
			}
			if wsum < 1e-12 {
				g.Weights[c] = 0
				continue
			}
			for j := range mean {
				mean[j] /= wsum
			}
			vr := make([]float64, d)
			for i := 0; i < n; i++ {
				r := resp.At(i, c)
				row := X.Row(i)
				for j := range vr {
					dv := row[j] - mean[j]
					vr[j] += r * dv * dv
				}
			}
			for j := range vr {
				vr[j] = vr[j]/wsum + varFloor
			}
			g.Weights[c] = wsum / float64(n)
			g.Means[c] = mean
			g.Vars[c] = vr
		}
	}
	// Dirichlet-style pruning.
	if prune > 0 {
		out := &GMM{}
		for c, w := range g.Weights {
			if w >= prune {
				out.Weights = append(out.Weights, w)
				out.Means = append(out.Means, g.Means[c])
				out.Vars = append(out.Vars, g.Vars[c])
			}
		}
		// Renormalize.
		sum := 0.0
		for _, w := range out.Weights {
			sum += w
		}
		for i := range out.Weights {
			out.Weights[i] /= sum
		}
		g = out
	}
	return g
}

func (g *GMM) logGaussian(x []float64, c int) float64 {
	mean, vr := g.Means[c], g.Vars[c]
	s := 0.0
	for j := range x {
		d := x[j] - mean[j]
		s += d*d/vr[j] + math.Log(2*math.Pi*vr[j])
	}
	return -0.5 * s
}

// MahalanobisMin returns the minimum (diagonal) Mahalanobis distance from x
// to any component — ISC'20's anomaly score.
func (g *GMM) MahalanobisMin(x []float64) float64 {
	best := math.Inf(1)
	for c := range g.Weights {
		s := 0.0
		mean, vr := g.Means[c], g.Vars[c]
		for j := range x {
			d := x[j] - mean[j]
			s += d * d / vr[j]
		}
		if s < best {
			best = s
		}
	}
	return math.Sqrt(best)
}

// NumComponents returns the surviving component count.
func (g *GMM) NumComponents() int { return len(g.Weights) }

// DTW computes the multivariate Dynamic Time Warping distance between two
// sequences a and b (each [T][d], possibly of different lengths) with
// Euclidean local cost and an optional Sakoe-Chiba band of half-width
// `window` (0 = unconstrained). This is the O(len(a)·len(b)) shape-based
// distance whose cost Challenge 1 of the paper deems prohibitive at fleet
// scale — reproduced here for the cost-comparison benchmark.
func DTW(a, b [][]float64, window int) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	if window <= 0 {
		window = max(n, m)
	}
	window = max(window, abs(n-m)) // the band must admit the corner
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = math.Inf(1)
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = math.Inf(1)
		}
		lo := max(1, i-window)
		hi := min(m, i+window)
		for j := lo; j <= hi; j++ {
			c := mat.EuclideanDist(a[i-1], b[j-1])
			cur[j] = c + math.Min(prev[j], math.Min(cur[j-1], prev[j-1]))
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
