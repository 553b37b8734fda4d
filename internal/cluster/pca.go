package cluster

import (
	"math"
	"math/rand"

	"nodesentry/internal/mat"
)

// PCA is a fitted principal-component projection. The paper's Challenge 1
// discussion prescribes exactly this: "dimensionality reduction methods
// help mitigate the curse of dimensionality by transforming the data into
// a lower-dimensional space while preserving important information" —
// segment feature vectors are wide (metrics × features), and Euclidean
// distances concentrate in that space, flattening the cluster structure
// HAC needs.
type PCA struct {
	// Mean is the column mean removed before projection.
	Mean []float64
	// Components holds the principal axes as rows [k × d].
	Components *mat.Matrix
	// Explained is the variance captured by each component.
	Explained []float64
}

// FitPCA computes the top-k principal components of the rows of X by
// orthogonal (simultaneous power) iteration on the covariance matrix,
// which converges quickly for the leading eigenspace and needs no external
// linear-algebra dependency. k is clamped to min(rows, cols).
func FitPCA(X *mat.Matrix, k int) *PCA {
	n, d := X.Rows, X.Cols
	if k > d {
		k = d
	}
	if k > n {
		k = n
	}
	p := &PCA{Mean: make([]float64, d)}
	if n == 0 || k <= 0 {
		p.Components = mat.New(0, d)
		return p
	}
	// Center.
	for i := 0; i < n; i++ {
		row := X.Row(i)
		for j, v := range row {
			p.Mean[j] += v
		}
	}
	for j := range p.Mean {
		p.Mean[j] /= float64(n)
	}
	C := X.Clone()
	for i := 0; i < n; i++ {
		row := C.Row(i)
		for j := range row {
			row[j] -= p.Mean[j]
		}
	}
	// Covariance (d×d, scaled by 1/n).
	cov := mat.New(d, d)
	mat.TMulInto(cov, C, C)
	mat.Scale(cov, 1/float64(n))

	// Orthogonal iteration: Q ← orth(cov · Q).
	rng := rand.New(rand.NewSource(1))
	Q := mat.New(d, k)
	for i := range Q.Data {
		Q.Data[i] = rng.NormFloat64()
	}
	gramSchmidt(Q)
	const iters = 60
	CQ := mat.New(d, k) // cov·Q; swapped with Q each iteration
	for it := 0; it < iters; it++ {
		mat.MulInto(CQ, cov, Q)
		Q, CQ = CQ, Q
		gramSchmidt(Q)
	}
	// Components = Qᵀ; explained variance = diag(Qᵀ cov Q).
	p.Components = Q.T()
	mat.MulInto(CQ, cov, Q)
	p.Explained = make([]float64, k)
	for c := 0; c < k; c++ {
		s := 0.0
		for j := 0; j < d; j++ {
			s += Q.At(j, c) * CQ.At(j, c)
		}
		p.Explained[c] = s
	}
	// Order components by explained variance, descending.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < k; i++ {
		for j := i; j > 0 && p.Explained[order[j]] > p.Explained[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	comp := mat.New(k, d)
	expl := make([]float64, k)
	for r, o := range order {
		copy(comp.Row(r), p.Components.Row(o))
		expl[r] = p.Explained[o]
	}
	p.Components = comp
	p.Explained = expl
	return p
}

// gramSchmidt orthonormalizes the columns of Q in place (modified
// Gram-Schmidt). Degenerate columns are re-randomized against a fixed
// source to keep the basis full rank.
func gramSchmidt(Q *mat.Matrix) {
	d, k := Q.Rows, Q.Cols
	rng := rand.New(rand.NewSource(2))
	col := func(c int) []float64 {
		out := make([]float64, d)
		for j := 0; j < d; j++ {
			out[j] = Q.At(j, c)
		}
		return out
	}
	setCol := func(c int, v []float64) {
		for j := 0; j < d; j++ {
			Q.Set(j, c, v[j])
		}
	}
	for c := 0; c < k; c++ {
		v := col(c)
		for prev := 0; prev < c; prev++ {
			u := col(prev)
			dot := mat.Dot(u, v)
			mat.Axpy(-dot, u, v)
		}
		norm := mat.Norm2(v)
		if norm < 1e-12 {
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			for prev := 0; prev < c; prev++ {
				u := col(prev)
				mat.Axpy(-mat.Dot(u, v), u, v)
			}
			norm = mat.Norm2(v)
			if norm < 1e-12 {
				norm = 1
			}
		}
		for j := range v {
			v[j] /= norm
		}
		setCol(c, v)
	}
}

// Transform projects the rows of X onto the fitted components, returning
// an [n × k] matrix.
func (p *PCA) Transform(X *mat.Matrix) *mat.Matrix {
	n := X.Rows
	k := p.Components.Rows
	out := mat.New(n, k)
	mat.Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := X.Row(i)
			centered := make([]float64, len(row))
			for j, v := range row {
				centered[j] = v - p.Mean[j]
			}
			for c := 0; c < k; c++ {
				out.Set(i, c, mat.Dot(centered, p.Components.Row(c)))
			}
		}
	})
	return out
}

// TransformVector projects one vector.
func (p *PCA) TransformVector(v []float64) []float64 {
	k := p.Components.Rows
	centered := make([]float64, len(v))
	for j, x := range v {
		centered[j] = x - p.Mean[j]
	}
	out := make([]float64, k)
	for c := 0; c < k; c++ {
		out[c] = mat.Dot(centered, p.Components.Row(c))
	}
	return out
}

// ExplainedRatio returns the fraction of total variance captured, given
// the total variance of the fitted data (sum of column variances).
func (p *PCA) ExplainedRatio(totalVariance float64) float64 {
	if totalVariance <= 0 {
		return 0
	}
	s := 0.0
	for _, e := range p.Explained {
		s += e
	}
	r := s / totalVariance
	if r > 1 {
		r = 1
	}
	return r
}

// TotalVariance computes the sum of the column variances of X (the
// denominator of ExplainedRatio).
func TotalVariance(X *mat.Matrix) float64 {
	n, d := X.Rows, X.Cols
	if n == 0 {
		return 0
	}
	total := 0.0
	for j := 0; j < d; j++ {
		mean, m2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			mean += X.At(i, j)
		}
		mean /= float64(n)
		for i := 0; i < n; i++ {
			dv := X.At(i, j) - mean
			m2 += dv * dv
		}
		total += m2 / float64(n)
	}
	return total
}

// normalizeSign is a helper for tests: flips a component so its largest
// absolute coordinate is positive, fixing the sign ambiguity of
// eigenvectors.
func normalizeSign(v []float64) {
	maxJ := 0
	for j := range v {
		if math.Abs(v[j]) > math.Abs(v[maxJ]) {
			maxJ = j
		}
	}
	if v[maxJ] < 0 {
		for j := range v {
			v[j] = -v[j]
		}
	}
}
