// Package nn is the neural substrate of NodeSentry: a small, dependency-free
// deep-learning library with hand-written backward passes, sufficient to
// train the paper's Transformer-with-MoE reconstruction model and the
// deep-learning baselines (autoencoder, VAE, LSTM).
//
// Design:
//   - Activations are mat.Matrix values shaped [tokens × features]; a token
//     is one time step of a segment window.
//   - A Layer owns parameters and forward caches. Layers are NOT safe for
//     concurrent use; parallel training uses independent model instances
//     (NodeSentry trains one model per cluster, which parallelizes at the
//     cluster level).
//   - Backward passes accumulate into Param.G; Adam consumes and zeroes
//     the gradients.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"nodesentry/internal/mat"
)

// alloc returns a rows×cols zeroed matrix from the arena when one is wired,
// falling back to a fresh allocation so layers keep working standalone
// (baselines, unit tests). Hot forward paths route every temporary through
// this helper; with an arena, steady-state Forwards allocate nothing.
func alloc(a *mat.Arena, rows, cols int) *mat.Matrix {
	if a != nil {
		return a.Get(rows, cols)
	}
	return mat.New(rows, cols)
}

// failShape panics with a formatted shape-contract violation.
func failShape(format string, args ...any) {
	//lint:ignore libpanic shape violations are programmer errors; panicking matches the mat kernel contract
	panic("nn: " + fmt.Sprintf(format, args...))
}

// Param is one trainable parameter matrix with its gradient accumulator.
type Param struct {
	W *mat.Matrix
	G *mat.Matrix
}

// NewParam allocates a zeroed parameter of the given shape.
func NewParam(rows, cols int) *Param {
	return &Param{W: mat.New(rows, cols), G: mat.New(rows, cols)}
}

// XavierInit fills the parameter with Glorot-uniform values.
func (p *Param) XavierInit(rng *rand.Rand) {
	limit := math.Sqrt(6 / float64(p.W.Rows+p.W.Cols))
	for i := range p.W.Data {
		p.W.Data[i] = (2*rng.Float64() - 1) * limit
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Layer is the unit of composition: a differentiable map between token
// matrices.
type Layer interface {
	// Forward maps x [T×in] to [T×out], caching whatever Backward needs.
	Forward(x *mat.Matrix) *mat.Matrix
	// Backward receives dL/d(output) and returns dL/d(input), adding
	// parameter gradients into Params().G. Must follow the matching
	// Forward call.
	Backward(grad *mat.Matrix) *mat.Matrix
	// Params lists the layer's trainable parameters.
	Params() []*Param
}

// SoftmaxRowsInto writes the row-wise softmax of x into dst. dst may alias
// x (in-place): each row's max is read before any element is written, and
// every element is read before being overwritten.
//
//perf:hot
func SoftmaxRowsInto(dst, x *mat.Matrix) {
	if dst.Rows != x.Rows || dst.Cols != x.Cols {
		failShape("SoftmaxRowsInto destination shape %dx%d, want %dx%d", dst.Rows, dst.Cols, x.Rows, x.Cols)
	}
	for i := 0; i < x.Rows; i++ {
		softmaxInto(dst.Row(i), x.Row(i))
	}
}

func softmaxInto(dst, src []float64) {
	maxV := math.Inf(-1)
	for _, v := range src {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for j, v := range src {
		e := math.Exp(v - maxV)
		dst[j] = e
		sum += e
	}
	if sum == 0 {
		for j := range dst {
			dst[j] = 1 / float64(len(dst))
		}
		return
	}
	for j := range dst {
		dst[j] /= sum
	}
}

// SoftmaxBackwardRow computes dz for one row given y = softmax(z) and
// dy: dz_j = y_j * (dy_j - Σ_k dy_k y_k).
func SoftmaxBackwardRow(dz, y, dy []float64) {
	dot := 0.0
	for k := range y {
		dot += dy[k] * y[k]
	}
	for j := range y {
		dz[j] = y[j] * (dy[j] - dot)
	}
}

// Dense is a fully connected layer: y = xW + b.
type Dense struct {
	Weight *Param
	Bias   *Param
	x      *mat.Matrix // forward cache
	arena  *mat.Arena
}

// NewDense builds an in×out dense layer with Xavier-initialized weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{Weight: NewParam(in, out), Bias: NewParam(1, out)}
	d.Weight.XavierInit(rng)
	return d
}

// Forward implements Layer.
//
//perf:hot
func (d *Dense) Forward(x *mat.Matrix) *mat.Matrix {
	d.x = x
	y := alloc(d.arena, x.Rows, d.Weight.W.Cols)
	mat.MulInto(y, x, d.Weight.W)
	mat.AddRowVector(y, d.Bias.W.Row(0))
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(grad *mat.Matrix) *mat.Matrix {
	wg := alloc(d.arena, d.Weight.G.Rows, d.Weight.G.Cols)
	mat.TMulInto(wg, d.x, grad)
	mat.AddInPlace(d.Weight.G, wg)
	bg := d.Bias.G.Row(0)
	for i := 0; i < grad.Rows; i++ {
		row := grad.Row(i)
		for j, v := range row {
			bg[j] += v
		}
	}
	dx := alloc(d.arena, grad.Rows, d.Weight.W.Rows)
	mat.MulTInto(dx, grad, d.Weight.W)
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// GELU is the Gaussian-error linear unit activation (tanh approximation).
type GELU struct {
	x     *mat.Matrix
	arena *mat.Arena
}

const geluC = 0.7978845608028654 // sqrt(2/pi)

// Forward implements Layer.
//
//perf:hot
func (g *GELU) Forward(x *mat.Matrix) *mat.Matrix {
	g.x = x
	y := alloc(g.arena, x.Rows, x.Cols)
	for i, v := range x.Data {
		y.Data[i] = 0.5 * v * (1 + math.Tanh(geluC*(v+0.044715*v*v*v)))
	}
	return y
}

// Backward implements Layer.
func (g *GELU) Backward(grad *mat.Matrix) *mat.Matrix {
	out := alloc(g.arena, grad.Rows, grad.Cols)
	for i, v := range g.x.Data {
		u := geluC * (v + 0.044715*v*v*v)
		t := math.Tanh(u)
		du := geluC * (1 + 3*0.044715*v*v)
		d := 0.5*(1+t) + 0.5*v*(1-t*t)*du
		out.Data[i] = grad.Data[i] * d
	}
	return out
}

// Params implements Layer.
func (g *GELU) Params() []*Param { return nil }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// Forward implements Layer.
//
//perf:hot
func (s *Sequential) Forward(x *mat.Matrix) *mat.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *mat.Matrix) *mat.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// LayerNorm normalizes each token (row) to zero mean and unit variance,
// then applies a learned affine transform.
type LayerNorm struct {
	Gamma *Param
	Beta  *Param
	Eps   float64
	// caches
	norm   *mat.Matrix
	invStd []float64
	arena  *mat.Arena
}

// NewLayerNorm builds a layer norm over dim features.
func NewLayerNorm(dim int) *LayerNorm {
	ln := &LayerNorm{Gamma: NewParam(1, dim), Beta: NewParam(1, dim), Eps: 1e-5}
	for i := range ln.Gamma.W.Data {
		ln.Gamma.W.Data[i] = 1
	}
	return ln
}

// Forward implements Layer.
//
//perf:hot
func (ln *LayerNorm) Forward(x *mat.Matrix) *mat.Matrix {
	// norm is a forward cache read by Backward; with an arena it stays
	// valid until the model's next Forward resets the arena. invStd is a
	// grow-once buffer fully overwritten below.
	ln.norm = alloc(ln.arena, x.Rows, x.Cols)
	ln.invStd = mat.GrowFloats(ln.invStd, x.Rows)
	out := alloc(ln.arena, x.Rows, x.Cols)
	gamma := ln.Gamma.W.Row(0)
	beta := ln.Beta.W.Row(0)
	n := float64(x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= n
		varSum := 0.0
		for _, v := range row {
			d := v - mean
			varSum += d * d
		}
		inv := 1 / math.Sqrt(varSum/n+ln.Eps)
		ln.invStd[i] = inv
		nrow := ln.norm.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			nv := (v - mean) * inv
			nrow[j] = nv
			orow[j] = nv*gamma[j] + beta[j]
		}
	}
	return out
}

// Backward implements Layer.
func (ln *LayerNorm) Backward(grad *mat.Matrix) *mat.Matrix {
	out := alloc(ln.arena, grad.Rows, grad.Cols)
	gamma := ln.Gamma.W.Row(0)
	gg := ln.Gamma.G.Row(0)
	bg := ln.Beta.G.Row(0)
	n := float64(grad.Cols)
	for i := 0; i < grad.Rows; i++ {
		grow := grad.Row(i)
		nrow := ln.norm.Row(i)
		// Parameter grads.
		for j := range grow {
			gg[j] += grow[j] * nrow[j]
			bg[j] += grow[j]
		}
		// dxhat = grad * gamma; dx = (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat)) * invStd
		var sumD, sumDX float64
		for j := range grow {
			d := grow[j] * gamma[j]
			sumD += d
			sumDX += d * nrow[j]
		}
		inv := ln.invStd[i]
		orow := out.Row(i)
		for j := range grow {
			d := grow[j] * gamma[j]
			orow[j] = (d - sumD/n - nrow[j]*sumDX/n) * inv
		}
	}
	return out
}

// Params implements Layer.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// Adam is the Adam optimizer over a fixed parameter set.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	t       int
	m, v    []*mat.Matrix
	targets []*Param
}

// NewAdam builds an optimizer for the given parameters.
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, targets: params}
	for _, p := range params {
		a.m = append(a.m, mat.New(p.W.Rows, p.W.Cols))
		a.v = append(a.v, mat.New(p.W.Rows, p.W.Cols))
	}
	return a
}

// Step applies one update from the accumulated gradients and zeroes them.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for k, p := range a.targets {
		m, v := a.m[k], a.v[k]
		for i, g := range p.G.Data {
			m.Data[i] = a.Beta1*m.Data[i] + (1-a.Beta1)*g
			v.Data[i] = a.Beta2*v.Data[i] + (1-a.Beta2)*g*g
			mh := m.Data[i] / bc1
			vh := v.Data[i] / bc2
			p.W.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// ClipGradients scales all gradients down so their global L2 norm does not
// exceed maxNorm, returning the pre-clip norm.
func ClipGradients(params []*Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.G.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.G.Data {
				p.G.Data[i] *= scale
			}
		}
	}
	return norm
}
