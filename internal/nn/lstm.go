package nn

import (
	"math"
	"math/rand"

	"nodesentry/internal/mat"
)

// LSTM is a single-layer LSTM over a token sequence, used by the RUAD
// baseline (which trains an LSTM reconstruction model per node). Gates are
// packed [i f g o] along the columns of the parameter matrices.
type LSTM struct {
	In, Hidden int
	Wx         *Param // [In × 4H]
	Wh         *Param // [H × 4H]
	B          *Param // [1 × 4H]

	// forward caches
	x      *mat.Matrix
	gates  *mat.Matrix // [T × 4H] post-activation
	cells  *mat.Matrix // [T × H]
	hidden *mat.Matrix // [T × H]
}

// NewLSTM builds an in→hidden LSTM with Xavier-initialized weights and the
// customary forget-gate bias of 1.
func NewLSTM(in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		Wx: NewParam(in, 4*hidden),
		Wh: NewParam(hidden, 4*hidden),
		B:  NewParam(1, 4*hidden),
	}
	l.Wx.XavierInit(rng)
	l.Wh.XavierInit(rng)
	for j := hidden; j < 2*hidden; j++ {
		l.B.W.Data[j] = 1 // forget gate bias
	}
	return l
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Forward implements Layer: x [T×In] → hidden states [T×Hidden], starting
// from zero state.
func (l *LSTM) Forward(x *mat.Matrix) *mat.Matrix {
	T := x.Rows
	H := l.Hidden
	l.x = x
	l.gates = mat.New(T, 4*H)
	l.cells = mat.New(T, H)
	l.hidden = mat.New(T, H)

	pre := mat.New(T, 4*H)
	mat.MulInto(pre, x, l.Wx.W)
	hPrev := make([]float64, H)
	cPrev := make([]float64, H)
	for t := 0; t < T; t++ {
		z := pre.Row(t)
		// z += hPrev·Wh + b
		for j := 0; j < 4*H; j++ {
			s := l.B.W.Data[j]
			for k := 0; k < H; k++ {
				s += hPrev[k] * l.Wh.W.At(k, j)
			}
			z[j] += s
		}
		g := l.gates.Row(t)
		c := l.cells.Row(t)
		h := l.hidden.Row(t)
		for k := 0; k < H; k++ {
			i := sigmoid(z[k])
			f := sigmoid(z[H+k])
			gg := math.Tanh(z[2*H+k])
			o := sigmoid(z[3*H+k])
			g[k], g[H+k], g[2*H+k], g[3*H+k] = i, f, gg, o
			c[k] = f*cPrev[k] + i*gg
			h[k] = o * math.Tanh(c[k])
		}
		hPrev, cPrev = h, c
	}
	return l.hidden
}

// Backward implements Layer (full BPTT from zero initial state).
func (l *LSTM) Backward(grad *mat.Matrix) *mat.Matrix {
	T := grad.Rows
	H := l.Hidden
	dx := mat.New(T, l.In)
	dhNext := make([]float64, H)
	dcNext := make([]float64, H)
	dz := make([]float64, 4*H)
	for t := T - 1; t >= 0; t-- {
		g := l.gates.Row(t)
		c := l.cells.Row(t)
		var cPrev []float64
		if t > 0 {
			cPrev = l.cells.Row(t - 1)
		} else {
			cPrev = make([]float64, H)
		}
		dh := make([]float64, H)
		copy(dh, grad.Row(t))
		for k := 0; k < H; k++ {
			dh[k] += dhNext[k]
		}
		for k := 0; k < H; k++ {
			i, f, gg, o := g[k], g[H+k], g[2*H+k], g[3*H+k]
			tc := math.Tanh(c[k])
			do := dh[k] * tc
			dc := dh[k]*o*(1-tc*tc) + dcNext[k]
			di := dc * gg
			dg := dc * i
			df := dc * cPrev[k]
			dcNext[k] = dc * f
			dz[k] = di * i * (1 - i)
			dz[H+k] = df * f * (1 - f)
			dz[2*H+k] = dg * (1 - gg*gg)
			dz[3*H+k] = do * o * (1 - o)
		}
		// Parameter grads.
		xRow := l.x.Row(t)
		for a, xv := range xRow {
			if xv == 0 {
				continue
			}
			wrow := l.Wx.G.Row(a)
			for j := 0; j < 4*H; j++ {
				wrow[j] += xv * dz[j]
			}
		}
		if t > 0 {
			hPrev := l.hidden.Row(t - 1)
			for a, hv := range hPrev {
				if hv == 0 {
					continue
				}
				wrow := l.Wh.G.Row(a)
				for j := 0; j < 4*H; j++ {
					wrow[j] += hv * dz[j]
				}
			}
		}
		bg := l.B.G.Row(0)
		for j := 0; j < 4*H; j++ {
			bg[j] += dz[j]
		}
		// Input grads and recurrent grads.
		dxRow := dx.Row(t)
		for a := 0; a < l.In; a++ {
			s := 0.0
			wrow := l.Wx.W.Row(a)
			for j := 0; j < 4*H; j++ {
				s += wrow[j] * dz[j]
			}
			dxRow[a] = s
		}
		for k := 0; k < H; k++ {
			s := 0.0
			wrow := l.Wh.W.Row(k)
			for j := 0; j < 4*H; j++ {
				s += wrow[j] * dz[j]
			}
			dhNext[k] = s
		}
	}
	return dx
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }
