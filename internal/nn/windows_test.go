package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"nodesentry/internal/mat"
)

// TestForwardWindowsEqualsForwardPerWindow pins the property every batched
// score rests on: B windows stacked through ForwardWindows reconstruct bit
// for bit what B separate Forward calls reconstruct, with the sparse MoE and
// with the dense FFN.
func TestForwardWindowsEqualsForwardPerWindow(t *testing.T) {
	const W, dim = 7, 6
	for _, useMoE := range []bool{true, false} {
		for _, B := range []int{2, 5} {
			name := fmt.Sprintf("moe=%v B=%d", useMoE, B)
			r := mustReconstructor(t, ReconstructorConfig{InputDim: dim, ModelDim: 16, Heads: 2, Hidden: 16,
				Blocks: 2, Experts: 3, TopK: 1, UseMoE: useMoE, SegmentAwarePE: true, Seed: 3})
			rng := rand.New(rand.NewSource(int64(20 + B)))
			x := randInput(rng, B*W, dim)
			positions := make([]int, B*W)
			segIDs := make([]int, B*W)
			for i := range positions {
				positions[i] = 11*(i/W) + i%W // each window at its own job offset
				segIDs[i] = i / W % 2
			}
			want := mat.New(B*W, dim)
			for b := 0; b < B; b++ {
				lo, hi := b*W, (b+1)*W
				win := x.RowsView(lo, hi)
				out := r.Forward(&win, positions[lo:hi], segIDs[lo:hi])
				copy(want.Data[lo*dim:hi*dim], out.Data) // out is arena-owned
			}
			got := r.ForwardWindows(x, W, positions, segIDs)
			if got.Rows != B*W || got.Cols != dim {
				t.Fatalf("%s: stacked output %dx%d", name, got.Rows, got.Cols)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] { // exact float comparison on purpose
					t.Fatalf("%s: element %d = %v stacked, %v window by window", name, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestBackwardAfterBatchedForwardOfAnotherShape runs the model's gradient
// check with a batched forward of a different shape before the checked
// Forward → Backward pair and between the finite-difference probes: the
// arena hands the same slab to every pass whatever its shapes, so a pass
// must never see, or depend on, what another left there.
func TestBackwardAfterBatchedForwardOfAnotherShape(t *testing.T) {
	const dim = 3
	for _, useMoE := range []bool{true, false} {
		r := mustReconstructor(t, ReconstructorConfig{InputDim: dim, ModelDim: 4, Heads: 2, Hidden: 6,
			Blocks: 1, Experts: 2, TopK: 1, UseMoE: useMoE, Seed: 5})
		for _, b := range r.blocks {
			if m := b.MoELayer(); m != nil {
				m.AuxWeight = 0 // the aux loss is not part of the checked loss
			}
		}
		rng := rand.New(rand.NewSource(31))
		batch := randInput(rng, 4*5, dim)
		x := randInput(rng, 3, dim)
		loss := func(R *mat.Matrix) float64 {
			r.ForwardWindows(batch, 5, nil, nil)
			return scalarLoss(r.Forward(x, nil, nil), R)
		}

		r.ForwardWindows(batch, 5, nil, nil)
		out := r.Forward(x, nil, nil)
		R := randInput(rng, out.Rows, out.Cols)
		for _, p := range r.Params() {
			p.ZeroGrad()
		}
		r.Backward(R.Clone())

		const eps, tol = 1e-5, 2e-4
		for pi, p := range r.Params() {
			for i := range p.W.Data {
				orig := p.W.Data[i]
				p.W.Data[i] = orig + eps
				lp := loss(R)
				p.W.Data[i] = orig - eps
				lm := loss(R)
				p.W.Data[i] = orig
				num := (lp - lm) / (2 * eps)
				if math.Abs(num-p.G.Data[i]) > tol*(1+math.Abs(num)) {
					t.Fatalf("moe=%v: param %d grad [%d] = %v, numeric %v", useMoE, pi, i, p.G.Data[i], num)
				}
			}
		}
	}
}

// TestForwardWindowsAllocatesNothing pins the serial kernels' point: once
// the arena has seen a batch, a batched forward on the scoring shapes
// starts no goroutine and allocates nothing, on a machine with more than
// one core as on one with a single core.
func TestForwardWindowsAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const W, B, dim = 20, 8, 40
	r := mustReconstructor(t, ReconstructorConfig{InputDim: dim, ModelDim: 48, Heads: 2, Hidden: 64,
		Blocks: 2, Experts: 3, TopK: 1, UseMoE: true, SegmentAwarePE: true, Seed: 1})
	x := randInput(rand.New(rand.NewSource(8)), B*W, dim)
	positions := make([]int, B*W)
	segIDs := make([]int, B*W)
	for i := range positions {
		positions[i] = i % W
		segIDs[i] = i / W % 2
	}
	r.ForwardWindows(x, W, positions, segIDs) // grows the arena
	r.ForwardWindows(x, W, positions, segIDs) // the Reset in here keeps it
	if allocs := testing.AllocsPerRun(10, func() { r.ForwardWindows(x, W, positions, segIDs) }); allocs != 0 {
		t.Fatalf("ForwardWindows on %d stacked windows: %v allocations a call, want 0", B, allocs)
	}
}
