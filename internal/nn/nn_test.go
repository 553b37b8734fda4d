package nn

import (
	"math"
	"math/rand"
	"testing"

	"nodesentry/internal/mat"
)

// scalarLoss is a fixed random linear functional of the layer output used
// for finite-difference gradient checks: L = Σ out∘R.
func scalarLoss(out, r *mat.Matrix) float64 {
	s := 0.0
	for i := range out.Data {
		s += out.Data[i] * r.Data[i]
	}
	return s
}

// gradCheck verifies a layer's input and parameter gradients against
// central finite differences.
func gradCheck(t *testing.T, name string, layer Layer, in *mat.Matrix, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	out := layer.Forward(in)
	r := mat.New(out.Rows, out.Cols)
	for i := range r.Data {
		r.Data[i] = rng.NormFloat64()
	}
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	din := layer.Backward(r.Clone())

	const eps = 1e-5
	// Input gradient.
	for i := range in.Data {
		orig := in.Data[i]
		in.Data[i] = orig + eps
		lp := scalarLoss(layer.Forward(in), r)
		in.Data[i] = orig - eps
		lm := scalarLoss(layer.Forward(in), r)
		in.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-din.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("%s: input grad [%d] = %v, numeric %v", name, i, din.Data[i], num)
		}
	}
	// Parameter gradients.
	for pi, p := range layer.Params() {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := scalarLoss(layer.Forward(in), r)
			p.W.Data[i] = orig - eps
			lm := scalarLoss(layer.Forward(in), r)
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.G.Data[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s: param %d grad [%d] = %v, numeric %v", name, pi, i, p.G.Data[i], num)
			}
		}
	}
}

// Constructors that validate their configuration return errors; tests treat
// any such error as fatal via these helpers.
func mustMoE(tb testing.TB, dim, hidden, numExperts, topK int, rng *rand.Rand) *MoE {
	tb.Helper()
	m, err := NewMoE(dim, hidden, numExperts, topK, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func mustAttention(tb testing.TB, dim, heads int, rng *rand.Rand) *MultiHeadAttention {
	tb.Helper()
	a, err := NewMultiHeadAttention(dim, heads, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

func mustEncoderBlock(tb testing.TB, dim, heads, hidden, experts, topK int, useMoE bool, rng *rand.Rand) *EncoderBlock {
	tb.Helper()
	b, err := NewEncoderBlock(dim, heads, hidden, experts, topK, useMoE, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func mustReconstructor(tb testing.TB, cfg ReconstructorConfig) *Reconstructor {
	tb.Helper()
	r, err := NewReconstructor(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func randInput(rng *rand.Rand, rows, cols int) *mat.Matrix {
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gradCheck(t, "dense", NewDense(4, 3, rng), randInput(rng, 5, 4), 1e-6)
}

func TestGELUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gradCheck(t, "gelu", &GELU{}, randInput(rng, 4, 3), 1e-5)
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	gradCheck(t, "layernorm", NewLayerNorm(6), randInput(rng, 3, 6), 1e-4)
}

func TestAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gradCheck(t, "attention", mustAttention(t, 6, 2, rng), randInput(rng, 4, 6), 1e-4)
}

func TestFFNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	gradCheck(t, "ffn", NewFFN(4, 8, rng), randInput(rng, 3, 4), 1e-5)
}

func TestMoEGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	moe := mustMoE(t, 4, 6, 3, 1, rng)
	moe.AuxWeight = 0 // the aux loss is not part of the checked loss
	gradCheck(t, "moe-top1", moe, randInput(rng, 5, 4), 1e-4)

	moe2 := mustMoE(t, 4, 6, 3, 2, rng)
	moe2.AuxWeight = 0
	gradCheck(t, "moe-top2", moe2, randInput(rng, 5, 4), 1e-4)
}

func TestEncoderBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := mustEncoderBlock(t, 4, 2, 6, 2, 1, true, rng)
	if m := b.MoELayer(); m != nil {
		m.AuxWeight = 0
	}
	gradCheck(t, "encoder-moe", b, randInput(rng, 3, 4), 2e-4)

	bd := mustEncoderBlock(t, 4, 2, 6, 0, 0, false, rng)
	gradCheck(t, "encoder-dense", bd, randInput(rng, 3, 4), 2e-4)
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gradCheck(t, "lstm", NewLSTM(3, 4, rng), randInput(rng, 5, 3), 1e-4)
}

func TestSoftmaxRowsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randInput(rng, 6, 5)
	y := mat.New(x.Rows, x.Cols)
	SoftmaxRowsInto(y, x)
	for i := 0; i < y.Rows; i++ {
		sum := 0.0
		for _, v := range y.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("softmax row sums to %v", sum)
		}
	}
	// Invariance to constant shift.
	shifted := x.Clone()
	for i := range shifted.Data {
		shifted.Data[i] += 1000
	}
	ys := mat.New(x.Rows, x.Cols)
	SoftmaxRowsInto(ys, shifted)
	for i := range y.Data {
		if math.Abs(y.Data[i]-ys.Data[i]) > 1e-9 {
			t.Fatal("softmax not shift invariant")
		}
	}
}

func TestMoERoutingRespectsTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	moe := mustMoE(t, 4, 6, 4, 2, rng)
	x := randInput(rng, 10, 4)
	moe.Forward(x)
	for tok := 0; tok < x.Rows; tok++ {
		sel := moe.selBuf[tok*moe.TopK : (tok+1)*moe.TopK]
		seen := map[int]bool{}
		for _, e := range sel {
			if e < 0 || e >= moe.NumExperts || seen[e] {
				t.Fatalf("token %d routed to invalid/duplicate expert set %v", tok, sel)
			}
			seen[e] = true
		}
	}
	loads := moe.ExpertLoad()
	total := 0
	for _, l := range loads {
		total += l
	}
	if total != 20 {
		t.Fatalf("expert loads %v should total 20", loads)
	}
}

func TestMoEAuxLossComputed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	moe := mustMoE(t, 4, 6, 3, 1, rng)
	moe.Forward(randInput(rng, 30, 4))
	// For N experts the Switch aux loss is >= 1 with equality at perfect
	// balance; any routing yields a value in [1, N].
	if moe.LastAuxLoss < 0.99 || moe.LastAuxLoss > 3.01 {
		t.Errorf("aux loss = %v, want within [1, 3]", moe.LastAuxLoss)
	}
}

func TestTopKFixed(t *testing.T) {
	got := make([]int, 2)
	topKFixed(got, []float64{0.1, 0.5, 0.2, 0.9})
	if got[0] != 1 || got[1] != 3 {
		t.Errorf("topKFixed = %v, want [1 3]", got)
	}
	// A reused (dirty) destination is fully overwritten.
	got3 := []int{7, 7, 7}
	topKFixed(got3, []float64{0.9, 0.1, 0.2, 0.5})
	if got3[0] != 0 || got3[1] != 2 || got3[2] != 3 {
		t.Errorf("topKFixed reuse = %v, want [0 2 3]", got3)
	}
	// Ties break toward the lower expert index.
	got1 := []int{-1}
	topKFixed(got1, []float64{0.5, 0.5, 0.1})
	if got1[0] != 0 {
		t.Errorf("topKFixed tie = %v, want [0]", got1)
	}
}

func TestWMSE(t *testing.T) {
	recon := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	target := mat.FromRows([][]float64{{1, 0}, {0, 4}})
	loss, grad := WMSE(recon, target, []float64{1, 2})
	// errors: (0,2),(3,0); weighted sq: 0+8, 9+0 → mean over 4 = 17/4
	if math.Abs(loss-17.0/4) > 1e-12 {
		t.Errorf("WMSE loss = %v, want 4.25", loss)
	}
	// grad[0][1] = 2*w*d/n = 2*2*2/4 = 2
	if math.Abs(grad.At(0, 1)-2) > 1e-12 {
		t.Errorf("WMSE grad = %v", grad.At(0, 1))
	}
}

func TestWMSEGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	recon := randInput(rng, 3, 4)
	target := randInput(rng, 3, 4)
	w := []float64{0.5, 1, 2, 1.5}
	_, grad := WMSE(recon, target, w)
	const eps = 1e-6
	for i := range recon.Data {
		orig := recon.Data[i]
		recon.Data[i] = orig + eps
		lp, _ := WMSE(recon, target, w)
		recon.Data[i] = orig - eps
		lm, _ := WMSE(recon, target, w)
		recon.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > 1e-6 {
			t.Fatalf("WMSE grad[%d] = %v, numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestMACWeights(t *testing.T) {
	w := MACWeights([]float64{0.1, 1.0, 10.0})
	if w[0] < w[1] || w[1] < w[2] {
		t.Errorf("weights %v should decrease with MAC", w)
	}
	mean := (w[0] + w[1] + w[2]) / 3
	if math.Abs(mean-1) > 1e-9 {
		t.Errorf("weights mean = %v, want 1", mean)
	}
	if MACWeights(nil) != nil {
		t.Error("nil MACs should give nil weights")
	}
	// Near-zero MAC must not explode thanks to the floor.
	w2 := MACWeights([]float64{1e-12, 1})
	if math.IsInf(w2[0], 0) || w2[0] > 100 {
		t.Errorf("floored weight %v too large", w2[0])
	}
}

func TestReconErrors(t *testing.T) {
	recon := mat.FromRows([][]float64{{1, 1}, {0, 0}})
	target := mat.FromRows([][]float64{{1, 1}, {2, 0}})
	errs := ReconErrors(recon, target, nil)
	if errs[0] != 0 || errs[1] != 2 {
		t.Errorf("ReconErrors = %v, want [0 2]", errs)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||W - target||² with Adam.
	p := NewParam(3, 3)
	target := []float64{1, -2, 3, 0.5, 0, -1, 2, 2, -3}
	opt := NewAdam([]*Param{p}, 0.05)
	for step := 0; step < 2000; step++ {
		for i := range p.W.Data {
			p.G.Data[i] = 2 * (p.W.Data[i] - target[i])
		}
		opt.Step()
	}
	for i := range target {
		if math.Abs(p.W.Data[i]-target[i]) > 0.01 {
			t.Fatalf("Adam did not converge: W[%d]=%v want %v", i, p.W.Data[i], target[i])
		}
	}
}

func TestClipGradients(t *testing.T) {
	p := NewParam(1, 2)
	p.G.Data[0], p.G.Data[1] = 3, 4 // norm 5
	norm := ClipGradients([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm %v, want 5", norm)
	}
	if math.Abs(p.G.Data[0]-0.6) > 1e-12 || math.Abs(p.G.Data[1]-0.8) > 1e-12 {
		t.Errorf("clipped grads %v", p.G.Data)
	}
	// Below threshold: unchanged.
	p.G.Data[0], p.G.Data[1] = 0.3, 0.4
	ClipGradients([]*Param{p}, 1)
	if p.G.Data[0] != 0.3 {
		t.Error("clip modified small gradients")
	}
}

func TestPositionalEncodingDistinguishesSegments(t *testing.T) {
	pe := &PositionalEncoding{Dim: 8, SegmentAware: true}
	a := mat.New(2, 8)
	b := mat.New(2, 8)
	pe.Apply(a, []int{0, 1}, []int{0, 0})
	pe.Apply(b, []int{0, 1}, []int{3, 3})
	diff := 0.0
	for i := range a.Data {
		diff += math.Abs(a.Data[i] - b.Data[i])
	}
	if diff < 0.1 {
		t.Error("segment-aware encoding did not distinguish segments")
	}
	// Flat encoding must not.
	pe.SegmentAware = false
	c := mat.New(2, 8)
	d := mat.New(2, 8)
	pe.Apply(c, []int{0, 1}, []int{0, 0})
	pe.Apply(d, []int{0, 1}, []int{3, 3})
	for i := range c.Data {
		if c.Data[i] != d.Data[i] {
			t.Fatal("flat encoding should ignore segment ids")
		}
	}
}

func TestReconstructorShapesAndParams(t *testing.T) {
	r := mustReconstructor(t, ReconstructorConfig{InputDim: 5, UseMoE: true, SegmentAwarePE: true, Seed: 1})
	rng := rand.New(rand.NewSource(14))
	x := randInput(rng, 7, 5)
	y := r.Forward(x, nil, nil)
	if y.Rows != 7 || y.Cols != 5 {
		t.Fatalf("reconstruction shape %dx%d", y.Rows, y.Cols)
	}
	if r.NumParams() == 0 {
		t.Error("no parameters")
	}
	loads := r.ExpertLoads()
	if len(loads) != r.Config.Blocks {
		t.Errorf("expert loads for %d blocks, want %d", len(loads), r.Config.Blocks)
	}
}

func TestReconstructorLearnsIdentity(t *testing.T) {
	// Training on a repeating pattern must reduce reconstruction loss a lot.
	cfg := ReconstructorConfig{InputDim: 4, ModelDim: 16, Heads: 2, Hidden: 16,
		Blocks: 1, Experts: 2, TopK: 1, UseMoE: true, Seed: 2}
	r := mustReconstructor(t, cfg)
	opt := NewAdam(r.Params(), 3e-3)
	rng := rand.New(rand.NewSource(15))
	window := func() *mat.Matrix {
		x := mat.New(10, 4)
		phase := rng.Float64()
		for i := 0; i < 10; i++ {
			for j := 0; j < 4; j++ {
				x.Set(i, j, math.Sin(float64(i)/2+phase+float64(j)))
			}
		}
		return x
	}
	var first, last float64
	for step := 0; step < 150; step++ {
		x := window()
		y := r.Forward(x, nil, nil)
		loss, grad := MSE(y, x)
		if step == 0 {
			first = loss
		}
		last = loss
		r.Backward(grad)
		ClipGradients(r.Params(), 5)
		opt.Step()
	}
	if last > first*0.2 {
		t.Errorf("loss did not drop: first %v last %v", first, last)
	}
}

func TestSequentialComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	seq := &Sequential{Layers: []Layer{
		NewDense(3, 5, rng), &GELU{}, NewDense(5, 2, rng),
	}}
	gradCheck(t, "sequential", seq, randInput(rng, 4, 3), 1e-5)
}

func TestAttentionRejectsBadHeads(t *testing.T) {
	if _, err := NewMultiHeadAttention(5, 2, rand.New(rand.NewSource(1))); err == nil {
		t.Error("expected error for dim % heads != 0")
	}
}
