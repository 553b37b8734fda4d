package nn

import (
	"math"
	"math/rand"

	"nodesentry/internal/mat"
)

// PositionalEncoding adds the sinusoidal position signal of the input
// tokens, enhanced — as §3.4 describes — with a *segment* component so the
// model can distinguish positions within a segment from positions across
// the K segments concatenated into one training stream. Ablation C4
// disables the segment component. Build it with NewPositionalEncoding.
type PositionalEncoding struct {
	Dim int
	// SegmentAware enables the inter-segment encoding component.
	SegmentAware bool
	// freq[p] and segFreq[p] are the position and segment frequencies of
	// the column pair 2p, 2p+1. They depend only on Dim, so
	// NewPositionalEncoding computes them once for every forward pass.
	freq, segFreq []float64
}

// NewPositionalEncoding returns the encoding for dim-wide tokens.
func NewPositionalEncoding(dim int, segmentAware bool) *PositionalEncoding {
	pe := &PositionalEncoding{
		Dim:          dim,
		SegmentAware: segmentAware,
		freq:         make([]float64, (dim+1)/2),
		segFreq:      make([]float64, (dim+1)/2),
	}
	for j := 0; j < dim; j += 2 {
		pe.freq[j/2] = math.Pow(10000, -float64(j)/float64(dim))
		pe.segFreq[j/2] = math.Pow(777, -float64(j)/float64(dim))
	}
	return pe
}

// Apply adds the encoding in place to x, where positions[i] is token i's
// offset within its segment and segIDs[i] is the index of the segment the
// token belongs to. positions/segIDs may be nil, meaning 0..T-1 and all-0.
func (pe *PositionalEncoding) Apply(x *mat.Matrix, positions, segIDs []int) {
	for t := 0; t < x.Rows; t++ {
		pos := t
		if positions != nil {
			pos = positions[t]
		}
		seg := 0
		if segIDs != nil {
			seg = segIDs[t]
		}
		row := x.Row(t)
		for j := 0; j < pe.Dim; j += 2 {
			freq := pe.freq[j/2]
			row[j] += math.Sin(float64(pos) * freq)
			if j+1 < pe.Dim {
				row[j+1] += math.Cos(float64(pos) * freq)
			}
		}
		if pe.SegmentAware && seg != 0 {
			// Offset the whole token by a segment-dependent sinusoid with a
			// distinct base so within- and between-segment positions are
			// separable.
			for j := 0; j < pe.Dim; j += 2 {
				freq := pe.segFreq[j/2]
				row[j] += 0.5 * math.Sin(float64(seg)*freq)
				if j+1 < pe.Dim {
					row[j+1] += 0.5 * math.Cos(float64(seg)*freq)
				}
			}
		}
	}
}

// EncoderBlock is one pre-norm Transformer encoder block whose
// feed-forward sub-layer is either a sparse MoE (the NodeSentry design) or
// a dense FFN (ablation C5).
type EncoderBlock struct {
	ln1  *LayerNorm
	attn *MultiHeadAttention
	ln2  *LayerNorm
	ff   Layer // *MoE or *FFN

	// caches for the residual adds
	x1    *mat.Matrix
	arena *mat.Arena
}

// NewEncoderBlock builds a block; moe selects the sparse layer.
func NewEncoderBlock(dim, heads, hidden, experts, topK int, moe bool, rng *rand.Rand) (*EncoderBlock, error) {
	attn, err := NewMultiHeadAttention(dim, heads, rng)
	if err != nil {
		return nil, err
	}
	b := &EncoderBlock{
		ln1:  NewLayerNorm(dim),
		attn: attn,
		ln2:  NewLayerNorm(dim),
	}
	if moe {
		ff, err := NewMoE(dim, hidden, experts, topK, rng)
		if err != nil {
			return nil, err
		}
		b.ff = ff
	} else {
		b.ff = NewFFN(dim, hidden, rng)
	}
	return b, nil
}

// MoELayer returns the block's MoE layer, or nil in dense mode.
func (b *EncoderBlock) MoELayer() *MoE {
	if m, ok := b.ff.(*MoE); ok {
		return m
	}
	return nil
}

// Forward implements Layer.
//
//perf:hot
func (b *EncoderBlock) Forward(x *mat.Matrix) *mat.Matrix {
	// x1 = x + Attn(LN(x))
	a := b.attn.Forward(b.ln1.Forward(x))
	x1 := alloc(b.arena, x.Rows, x.Cols)
	mat.AddTo(x1, x, a)
	b.x1 = x1
	// y = x1 + FF(LN(x1))
	f := b.ff.Forward(b.ln2.Forward(x1))
	y := alloc(b.arena, x.Rows, x.Cols)
	mat.AddTo(y, x1, f)
	return y
}

// Backward implements Layer.
func (b *EncoderBlock) Backward(grad *mat.Matrix) *mat.Matrix {
	// y = x1 + FF(LN2(x1))
	dx1 := alloc(b.arena, grad.Rows, grad.Cols)
	mat.CopyInto(dx1, grad)
	mat.AddInPlace(dx1, b.ln2.Backward(b.ff.Backward(grad)))
	// x1 = x + Attn(LN1(x))
	dx := alloc(b.arena, grad.Rows, grad.Cols)
	mat.CopyInto(dx, dx1)
	mat.AddInPlace(dx, b.ln1.Backward(b.attn.Backward(dx1)))
	return dx
}

// Params implements Layer.
func (b *EncoderBlock) Params() []*Param {
	var out []*Param
	out = append(out, b.ln1.Params()...)
	out = append(out, b.attn.Params()...)
	out = append(out, b.ln2.Params()...)
	out = append(out, b.ff.Params()...)
	return out
}

// ReconstructorConfig parameterizes the reconstruction model.
type ReconstructorConfig struct {
	// InputDim is the (reduced) metric count.
	InputDim int `json:"-"`
	// ModelDim is the token embedding width.
	ModelDim int `json:"model_dim"`
	// Heads is the attention head count (3 in the paper's artifact).
	Heads int `json:"heads"`
	// Hidden is the expert/FFN hidden width.
	Hidden int `json:"hidden"`
	// Blocks is the encoder depth (3 in the paper's artifact).
	Blocks int `json:"blocks"`
	// Experts is the MoE expert count (3 in the paper).
	Experts int `json:"experts"`
	// TopK experts are combined per token (1 in the paper).
	TopK int `json:"top_k"`
	// UseMoE selects sparse MoE (true) or dense FFN (ablation C5).
	UseMoE bool `json:"-"`
	// SegmentAwarePE enables the inter-segment positional component
	// (disabled by ablation C4).
	SegmentAwarePE bool `json:"-"`
	// Seed initializes the weights.
	Seed int64 `json:"-"`
}

// Defaults fills unset fields with the paper's artifact configuration.
func (c ReconstructorConfig) Defaults() ReconstructorConfig {
	if c.ModelDim == 0 {
		c.ModelDim = 32
	}
	if c.Heads == 0 {
		c.Heads = 2
	}
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	if c.Blocks == 0 {
		c.Blocks = 2
	}
	if c.Experts == 0 {
		c.Experts = 3
	}
	if c.TopK == 0 {
		c.TopK = 1
	}
	return c
}

// Reconstructor is the §3.4 model: tokens (metric vectors per time step)
// are embedded, positionally encoded, passed through Transformer encoder
// blocks with sparse-MoE feed-forwards, and decoded back to metric space.
// The reconstruction error is the anomaly score.
type Reconstructor struct {
	Config ReconstructorConfig
	embed  *Dense
	pe     *PositionalEncoding
	blocks []*EncoderBlock
	decode *Dense
	arena  *mat.Arena
}

// NewReconstructor builds the model.
func NewReconstructor(cfg ReconstructorConfig) (*Reconstructor, error) {
	cfg = cfg.Defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := &Reconstructor{
		Config: cfg,
		embed:  NewDense(cfg.InputDim, cfg.ModelDim, rng),
		pe:     NewPositionalEncoding(cfg.ModelDim, cfg.SegmentAwarePE),
		decode: NewDense(cfg.ModelDim, cfg.InputDim, rng),
	}
	for i := 0; i < cfg.Blocks; i++ {
		blk, err := NewEncoderBlock(
			cfg.ModelDim, cfg.Heads, cfg.Hidden, cfg.Experts, cfg.TopK, cfg.UseMoE, rng)
		if err != nil {
			return nil, err
		}
		r.blocks = append(r.blocks, blk)
	}
	r.wireArena(mat.NewArena())
	return r, nil
}

// wireArena threads one arena through every layer of the model. The arena
// is reset at the top of each Forward, so the whole model shares one
// grow-once pool; Backward's temporaries append after Forward's, keeping
// forward caches valid through the backward pass. One arena per model
// instance preserves the package's layer concurrency contract.
func (r *Reconstructor) wireArena(a *mat.Arena) {
	r.arena = a
	wireLayer(r.embed, a)
	wireLayer(r.decode, a)
	for _, b := range r.blocks {
		b.arena = a
		b.ln1.arena = a
		b.attn.arena = a
		b.ln2.arena = a
		wireLayer(b.ff, a)
	}
}

// wireLayer points a layer (recursively) at the arena.
func wireLayer(l Layer, a *mat.Arena) {
	switch v := l.(type) {
	case *Dense:
		v.arena = a
	case *GELU:
		v.arena = a
	case *LayerNorm:
		v.arena = a
	case *MultiHeadAttention:
		v.arena = a
	case *Sequential:
		for _, c := range v.Layers {
			wireLayer(c, a)
		}
	case *MoE:
		v.arena = a
		for _, e := range v.Experts {
			wireLayer(e.net, a)
		}
	case *FFN:
		wireLayer(v.net, a)
	}
}

// Forward reconstructs the window x [T × InputDim]; positions/segIDs feed
// the (segment-aware) positional encoding and may be nil. Embeddings are
// scaled by √ModelDim (as in the original Transformer) so the positional
// signal does not drown the value signal.
//
// The returned matrix is arena-owned: it is valid until the model's next
// Forward/ForwardWindows call. Callers that retain it longer must copy.
//
//perf:hot
func (r *Reconstructor) Forward(x *mat.Matrix, positions, segIDs []int) *mat.Matrix {
	return r.ForwardWindows(x, x.Rows, positions, segIDs)
}

// ForwardWindows reconstructs a batch of equal-length windows stacked
// row-wise into x [(B·winLen) × InputDim]. Attention is restricted to
// winLen×winLen diagonal blocks, so the output is byte-identical to B
// separate Forward calls over the individual windows — every other kernel
// in the model is per-row. positions/segIDs follow the stacked layout.
// The returned matrix is arena-owned (valid until the next forward call).
//
//perf:hot
func (r *Reconstructor) ForwardWindows(x *mat.Matrix, winLen int, positions, segIDs []int) *mat.Matrix {
	if winLen <= 0 {
		winLen = x.Rows
	}
	if winLen > 0 && x.Rows%winLen != 0 {
		failShape("ForwardWindows: %d rows not a multiple of window length %d", x.Rows, winLen)
	}
	if r.arena != nil {
		r.arena.Reset()
	}
	for _, b := range r.blocks {
		b.attn.blockLen = winLen
	}
	h := r.embed.Forward(x)
	mat.Scale(h, math.Sqrt(float64(r.Config.ModelDim)))
	r.pe.Apply(h, positions, segIDs)
	for _, b := range r.blocks {
		h = b.Forward(h)
	}
	return r.decode.Forward(h)
}

// Backward propagates the reconstruction-loss gradient.
func (r *Reconstructor) Backward(grad *mat.Matrix) {
	g := r.decode.Backward(grad)
	for i := len(r.blocks) - 1; i >= 0; i-- {
		g = r.blocks[i].Backward(g)
	}
	r.embed.Backward(mat.Scale(g, math.Sqrt(float64(r.Config.ModelDim))))
}

// Params lists all trainable parameters.
func (r *Reconstructor) Params() []*Param {
	out := r.embed.Params()
	for _, b := range r.blocks {
		out = append(out, b.Params()...)
	}
	out = append(out, r.decode.Params()...)
	return out
}

// NumParams returns the total scalar parameter count.
func (r *Reconstructor) NumParams() int {
	n := 0
	for _, p := range r.Params() {
		n += len(p.W.Data)
	}
	return n
}

// ExpertLoads aggregates per-block expert loads of the latest forward pass
// (empty in dense mode).
func (r *Reconstructor) ExpertLoads() [][]int {
	var out [][]int
	for _, b := range r.blocks {
		if m := b.MoELayer(); m != nil {
			out = append(out, m.ExpertLoad())
		}
	}
	return out
}
