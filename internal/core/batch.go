package core

import (
	"nodesentry/internal/mat"
	"nodesentry/internal/mts"
	"nodesentry/internal/nn"
	"nodesentry/internal/preprocess"
)

// scoreScratch is the detector's grow-once buffer set for the score path
// (Detect / ScoreFrame / ScoreFrameBatch / MatchPattern). The frames and the
// packed-window matrix are reused across calls, so steady-state scoring stops
// paying the Clone + Reduction.Apply allocation tax of the cold Preprocess
// path. Detector methods are not concurrency-safe on one instance — the
// runtime Monitor gives each scoring lane its own clone — so plain reuse is
// sound.
type scoreScratch struct {
	raw mts.NodeFrame
	red mts.NodeFrame
	// x, positions and segIDs hold the packed windows scoreWindows runs:
	// B windows of equal length stacked row-wise.
	x         mat.Matrix
	positions []int
	segIDs    []int
	// errs receives one chunk's scores in scoreSegment.
	errs []float64
}

// resize readies the scratch for rows packed window rows of cols metrics.
// Contents are undefined until windowInto fills every slot.
func (s *scoreScratch) resize(rows, cols int) {
	s.x.Rows, s.x.Cols = rows, cols
	s.x.Data = mat.GrowFloats(s.x.Data, rows*cols)
	s.positions = mat.GrowInts(s.positions, rows)
	s.segIDs = mat.GrowInts(s.segIDs, rows)
}

// preprocessInto is Preprocess with detector-owned scratch: the raw frame
// is copied into a reusable buffer (Clean repairs in place), reduced with
// Reduction.ApplyInto, and standardized. The returned frame is valid until
// the next preprocessInto call. Per-series cleaning and per-row reduction/
// standardization are order-independent, so the result is byte-identical
// to the allocating Preprocess.
func (d *Detector) preprocessInto(frame *mts.NodeFrame) *mts.NodeFrame {
	s := &d.scratch
	T := frame.Len()
	if cap(s.raw.Data) < len(frame.Data) {
		s.raw.Data = make([][]float64, len(frame.Data))
	}
	s.raw.Data = s.raw.Data[:len(frame.Data)]
	for m, row := range frame.Data {
		s.raw.Data[m] = mat.GrowFloats(s.raw.Data[m], T)
		copy(s.raw.Data[m], row)
	}
	s.raw.Node = frame.Node
	s.raw.Metrics = frame.Metrics
	s.raw.Start = frame.Start
	s.raw.Step = frame.Step
	for _, row := range s.raw.Data {
		preprocess.CleanSeries(row)
	}

	nOut := d.red.NumOutput()
	if cap(s.red.Data) < nOut {
		s.red.Data = make([][]float64, nOut)
	}
	s.red.Data = s.red.Data[:nOut]
	for i := range s.red.Data {
		s.red.Data[i] = mat.GrowFloats(s.red.Data[i], T)
	}
	if s.red.Metrics == nil {
		s.red.Metrics = d.red.OutputNames()
	}
	d.red.ApplyInto(&s.red, &s.raw)
	d.std.Apply(&s.red)
	return &s.red
}

// windowInto packs rows [lo, lo+n) of the preprocessed frame f into window
// slot of the stacked matrix (n rows per slot), with positions counting from
// pos and segment id 0.
func (s *scoreScratch) windowInto(slot int, f *mts.NodeFrame, lo, n, pos int) {
	base := slot * n
	for t := 0; t < n; t++ {
		row := s.x.Row(base + t)
		for m := range f.Data {
			row[m] = f.Data[m][lo+t]
		}
		s.positions[base+t] = pos + t
		s.segIDs[base+t] = 0
	}
}

// scoreWindows is the one place a trained detector runs a model to score.
// The windows packed in d.scratch — B windows of winLen rows each — go
// through one stacked forward pass whose attention is block-diagonal per
// window, and dst receives one normalized reconstruction error per packed
// row: bit for bit what B single-window passes would produce.
func (d *Detector) scoreWindows(dst []float64, cm *clusterModel, winLen int) {
	s := &d.scratch
	pred := cm.model.ForwardWindows(&s.x, winLen, s.positions, s.segIDs)
	nn.ReconErrorsInto(dst, pred, &s.x, cm.weights)
	inv := 1.0
	if cm.scale > 0 {
		inv = 1 / cm.scale
	}
	for i := range dst {
		dst[i] *= inv
	}
}

// segmentBatchWindows is how many windows of one segment scoreSegment stacks
// per forward pass. It only bounds the scratch and the model's arena slab on
// long (offline) segments; scores do not depend on it.
const segmentBatchWindows = 16

// scoreSegment reconstructs the segment of the preprocessed frame f with cm
// and writes the per-sample normalized errors into scores. The segment is cut
// the way segmentWindows cuts it for training — non-overlapping windows, the
// tail covered by a window aligned to the segment end, a segment shorter than
// the window being one short window — and the tail's scores are written last.
func (d *Detector) scoreSegment(f *mts.NodeFrame, seg mts.Segment, cm *clusterModel, scores []float64) {
	n := seg.Len()
	W := min(d.opts.WindowLen, n)
	if W <= 0 {
		return
	}
	s := &d.scratch
	windows := (n + W - 1) / W
	// lo is window i's first sample within the segment; n-W is the tail's.
	lo := func(i int) int { return min(i*W, n-W) }
	for first := 0; first < windows; first += segmentBatchWindows {
		B := min(segmentBatchWindows, windows-first)
		s.resize(B*W, d.red.NumOutput())
		for b := 0; b < B; b++ {
			s.windowInto(b, f, seg.Lo+lo(first+b), W, seg.Offset+lo(first+b))
		}
		s.errs = mat.GrowFloats(s.errs, B*W)
		d.scoreWindows(s.errs, cm, W)
		for b := 0; b < B; b++ {
			copy(scores[seg.Lo+lo(first+b):], s.errs[b*W:(b+1)*W])
		}
	}
}

// ScoreFrame scores a raw frame with a specific cluster's model, returning
// one normalized reconstruction-error score per sample. offset is the
// frame's first-sample position within its job, so streaming windows keep
// job-aligned positional encodings. It is ScoreFrameBatch with one frame.
func (d *Detector) ScoreFrame(frame *mts.NodeFrame, cluster int, offset int) []float64 {
	return d.ScoreFrameBatch([]*mts.NodeFrame{frame}, cluster, []int{offset})[0]
}

// ScoreFrameBatch scores B raw frames against one cluster's model.
// offsets[i] is frame i's first-sample position within its job (as in
// ScoreFrame). Frames of one common length no longer than the model window
// — what a streaming monitor produces — are scored in a single stacked
// forward pass: the windows are concatenated row-wise and attention runs
// block-diagonally per window, so the scores are byte-identical to scoring
// each frame alone at a fraction of the dispatch cost. Any other batch
// (unequal lengths, frames longer than the window) is scored frame by frame,
// each frame's windows stacked the same way.
func (d *Detector) ScoreFrameBatch(frames []*mts.NodeFrame, cluster int, offsets []int) [][]float64 {
	out := make([][]float64, len(frames))
	if len(frames) == 0 {
		return out
	}
	if cluster < 0 || cluster >= len(d.library) {
		for i, f := range frames {
			out[i] = make([]float64, f.Len())
		}
		return out
	}
	cm := d.library[cluster]
	W := frames[0].Len()
	stackable := W > 0 && W <= d.opts.WindowLen
	for _, f := range frames {
		if f.Len() != W {
			stackable = false
			break
		}
	}
	if !stackable {
		for i, f := range frames {
			rf := d.preprocessInto(f)
			out[i] = make([]float64, rf.Len())
			d.scoreSegment(rf, mts.Segment{Hi: rf.Len(), Offset: offsets[i]}, cm, out[i])
		}
		return out
	}

	s := &d.scratch
	s.resize(len(frames)*W, d.red.NumOutput())
	for i, f := range frames {
		s.windowInto(i, d.preprocessInto(f), 0, W, offsets[i])
	}
	scores := make([]float64, len(frames)*W)
	d.scoreWindows(scores, cm, W)
	for i := range out {
		out[i] = scores[i*W : (i+1)*W]
	}
	return out
}
