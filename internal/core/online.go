package core

import (
	"context"
	"math"

	"nodesentry/internal/cluster"
	"nodesentry/internal/features"
	"nodesentry/internal/mat"
	"nodesentry/internal/mts"
	"nodesentry/internal/preprocess"
	"nodesentry/internal/stats"
)

// SetOnlineParams overrides the online-phase knobs after training: the
// pattern-matching period, the k-sigma sliding window, and k itself. Used
// by the Fig. 6(e)/(f) hyperparameter sweeps, which retrain nothing.
func (d *Detector) SetOnlineParams(matchPeriodSec, thresholdWindowSec int64, kSigma float64) {
	if matchPeriodSec > 0 {
		d.opts.MatchPeriodSec = matchPeriodSec
	}
	if thresholdWindowSec > 0 {
		d.opts.ThresholdWindowSec = thresholdWindowSec
	}
	if kSigma > 0 {
		d.opts.KSigma = kSigma
	}
}

// Preprocess applies the detector's fitted preprocessing (cleaning,
// reduction, standardization) to a raw frame, returning the reduced
// standardized frame the models see. Useful for inspecting what drove a
// detection (e.g. the Fig. 8 case study's per-metric attribution).
func (d *Detector) Preprocess(frame *mts.NodeFrame) *mts.NodeFrame {
	f := frame.Clone()
	preprocess.Clean(f)
	f = d.red.Apply(f)
	d.std.Apply(f)
	return f
}

// SegmentAssignment records the online pattern match of one job segment.
type SegmentAssignment struct {
	Segment  mts.Segment
	Cluster  int
	Distance float64
	// Matched is false when the pattern fell outside every cluster's match
	// radius (the detector still uses the nearest model, but incremental
	// updates would spawn a new cluster for it).
	Matched bool
}

// Result is the online phase's per-node output, aligned with the samples of
// the frame passed to Detect.
type Result struct {
	Node string
	// Scores is the per-sample anomaly score (weighted reconstruction
	// error).
	Scores []float64
	// Preds is the k-sigma thresholded decision per sample.
	Preds []bool
	// Assignments lists the pattern matches of the frame's segments.
	Assignments []SegmentAssignment
}

// Detect runs online anomaly detection on one node's raw frame. spans are
// the node's job spans over the frame's time range (from the scheduler);
// they drive segmentation and pattern matching.
func (d *Detector) Detect(frame *mts.NodeFrame, spans []mts.JobSpan) *Result {
	f := d.Preprocess(frame)

	res := &Result{Node: frame.Node, Scores: make([]float64, f.Len())}
	segs := preprocess.Segment(f, spans, 2)
	if len(segs) == 0 && f.Len() >= 2 {
		// No scheduler info: treat the whole frame as one segment.
		segs = []mts.Segment{{Node: f.Node, Job: mts.IdleJobID, Lo: 0, Hi: f.Len()}}
	}
	for _, seg := range segs {
		asg := d.matchSegment(f, seg)
		res.Assignments = append(res.Assignments, asg)
		d.scoreSegment(f, seg, d.library[asg.Cluster], res.Scores)
	}
	// Threshold each segment's score stream independently: the k-sigma
	// window must not mix scores produced by different cluster models, or
	// every model switch at a job transition looks like a level shift.
	res.Preds = make([]bool, len(res.Scores))
	for _, a := range res.Assignments {
		sub := res.Scores[a.Segment.Lo:a.Segment.Hi]
		for i, p := range d.Threshold(sub, f.Step) {
			res.Preds[a.Segment.Lo+i] = p
		}
	}
	return res
}

// matchSegment extracts features from the segment's initial match period
// and assigns the nearest cluster (§3.5).
func (d *Detector) matchSegment(f *mts.NodeFrame, seg mts.Segment) SegmentAssignment {
	matchLen := int(d.opts.MatchPeriodSec / f.Step)
	if matchLen < 2 {
		matchLen = 2
	}
	probe := seg
	if probe.Len() > matchLen {
		probe.Hi = probe.Lo + matchLen
	}
	v := d.featureVector(f, probe)
	c, dist := cluster.Assign(v, d.centroids)
	return SegmentAssignment{
		Segment:  seg,
		Cluster:  c,
		Distance: dist,
		Matched:  dist <= d.library[c].radius*1.5,
	}
}

// Threshold applies the detector's configured dynamic k-sigma rule, with
// optional debouncing (MinConsecutive).
func (d *Detector) Threshold(scores []float64, step int64) []bool {
	preds := KSigmaThreshold(scores, step, d.opts.ThresholdWindowSec, d.opts.KSigma)
	if d.opts.MinConsecutive > 1 {
		preds = Debounce(preds, d.opts.MinConsecutive)
	}
	return preds
}

// Debounce suppresses positive runs shorter than minRun samples.
func Debounce(preds []bool, minRun int) []bool {
	out := make([]bool, len(preds))
	for i := 0; i < len(preds); {
		if !preds[i] {
			i++
			continue
		}
		j := i
		for j < len(preds) && preds[j] {
			j++
		}
		if j-i >= minRun {
			for k := i; k < j; k++ {
				out[k] = true
			}
		}
		i = j
	}
	return out
}

// KSigmaThreshold is the paper's dynamic thresholding rule (§3.5): a sample
// is anomalous when its score exceeds mean + k·sigma of the scores in the
// sliding window preceding it. A sigma floor proportional to the window
// mean keeps perfectly flat windows from flagging noise. The same rule is
// applied to every baseline for a fair comparison.
func KSigmaThreshold(scores []float64, step, windowSec int64, k float64) []bool {
	w := ksigmaWidth(step, windowSec)
	preds := make([]bool, len(scores))
	for t := range scores {
		preds[t] = scores[t] > ksigmaBound(scores, t, w, k)
	}
	return preds
}

// KSigmaBoundAt is the bound KSigmaThreshold holds sample t of scores to:
// mean + k·sigma of the trailing window before t, sigma floor included — so
// a streaming caller can threshold only the samples it just appended. scores
// must be the whole history, not a tail of it: with fewer than four samples
// before t the rule falls back to the history's head. t may be len(scores),
// the bound the next sample will face, which is what a live monitor reports
// as a node's current threshold.
func KSigmaBoundAt(scores []float64, t int, step, windowSec int64, k float64) float64 {
	return ksigmaBound(scores, t, ksigmaWidth(step, windowSec), k)
}

// ksigmaWidth is the rule's window length in samples, never under 4.
func ksigmaWidth(step, windowSec int64) int {
	return max(int(windowSec/step), 4)
}

// ksigmaBound is the bound sample t is held to: mean + k·sigma over the w
// scores before it.
func ksigmaBound(scores []float64, t, w int, k float64) float64 {
	win := scores[max(t-w, 0):t]
	if len(win) < 4 {
		// Too little history: compare against the global head.
		win = scores[:min(w, len(scores))]
	}
	mean, sd := stats.MeanStd(win)
	floor := 0.1*mean + 1e-9
	if sd < floor {
		sd = floor
	}
	return mean + k*sd
}

// featureVector extracts a segment's normalized (and, when configured,
// PCA-projected) feature vector — the coordinates of the cluster library.
func (d *Detector) featureVector(f *mts.NodeFrame, seg mts.Segment) []float64 {
	v := features.SegmentVector(f, seg)
	features.ApplyNormalization(v, d.featMean, d.featStd)
	if d.pca != nil {
		v = d.pca.TransformVector(v)
	}
	return v
}

// MatchPattern matches a raw probe frame — the short period collected
// after a job transition — against the cluster library, without scoring.
// This is the streaming variant of the per-segment matching Detect does.
func (d *Detector) MatchPattern(frame *mts.NodeFrame) SegmentAssignment {
	f := d.preprocessInto(frame)
	seg := mts.Segment{Node: f.Node, Job: mts.IdleJobID, Lo: 0, Hi: f.Len()}
	return d.matchSegment(f, seg)
}

// WindowLen returns the model's token-window length.
func (d *Detector) WindowLen() int { return d.opts.WindowLen }

// ClusterRadius returns cluster c's match radius (the p95 member-to-centroid
// feature distance), or 0 for an out-of-range index. Drift detectors use it
// to normalize observed match distances into radius multiples.
func (d *Detector) ClusterRadius(c int) float64 {
	if c < 0 || c >= len(d.library) {
		return 0
	}
	return d.library[c].radius
}

// ClusterScale returns cluster c's score scale (the median training-time
// reconstruction error), or 0 for an out-of-range index. Because online
// scores are divided by it, a healthy score stream has median ≈ 1 — the
// baseline drift detection compares against.
func (d *Detector) ClusterScale(c int) float64 {
	if c < 0 || c >= len(d.library) {
		return 0
	}
	return d.library[c].scale
}

// MatchPeriodSec returns the configured pattern-matching period.
func (d *Detector) MatchPeriodSec() int64 { return d.opts.MatchPeriodSec }

// OnlineParams returns the current online thresholding parameters.
func (d *Detector) OnlineParams() (thresholdWindowSec int64, kSigma float64) {
	return d.opts.ThresholdWindowSec, d.opts.KSigma
}

// UpdateReport summarizes an incremental update (§3.5): matched patterns
// fine-tune their cluster's model; unmatched patterns are clustered anew
// and extend the library.
type UpdateReport struct {
	MatchedSegments   int
	UnmatchedSegments int
	SpawnedClusters   int
}

// IncrementalUpdate adapts the detector to new data without retraining from
// scratch: segments matching an existing cluster fine-tune that cluster's
// model for `epochs` epochs and nudge the centroid; segments matching
// nothing are clustered among themselves and become new library entries.
func (d *Detector) IncrementalUpdate(frame *mts.NodeFrame, spans []mts.JobSpan, epochs int) (UpdateReport, error) {
	if epochs <= 0 {
		epochs = 1
	}
	f := d.Preprocess(frame)

	var rep UpdateReport
	segs := preprocess.Segment(f, spans, d.opts.MinSegmentLen)
	frames := map[string]*mts.NodeFrame{f.Node: f}

	type pending struct {
		seg mts.Segment
		v   []float64
	}
	var unmatched []pending
	for _, seg := range segs {
		v := d.featureVector(f, seg)
		c, dist := cluster.Assign(v, d.centroids)
		if dist <= d.library[c].radius*1.5 {
			rep.MatchedSegments++
			if err := d.fineTune(c, f, seg, epochs); err != nil {
				return rep, err
			}
			// Exponential centroid drift toward the new pattern.
			crow := d.centroids.Row(c)
			for j := range crow {
				crow[j] = 0.9*crow[j] + 0.1*v[j]
			}
			continue
		}
		unmatched = append(unmatched, pending{seg, v})
	}
	rep.UnmatchedSegments = len(unmatched)
	if len(unmatched) == 0 {
		return rep, nil
	}

	// Cluster the unmatched patterns among themselves and train fresh
	// models for them.
	F := mat.New(len(unmatched), len(unmatched[0].v))
	segsNew := make([]mts.Segment, len(unmatched))
	for i, p := range unmatched {
		copy(F.Row(i), p.v)
		segsNew[i] = p.seg
	}
	var labels []int
	if len(unmatched) >= 4 {
		res := cluster.HACAuto(F, d.opts.Linkage, 2, min(4, len(unmatched)))
		labels = res.Labels
	} else {
		labels = make([]int, len(unmatched))
	}
	k := maxLabel(labels) + 1
	newCentroids := cluster.Centroids(F, labels, k)
	for c := 0; c < k; c++ {
		// Append the centroid row and train a model for the new cluster.
		d.centroids = appendRow(d.centroids, newCentroids.Row(c))
		global := len(d.library)
		var dists []float64
		for i, l := range labels {
			if l == c {
				dists = append(dists, mat.EuclideanDist(F.Row(i), newCentroids.Row(c)))
			}
		}
		radius := stats.Quantile(dists, 0.95)
		if math.IsNaN(radius) || radius == 0 {
			radius = 1
		}
		cm, err := d.trainNewClusterModel(global, labels, c, segsNew, frames, epochs)
		if err != nil {
			return rep, err
		}
		cm.radius = radius
		d.library = append(d.library, cm)
		rep.SpawnedClusters++
	}
	d.Stats.Clusters = len(d.library)
	return rep, nil
}

// fineTune runs a few epochs of the cluster's model on one new segment.
func (d *Detector) fineTune(c int, f *mts.NodeFrame, seg mts.Segment, epochs int) error {
	cm := d.library[c]
	wins := d.capWindows(segmentWindows(f, seg, 0, d.opts.WindowLen))
	// IncrementalUpdate's signature carries no context to hand on.
	return fit(context.TODO(), cm.model, wins, cm.weights, d.opts.LR*0.3, epochs) // gentler fine-tuning
}

// trainNewClusterModel builds and trains a model for a spawned cluster, with
// loss weights from the mean MAC of the segments that founded it.
func (d *Detector) trainNewClusterModel(globalID int, labels []int, c int, segs []mts.Segment, frames map[string]*mts.NodeFrame, epochs int) (*clusterModel, error) {
	macs := make([]float64, d.red.NumOutput())
	var wins []trainWindow
	segID := 0
	for i, l := range labels {
		if l != c {
			continue
		}
		seg := segs[i]
		for m := range macs {
			macs[m] += stats.MAC(frames[seg.Node].Data[m][seg.Lo:seg.Hi])
		}
		wins = append(wins, segmentWindows(frames[seg.Node], seg, segID, d.opts.WindowLen)...)
		segID++
	}
	if segID > 0 {
		for m := range macs {
			macs[m] /= float64(segID)
		}
	}
	return d.trainModel(context.TODO(), globalID, macs, d.capWindows(wins), epochs)
}

func appendRow(m *mat.Matrix, row []float64) *mat.Matrix {
	out := mat.New(m.Rows+1, m.Cols)
	copy(out.Data, m.Data)
	copy(out.Row(m.Rows), row)
	return out
}
