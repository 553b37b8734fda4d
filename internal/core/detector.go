package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"nodesentry/internal/cluster"
	"nodesentry/internal/features"
	"nodesentry/internal/mat"
	"nodesentry/internal/mts"
	"nodesentry/internal/nn"
	"nodesentry/internal/obs"
	"nodesentry/internal/preprocess"
	"nodesentry/internal/stats"
)

// TrainInput is the offline phase's input: the raw training split of each
// node plus the scheduler's job spans covering it.
type TrainInput struct {
	// Frames maps node name to its raw training frame. Frames are cloned
	// before mutation.
	Frames map[string]*mts.NodeFrame
	// Spans maps node name to its job spans (idle included), clipped to
	// the training window.
	Spans map[string][]mts.JobSpan
	// SemanticGroups optionally maps an aggregated-metric name to the raw
	// rows it should average (per-core expansions, known aliases). When
	// nil, every metric stands alone and only Pearson deduplication
	// reduces the dimension.
	SemanticGroups map[string][]int
	// Trace, when non-nil, receives one span per offline stage
	// (preprocess, segmentation, features, hac, train_models) with wall
	// time, allocations, and item counts. It never alters training.
	Trace *obs.Tracer
	// Ctx, when non-nil, lets callers cancel training: Train checks it
	// between stages and between epochs inside per-cluster training, and
	// returns ctx.Err(). A background retrainer needs this to drain
	// promptly on shutdown without waiting out a full training run.
	//lint:ignore contextleak TrainInput is a call argument bundle consumed within one Train call, not stored state
	Ctx context.Context
}

// ctx returns the input's context, defaulting to Background.
func (in TrainInput) ctx() context.Context {
	if in.Ctx != nil {
		return in.Ctx
	}
	return context.Background()
}

// clusterModel is one entry of the model library: the shared reconstruction
// model of a cluster plus its MAC-derived loss weights and match radius.
type clusterModel struct {
	model   *nn.Reconstructor
	weights []float64
	// radius is the 95th-percentile member-to-centroid feature distance,
	// used online to decide whether a new pattern matches this cluster.
	radius float64
	// scale is the median reconstruction error of the cluster's own
	// training windows; online scores are divided by it so that score
	// streams are comparable across clusters and one k-sigma threshold
	// applies to the whole node.
	scale float64
}

// TrainStats summarizes the offline phase.
type TrainStats struct {
	Segments      int
	ReducedDim    int
	Clusters      int
	Silhouette    float64
	TrainDuration time.Duration
	// ClusterSizes[c] is the number of segments assigned to cluster c.
	ClusterSizes []int
	// SkippedNodes counts training nodes excluded for not sharing the
	// fleet's majority metric layout — model sharing needs one schema,
	// and a divergent node (partial collector, foreign auto-registration)
	// must not poison or crash the shared reduction.
	SkippedNodes int
}

// Detector is a trained NodeSentry instance. Train builds it; Detect and
// IncrementalUpdate use it. A Detector is not safe for concurrent use —
// every scoring call, Detect included, packs its windows into one
// detector-owned scratch and runs the cluster models' cached layers: use it
// from one goroutine, or Clone it per goroutine. (The benchmark harness
// detects nodes sequentially, as the paper's per-node online latency is the
// reported quantity.)
type Detector struct {
	opts Options

	red       *preprocess.Reduction
	std       *preprocess.Standardizer
	featMean  []float64
	featStd   []float64
	pca       *cluster.PCA // nil when PCADims == 0
	centroids *mat.Matrix
	library   []*clusterModel
	scratch   scoreScratch

	Stats TrainStats
}

// Train runs the offline phase and returns a ready Detector.
func Train(in TrainInput, opts Options) (*Detector, error) {
	start := time.Now()
	if len(in.Frames) == 0 {
		return nil, fmt.Errorf("core: no training frames")
	}
	ctx := in.ctx()
	d := &Detector{opts: opts}

	// --- Preprocessing ---
	sp := in.Trace.Start("preprocess")
	nodes := sortedNodes(in.Frames)
	cleaned := make(map[string]*mts.NodeFrame, len(in.Frames))
	for _, node := range nodes {
		f := in.Frames[node].Clone()
		preprocess.Clean(f)
		cleaned[node] = f
	}
	nodes, skipped := majorityLayout(nodes, cleaned)
	d.Stats.SkippedNodes = skipped
	first := cleaned[nodes[0]]
	d.red = preprocess.PlanReduction(cleaned, first.Metrics, in.SemanticGroups, opts.CorrThreshold)
	reduced := make(map[string]*mts.NodeFrame, len(cleaned))
	for node, f := range cleaned {
		reduced[node] = d.red.Apply(f)
	}
	d.std = preprocess.FitStandardizer(reduced, opts.Trim, opts.Clip)
	for _, f := range reduced {
		d.std.Apply(f)
	}
	d.Stats.ReducedDim = d.red.NumOutput()
	sp.AddItems(int64(len(nodes)))
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: training canceled: %w", err)
	}

	// --- Segmentation ---
	sp = in.Trace.Start("segmentation")
	var segments []mts.Segment
	for _, node := range nodes {
		f := reduced[node]
		if opts.EqualLengthChopLen > 0 { // ablation C3
			segments = append(segments, preprocess.EqualLengthChop(f, opts.EqualLengthChopLen)...)
		} else {
			segments = append(segments, preprocess.Segment(f, in.Spans[node], opts.MinSegmentLen)...)
		}
	}
	sp.AddItems(int64(len(segments)))
	sp.End()
	if len(segments) == 0 {
		return nil, fmt.Errorf("core: no segments after preprocessing (min length %d)", opts.MinSegmentLen)
	}
	d.Stats.Segments = len(segments)

	// --- Feature extraction & coarse clustering ---
	sp = in.Trace.Start("features")
	F := features.Matrix(reduced, segments)
	d.featMean, d.featStd = features.NormalizeColumns(F)
	if opts.PCADims > 0 {
		d.pca = cluster.FitPCA(F.Clone(), opts.PCADims)
		F = d.pca.Transform(F)
	}
	sp.AddItems(int64(F.Rows))
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: training canceled: %w", err)
	}

	sp = in.Trace.Start("hac")
	labels, k, sil := d.clusterSegments(F)
	d.Stats.Clusters = k
	d.Stats.Silhouette = sil
	d.centroids = cluster.Centroids(F, labels, k)
	d.Stats.ClusterSizes = make([]int, k)
	for _, l := range labels {
		d.Stats.ClusterSizes[l]++
	}
	sp.AddItems(int64(k))
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: training canceled: %w", err)
	}

	// --- Fine-grained model sharing: one shared model per cluster ---
	sp = in.Trace.Start("train_models")
	d.library = make([]*clusterModel, k)
	trainErrs := make([]error, k)
	mat.ParallelItems(k, func(c int) {
		d.library[c], trainErrs[c] = d.trainClusterModel(ctx, c, F, labels, segments, reduced)
	})
	sp.AddItems(int64(k))
	sp.End()
	for _, err := range trainErrs {
		if err != nil {
			return nil, err
		}
	}

	d.Stats.TrainDuration = time.Since(start)
	return d, nil
}

// clusterSegments produces the coarse labels, honoring the ablation
// switches: C1 (single cluster), C2 (random grouping), or the standard
// silhouette-guided HAC, optionally overridden to an exact k.
func (d *Detector) clusterSegments(F *mat.Matrix) (labels []int, k int, sil float64) {
	n := F.Rows
	switch {
	case d.opts.DisableClustering: // C1
		return make([]int, n), 1, 0
	case d.opts.RandomClusters: // C2: same k as HAC would choose, random membership
		base := d.autoOrOverride(F)
		k = maxLabel(base) + 1
		rng := rand.New(rand.NewSource(d.opts.Seed + 7))
		labels = make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(k)
		}
		ensureNonEmpty(labels, k)
		return labels, k, 0
	default:
		labels = d.autoOrOverride(F)
		k = maxLabel(labels) + 1
		return labels, k, cluster.Silhouette(F, labels)
	}
}

func (d *Detector) autoOrOverride(F *mat.Matrix) []int {
	if d.opts.ClusterOverride > 0 {
		k := d.opts.ClusterOverride
		if k > F.Rows {
			k = F.Rows
		}
		return cluster.HAC(F, d.opts.Linkage, k)
	}
	res := cluster.HACAuto(F, d.opts.Linkage, d.opts.KMin, d.opts.KMax)
	return res.Labels
}

func maxLabel(labels []int) int {
	m := 0
	for _, l := range labels {
		if l > m {
			m = l
		}
	}
	return m
}

// ensureNonEmpty reassigns one element to every empty cluster so that the
// random-cluster ablation never produces unusable empty groups.
func ensureNonEmpty(labels []int, k int) {
	counts := make([]int, k)
	for _, l := range labels {
		counts[l]++
	}
	next := 0
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			continue
		}
		// Steal from the largest cluster.
		big := 0
		for i := range counts {
			if counts[i] > counts[big] {
				big = i
			}
		}
		for ; next < len(labels); next++ {
			if labels[next] == big {
				labels[next] = c
				counts[big]--
				counts[c]++
				break
			}
		}
	}
}

// trainClusterModel trains the shared model of cluster c on the K segments
// nearest its centroid (a form of data augmentation per §3.4), with
// MAC-derived WMSE weights and segment-aware positional encoding.
func (d *Detector) trainClusterModel(ctx context.Context, c int, F *mat.Matrix, labels []int, segments []mts.Segment, frames map[string]*mts.NodeFrame) (*clusterModel, error) {
	reps := cluster.NearestMembers(F, labels, d.centroids.Row(c), c, d.opts.RepSegments)
	if len(reps) == 0 {
		reps = []int{0}
	}

	// Match radius: p95 member-to-centroid distance.
	var dists []float64
	for i, l := range labels {
		if l == c {
			dists = append(dists, mat.EuclideanDist(F.Row(i), d.centroids.Row(c)))
		}
	}
	radius := stats.Quantile(dists, 0.95)

	// MAC weights over the representative segments' training data.
	dim := d.red.NumOutput()
	macs := make([]float64, dim)
	for m := 0; m < dim; m++ {
		var total, n float64
		for _, ri := range reps {
			seg := segments[ri]
			row := frames[seg.Node].Data[m][seg.Lo:seg.Hi]
			total += stats.MAC(row) * float64(len(row))
			n += float64(len(row))
		}
		if n > 0 {
			macs[m] = total / n
		}
	}

	// Build training windows across the representative segments.
	var wins []trainWindow
	for segID, ri := range reps {
		seg := segments[ri]
		wins = append(wins, segmentWindows(frames[seg.Node], seg, segID, d.opts.WindowLen)...)
	}
	rng := rand.New(rand.NewSource(d.opts.Seed + int64(c)*131))
	rng.Shuffle(len(wins), func(i, j int) { wins[i], wins[j] = wins[j], wins[i] })

	cm, err := d.trainModel(ctx, c, macs, d.capWindows(wins), d.opts.Epochs)
	if err != nil {
		return nil, err
	}
	cm.radius = radius
	return cm, nil
}

// capWindows applies the per-cluster training-window cap.
func (d *Detector) capWindows(wins []trainWindow) []trainWindow {
	if d.opts.MaxWindowsPerCluster > 0 && len(wins) > d.opts.MaxWindowsPerCluster {
		return wins[:d.opts.MaxWindowsPerCluster]
	}
	return wins
}

// newModel builds library entry id's reconstructor from the detector options:
// the one mapping from Options (ablation switches, seed) to an architecture,
// shared by training, Clone and Load so a rebuilt model always fits the
// parameters trained for it.
func newModel(opts Options, inputDim, id int) (*nn.Reconstructor, error) {
	cfg := opts.Model
	cfg.InputDim = inputDim
	cfg.UseMoE = !opts.DenseFFN
	cfg.SegmentAwarePE = !opts.FlatPositionalEncoding
	cfg.Seed = opts.Seed + int64(id)*977
	return nn.NewReconstructor(cfg)
}

// trainModel is the shared tail of cluster training, for Train's clusters
// and the ones IncrementalUpdate spawns: derive the WMSE weights from the
// cluster's per-metric MAC (or none, under the uniform-weights ablation),
// build library entry id's model, fit it on wins and calibrate its score
// scale. The caller sets the match radius.
func (d *Detector) trainModel(ctx context.Context, id int, macs []float64, wins []trainWindow, epochs int) (*clusterModel, error) {
	weights := nn.MACWeights(macs)
	if d.opts.UniformLossWeights {
		weights = nil
	}
	model, err := newModel(d.opts, len(macs), id)
	if err != nil {
		return nil, err
	}
	if err := fit(ctx, model, wins, weights, d.opts.LR, epochs); err != nil {
		return nil, err
	}
	return &clusterModel{model: model, weights: weights, scale: calibrate(model, wins, weights)}, nil
}

// fit runs epochs Adam passes of model over wins under the weighted
// reconstruction loss. The context is checked between epochs — the
// granularity at which cancellation is cheap and deterministic.
func fit(ctx context.Context, model *nn.Reconstructor, wins []trainWindow, weights []float64, lr float64, epochs int) error {
	// Params returns stable pointers, so hoist the (allocating) walk out of
	// the step loop.
	params := model.Params()
	opt := nn.NewAdam(params, lr)
	for epoch := 0; epoch < epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: training canceled: %w", err)
		}
		for _, w := range wins {
			out := model.Forward(w.x, w.positions, w.segIDs)
			_, grad := nn.WMSE(out, w.x, weights)
			model.Backward(grad)
			nn.ClipGradients(params, 5)
			opt.Step()
		}
	}
	return nil
}

// calibrate returns a cluster's score scale: the median reconstruction error
// of the model over its own training windows (1 when that is degenerate).
func calibrate(model *nn.Reconstructor, wins []trainWindow, weights []float64) float64 {
	var errs []float64
	for _, w := range wins {
		out := model.Forward(w.x, w.positions, w.segIDs)
		errs = append(errs, nn.ReconErrors(out, w.x, weights)...)
	}
	scale := stats.Median(errs)
	if !(scale > 1e-9) {
		scale = 1
	}
	return scale
}

// trainWindow is one token window with its positional metadata.
type trainWindow struct {
	x         *mat.Matrix
	positions []int
	segIDs    []int
}

// segmentWindows slices a segment into non-overlapping windows of winLen
// tokens (the tail is covered by a window aligned to the segment end), with
// within-segment positions and the segment id for the enhanced positional
// encoding.
func segmentWindows(f *mts.NodeFrame, seg mts.Segment, segID, winLen int) []trainWindow {
	n := seg.Len()
	if n <= 0 {
		return nil
	}
	var out []trainWindow
	emit := func(lo, hi int) {
		w := trainWindow{
			x:         mat.New(hi-lo, f.NumMetrics()),
			positions: make([]int, hi-lo),
			segIDs:    make([]int, hi-lo),
		}
		for t := lo; t < hi; t++ {
			row := w.x.Row(t - lo)
			for m := range f.Data {
				row[m] = f.Data[m][seg.Lo+t]
			}
			w.positions[t-lo] = seg.Offset + t
			w.segIDs[t-lo] = segID
		}
		out = append(out, w)
	}
	if n <= winLen {
		emit(0, n)
		return out
	}
	lo := 0
	for ; lo+winLen <= n; lo += winLen {
		emit(lo, lo+winLen)
	}
	if lo < n {
		emit(n-winLen, n)
	}
	return out
}

func sortedNodes(frames map[string]*mts.NodeFrame) []string {
	nodes := make([]string, 0, len(frames))
	for n := range frames {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// majorityLayout keeps only the nodes sharing the most common metric
// layout, deleting the rest from cleaned, and reports how many were
// skipped. Model sharing reduces and clusters every node under one
// fleet-wide schema; a frame with a different metric set (a partial
// collector, a foreign auto-registration riding the retrain buffer)
// cannot share it, and indexing the shared semantic groups into such a
// frame would read out of range. Ties break toward the layout seen
// first in sorted node order, keeping training deterministic.
func majorityLayout(nodes []string, cleaned map[string]*mts.NodeFrame) ([]string, int) {
	sig := func(ms []string) string { return strings.Join(ms, "\x00") }
	count := map[string]int{}
	for _, node := range nodes {
		count[sig(cleaned[node].Metrics)]++
	}
	best := sig(cleaned[nodes[0]].Metrics)
	for _, node := range nodes {
		if s := sig(cleaned[node].Metrics); count[s] > count[best] {
			best = s
		}
	}
	kept := nodes[:0]
	skipped := 0
	for _, node := range nodes {
		if sig(cleaned[node].Metrics) == best {
			kept = append(kept, node)
		} else {
			delete(cleaned, node)
			skipped++
		}
	}
	return kept, skipped
}

// NumClusters returns the size of the model library.
func (d *Detector) NumClusters() int { return len(d.library) }

// ReducedMetricNames returns the names of the metrics surviving reduction.
func (d *Detector) ReducedMetricNames() []string { return d.red.OutputNames() }
