package core

import (
	"math"
	"runtime"
	"testing"

	"nodesentry/internal/dataset"
	"nodesentry/internal/mts"
)

// TestTrainIsIndependentOfCoreCount trains a model wide enough that the
// embedding's weight gradient (WindowLen × InputDim × ModelDim) passes
// 2¹⁶ flops, where splitting TMulInto's row sum across cores would start to
// pay, once at GOMAXPROCS 1 and once at 4. The trained weights must be the
// same bits, and so must the scores of a test frame.
func TestTrainIsIndependentOfCoreCount(t *testing.T) {
	cfg := dataset.Tiny()
	cfg.Cores = 16
	ds := dataset.Build(cfg)
	// No semantic groups and no correlation pass: every catalog metric
	// is its own model input.
	in := TrainInput{Frames: ds.TrainFrames(), Spans: map[string][]mts.JobSpan{}}
	for _, node := range ds.Nodes() {
		in.Spans[node] = ds.SpansForNode(node, 0, ds.SplitTime())
	}
	opts := fastOptions()
	opts.Epochs = 2
	opts.MaxWindowsPerCluster = 40
	opts.KMax = 3
	opts.CorrThreshold = 2

	node := ds.Nodes()[0]
	frame := ds.TestFrames()[node]
	spans := ds.SpansForNode(node, ds.SplitTime(), ds.Horizon)
	train := func(procs int) ([]uint64, []float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d, err := Train(in, opts)
		if err != nil {
			t.Fatalf("Train at GOMAXPROCS %d: %v", procs, err)
		}
		if d.Stats.ReducedDim*opts.WindowLen*opts.Model.ModelDim < 1<<16 {
			t.Fatalf("InputDim %d keeps the weight gradient under 2^16 flops", d.Stats.ReducedDim)
		}
		// The model's bytes: every weight of every cluster model. (A Save
		// snapshot is not comparable byte for byte: gob writes maps in
		// iteration order.)
		var bits []uint64
		for _, cm := range d.library {
			for _, p := range cm.model.Params() {
				for _, w := range p.W.Data {
					bits = append(bits, math.Float64bits(w))
				}
			}
			bits = append(bits, math.Float64bits(cm.radius), math.Float64bits(cm.scale))
		}
		return bits, d.Detect(frame.Clone(), spans).Scores
	}
	model1, scores1 := train(1)
	model4, scores4 := train(4)
	if len(model1) != len(model4) {
		t.Fatalf("models differ in size: %d vs %d weights", len(model1), len(model4))
	}
	for i := range model1 {
		if model1[i] != model4[i] {
			t.Fatalf("weight %d differs between GOMAXPROCS 1 and 4", i)
		}
	}
	if len(scores1) != len(scores4) {
		t.Fatalf("score lengths differ: %d vs %d", len(scores1), len(scores4))
	}
	for i := range scores1 {
		if math.Float64bits(scores1[i]) != math.Float64bits(scores4[i]) {
			t.Fatalf("score %d differs: %v at GOMAXPROCS 1, %v at 4", i, scores1[i], scores4[i])
		}
	}
}
