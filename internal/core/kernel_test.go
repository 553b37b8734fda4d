package core

import (
	"fmt"
	"testing"

	"nodesentry/internal/mts"
	"nodesentry/internal/nn"
	"nodesentry/internal/preprocess"
)

// The tests below hold every scoring entry point to a reference that shares
// none of the scoring kernel: it is built here from the primitives training
// keeps — segmentWindows, Reconstructor.Forward and nn.ReconErrors, one
// window at a time — normalized the way the kernel normalizes (× 1/scale).
// Every comparison is exact: stacking windows may change dispatch cost,
// never a bit.

// kernelDetector trains the fixture once for the three comparisons below,
// which only score with it.
var kernelDetector *Detector

func scoringFixture(t *testing.T) (*fixtureData, *Detector) {
	t.Helper()
	if kernelDetector == nil {
		_, kernelDetector = trainFixture(t, fastOptions())
	}
	return fixture(t), kernelDetector
}

func refScoreSegment(d *Detector, f *mts.NodeFrame, seg mts.Segment, c int, scores []float64) {
	cm := d.library[c]
	inv := 1.0
	if cm.scale > 0 {
		inv = 1 / cm.scale
	}
	for _, w := range segmentWindows(f, seg, 0, d.opts.WindowLen) {
		out := cm.model.Forward(w.x, w.positions, w.segIDs)
		for i, e := range nn.ReconErrors(out, w.x, cm.weights) {
			scores[seg.Lo+w.positions[i]-seg.Offset] = e * inv
		}
	}
}

func refScoreFrame(d *Detector, frame *mts.NodeFrame, c, offset int) []float64 {
	scores := make([]float64, frame.Len())
	if c < 0 || c >= len(d.library) {
		return scores
	}
	f := d.Preprocess(frame)
	refScoreSegment(d, f, mts.Segment{Node: f.Node, Job: mts.IdleJobID, Lo: 0, Hi: f.Len(), Offset: offset}, c, scores)
	return scores
}

func assertSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] { // exact float comparison on purpose
			t.Fatalf("%s: sample %d = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func TestDetectMatchesPerWindowReference(t *testing.T) {
	fx, d := scoringFixture(t)
	frame := fx.ds.TestFrames()[fx.ds.Nodes()[0]]
	W := d.WindowLen()
	// Four jobs tile the frame: one already 13 samples old when the frame
	// begins, cut into 3 windows + a tail of 7; one shorter than the window;
	// one of exactly 2 windows (no tail); and an idle rest long enough to
	// need more than one stacked pass.
	at := func(sample int) int64 { return frame.Start + int64(sample)*frame.Step }
	a, b, c := 3*W+7, 3*W+7+7, 5*W+14
	if frame.Len()-c <= segmentBatchWindows*W {
		t.Fatalf("fixture frame too short (%d) to span two stacked passes", frame.Len())
	}
	spans := []mts.JobSpan{
		{Job: 101, Node: frame.Node, Start: at(-13), End: at(a)},
		{Job: 102, Node: frame.Node, Start: at(a), End: at(b)},
		{Job: 103, Node: frame.Node, Start: at(b), End: at(c)},
		{Job: mts.IdleJobID, Node: frame.Node, Start: at(c), End: at(frame.Len())},
	}

	f := d.Preprocess(frame)
	want := make([]float64, f.Len())
	segs := preprocess.Segment(f, spans, 2)
	if len(segs) != len(spans) || segs[0].Offset != 13 || segs[1].Len() >= W {
		t.Fatalf("spans did not produce the intended segments: %+v", segs)
	}
	for _, seg := range segs {
		refScoreSegment(d, f, seg, d.matchSegment(f, seg).Cluster, want)
	}

	res := d.Detect(frame, spans)
	if len(res.Assignments) != len(spans) {
		t.Fatalf("%d assignments for %d spans", len(res.Assignments), len(spans))
	}
	assertSameBits(t, "Detect", res.Scores, want)
}

func TestScoreFrameMatchesPerWindowReference(t *testing.T) {
	fx, d := scoringFixture(t)
	frame := fx.ds.TestFrames()[fx.ds.Nodes()[1]]
	W := d.WindowLen()
	cases := []struct {
		name string
		n    int
	}{
		{"exact window", W},
		{"short", 5},
		{"3 windows + 7", 3*W + 7},
	}
	for _, tc := range cases {
		for _, c := range []int{0, d.NumClusters() - 1, -1, d.NumClusters()} {
			for _, offset := range []int{0, 33} {
				sub := frame.Slice(11, 11+tc.n)
				want := refScoreFrame(d, sub, c, offset)
				got := d.ScoreFrame(sub, c, offset)
				assertSameBits(t, fmt.Sprintf("ScoreFrame %s cluster %d offset %d", tc.name, c, offset), got, want)
			}
		}
	}
}

func TestScoreFrameBatchMatchesPerWindowReference(t *testing.T) {
	fx, d := scoringFixture(t)
	frame := fx.ds.TestFrames()[fx.ds.Nodes()[2]]
	W := d.WindowLen()
	for _, B := range []int{1, 3, 8} {
		// equal: B full windows; short: B equal partial windows; mixed: one
		// frame longer than the window and one shorter among full ones.
		layouts := map[string]func(i int) int{
			"equal": func(int) int { return W },
			"short": func(int) int { return W - 3 },
			"mixed": func(i int) int { return []int{W + 9, W, 5}[i%3] },
		}
		for name, length := range layouts {
			var frames []*mts.NodeFrame
			var offsets []int
			for i := 0; i < B; i++ {
				frames = append(frames, frame.Slice(7*i, 7*i+length(i)))
				offsets = append(offsets, 11*i)
			}
			for _, c := range []int{0, d.NumClusters() - 1, d.NumClusters()} {
				want := make([][]float64, B)
				for i, f := range frames {
					want[i] = refScoreFrame(d, f, c, offsets[i])
				}
				got := d.ScoreFrameBatch(frames, c, offsets)
				if len(got) != B {
					t.Fatalf("B=%d %s: %d score slices", B, name, len(got))
				}
				for i := range got {
					assertSameBits(t, fmt.Sprintf("ScoreFrameBatch B=%d %s cluster %d frame %d", B, name, c, i), got[i], want[i])
				}
			}
		}
	}
	if got := d.ScoreFrameBatch(nil, 0, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d score slices", len(got))
	}
}

// TestSpawnedClusterHonorsUniformLossWeights pins that a cluster spawned by
// IncrementalUpdate is trained under the same loss-weight ablation as the
// detector's own: with UniformLossWeights it carries no MAC weights, so its
// scores are scaled like every other cluster's.
func TestSpawnedClusterHonorsUniformLossWeights(t *testing.T) {
	opts := fastOptions()
	opts.Epochs = 1
	opts.MaxWindowsPerCluster = 20
	opts.UniformLossWeights = true
	fx, d := trainFixture(t, opts)
	before := d.NumClusters()
	// A zero match radius leaves every segment unmatched, forcing a spawn.
	for _, cm := range d.library {
		if cm.weights != nil {
			t.Fatal("trained cluster carries MAC weights under UniformLossWeights")
		}
		cm.radius = 0
	}
	node := fx.ds.Nodes()[1]
	spans := fx.ds.SpansForNode(node, fx.ds.SplitTime(), fx.ds.Horizon)
	rep, err := d.IncrementalUpdate(fx.ds.TestFrames()[node], spans, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SpawnedClusters == 0 || d.NumClusters() != before+rep.SpawnedClusters {
		t.Fatalf("update spawned nothing: %+v", rep)
	}
	for c := before; c < d.NumClusters(); c++ {
		if d.library[c].weights != nil {
			t.Errorf("spawned cluster %d carries MAC weights under UniformLossWeights", c)
		}
	}
}
