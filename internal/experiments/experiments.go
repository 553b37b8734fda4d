// Package experiments is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (§4) plus the deployment
// measurements (§5) on the synthetic substrate. Each experiment has a Run
// function that returns structured results and prints the same rows/series
// the paper reports; cmd/benchtab is the CLI front end and the root
// bench_test.go wraps them as testing.B benchmarks.
//
// Absolute numbers differ from the paper (the substrate is a simulator,
// not a 1,294-node production system); the reproduction targets the shape:
// who wins, by roughly what factor, and where the knees of the
// hyperparameter curves fall. EXPERIMENTS.md records paper-vs-measured for
// every element.
package experiments

import (
	"fmt"
	"io"
	"time"

	"nodesentry"
	"nodesentry/internal/baselines"
	"nodesentry/internal/core"
	"nodesentry/internal/dataset"
	"nodesentry/internal/eval"
)

// Scale selects the experiment size.
type Scale int

const (
	// Quick runs on tiny datasets with reduced training — suitable for
	// testing.B benchmarks and CI.
	Quick Scale = iota
	// Full runs on the D1'/D2' presets with full training.
	Full
)

// datasets returns the two evaluation datasets at the requested scale.
func datasets(s Scale) []*dataset.Dataset {
	if s == Quick {
		d1 := dataset.Tiny()
		d1.Name = "D1-tiny"
		d2 := dataset.Tiny()
		d2.Name = "D2-tiny"
		d2.Nodes = 3
		d2.Seed = 7
		return []*dataset.Dataset{dataset.Build(d1), dataset.Build(d2)}
	}
	return []*dataset.Dataset{dataset.Build(dataset.D1Small()), dataset.Build(dataset.D2Small())}
}

// options returns NodeSentry options at the requested scale.
func options(s Scale) core.Options {
	opts := core.DefaultOptions()
	if s == Quick {
		opts.Epochs = 6
		opts.MaxWindowsPerCluster = 120
		opts.RepSegments = 5
		opts.KMax = 8
	}
	return opts
}

// MethodRow is one row of Table 4.
type MethodRow struct {
	Method    string
	Dataset   string
	Precision float64
	Recall    float64
	AUC       float64
	F1        float64
	// Offline is the training wall time; Online the mean detection wall
	// time per node.
	Offline time.Duration
	Online  time.Duration
}

func (r MethodRow) String() string {
	return fmt.Sprintf("%-11s %-8s P=%.3f R=%.3f AUC=%.3f F1=%.3f offline=%-12v online/node=%v",
		r.Method, r.Dataset, r.Precision, r.Recall, r.AUC, r.F1,
		r.Offline.Round(time.Millisecond), r.Online.Round(time.Microsecond))
}

// evalNodeSentry trains and evaluates NodeSentry on a dataset.
func evalNodeSentry(ds *dataset.Dataset, opts core.Options) (MethodRow, *core.Detector, error) {
	in := nodesentry.TrainInputFromDataset(ds)
	det, err := core.Train(in, opts)
	if err != nil {
		return MethodRow{}, nil, err
	}
	row := MethodRow{Method: "NodeSentry", Dataset: ds.Name, Offline: det.Stats.TrainDuration}
	var results []eval.NodeResult
	test := ds.TestFrames()
	var detTime time.Duration
	for _, node := range ds.Nodes() {
		frame := test[node]
		spans := ds.SpansForNode(node, ds.SplitTime(), ds.Horizon)
		t0 := time.Now()
		res := det.Detect(frame, spans)
		detTime += time.Since(t0)
		results = append(results, nodesentry.EvaluateNodeOutput(ds, frame, spans, res.Scores, res.Preds))
	}
	row.Online = detTime / time.Duration(len(ds.Nodes()))
	fill(&row, eval.Aggregate(results))
	return row, det, nil
}

// evalBaseline trains and evaluates one baseline on a dataset.
func evalBaseline(b baselines.Detector, ds *dataset.Dataset) (MethodRow, error) {
	in := nodesentry.TrainInputFromDataset(ds)
	if err := b.Train(in, ds.Step); err != nil {
		return MethodRow{}, err
	}
	row := MethodRow{Method: b.Name(), Dataset: ds.Name, Offline: b.TrainDuration()}
	var results []eval.NodeResult
	test := ds.TestFrames()
	var detTime time.Duration
	for _, node := range ds.Nodes() {
		frame := test[node]
		spans := ds.SpansForNode(node, ds.SplitTime(), ds.Horizon)
		t0 := time.Now()
		scores, preds := b.Detect(frame, spans)
		detTime += time.Since(t0)
		results = append(results, nodesentry.EvaluateNodeOutput(ds, frame, spans, scores, preds))
	}
	row.Online = detTime / time.Duration(len(ds.Nodes()))
	fill(&row, eval.Aggregate(results))
	return row, nil
}

func fill(row *MethodRow, s eval.Summary) {
	row.Precision = s.Precision
	row.Recall = s.Recall
	row.AUC = s.AUC
	row.F1 = s.F1
}

// Table4 reproduces the overall-performance comparison: NodeSentry versus
// the four baselines on both datasets, with offline and online costs.
func Table4(w io.Writer, s Scale) ([]MethodRow, error) {
	rep := &report{w: w}
	rep.println("Table 4: effectiveness of anomaly detection on different methods")
	var rows []MethodRow
	for _, ds := range datasets(s) {
		row, _, err := evalNodeSentry(ds, options(s))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		rep.println("  " + row.String())
		for _, b := range []baselines.Detector{
			baselines.NewProdigy(11), baselines.NewRUAD(12),
			baselines.NewExaMon(13), baselines.NewISC20(14),
		} {
			br, err := evalBaseline(b, ds)
			if err != nil {
				return nil, err
			}
			rows = append(rows, br)
			rep.println("  " + br.String())
		}
	}
	return rows, rep.Err()
}

// AblationRow is one row of Table 5.
type AblationRow struct {
	Variant string
	Dataset string
	Summary eval.Summary
}

func (r AblationRow) String() string {
	return fmt.Sprintf("%-12s %-8s P=%.3f R=%.3f AUC=%.3f F1=%.3f",
		r.Variant, r.Dataset, r.Summary.Precision, r.Summary.Recall, r.Summary.AUC, r.Summary.F1)
}

// Table5 reproduces the ablation study: the full system against variants
// C1 (no clustering), C2 (random clusters), C3 (equal-length chopping),
// C4 (flat positional encoding) and C5 (dense FFN instead of MoE).
func Table5(w io.Writer, s Scale) ([]AblationRow, error) {
	rep := &report{w: w}
	rep.println("Table 5: performance comparison of different components")
	variants := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"NodeSentry", func(o *core.Options) {}},
		{"C1", func(o *core.Options) { o.DisableClustering = true }},
		{"C2", func(o *core.Options) { o.RandomClusters = true }},
		{"C3", func(o *core.Options) { o.EqualLengthChopLen = 60 }},
		{"C4", func(o *core.Options) { o.FlatPositionalEncoding = true }},
		{"C5", func(o *core.Options) { o.DenseFFN = true }},
	}
	var rows []AblationRow
	for _, ds := range datasets(s) {
		in := nodesentry.TrainInputFromDataset(ds)
		for _, v := range variants {
			opts := options(s)
			v.mutate(&opts)
			det, err := core.Train(in, opts)
			if err != nil {
				return nil, fmt.Errorf("variant %s: %w", v.name, err)
			}
			sum := nodesentry.EvaluateDetector(det, ds)
			row := AblationRow{Variant: v.name, Dataset: ds.Name, Summary: sum}
			rows = append(rows, row)
			rep.println("  " + row.String())
		}
	}
	return rows, rep.Err()
}
