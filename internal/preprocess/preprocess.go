// Package preprocess implements the paper's four-step MTS preprocessing
// pipeline (§3.2):
//
//  1. Cleaning — linear interpolation of missing samples;
//  2. Reduction — semantic aggregation of per-core metrics followed by
//     Pearson-correlation deduplication (r >= 0.99), shrinking the metric
//     dimension to roughly a tenth;
//  3. Standardization — per node-metric z-scoring with 5 %-trimmed
//     moments and clipping to ±5;
//  4. Segmentation — splitting each node's series at job transition points
//     into job-pattern segments.
//
// The package is substrate-agnostic: semantic groups arrive as plain index
// lists, so data imported from real systems works as well as synthetic
// telemetry.
package preprocess

import (
	"math"
	"sort"

	"nodesentry/internal/mat"
	"nodesentry/internal/mts"
	"nodesentry/internal/stats"
)

// Clean repairs missing samples (NaNs) in place by linear interpolation
// between the nearest observed neighbours; leading/trailing gaps take the
// nearest observed value, and all-missing rows become zero.
func Clean(f *mts.NodeFrame) {
	mat.ParallelItems(len(f.Data), func(m int) {
		CleanSeries(f.Data[m])
	})
}

// CleanSeries is Clean for a single series.
func CleanSeries(x []float64) {
	n := len(x)
	i := 0
	for i < n {
		if !math.IsNaN(x[i]) {
			i++
			continue
		}
		// Gap [i, j).
		j := i
		for j < n && math.IsNaN(x[j]) {
			j++
		}
		switch {
		case i == 0 && j == n:
			for k := range x {
				x[k] = 0
			}
		case i == 0:
			for k := 0; k < j; k++ {
				x[k] = x[j]
			}
		case j == n:
			for k := i; k < n; k++ {
				x[k] = x[i-1]
			}
		default:
			lo, hi := x[i-1], x[j]
			span := float64(j - i + 1)
			for k := i; k < j; k++ {
				frac := float64(k-i+1) / span
				x[k] = lo + (hi-lo)*frac
			}
		}
		i = j
	}
}

// Reduction is a fitted dimensionality-reduction plan: semantic aggregation
// groups followed by the subset of groups kept after correlation
// deduplication. Apply projects any frame with the original metric layout
// onto the reduced layout.
type Reduction struct {
	// Groups lists, per output metric candidate, the input rows averaged
	// into it and the candidate's name.
	Groups []ReductionGroup
	// Keep indexes the Groups retained after Pearson deduplication.
	Keep []int
}

// ReductionGroup is one semantic aggregation: input rows averaged under a
// shared name.
type ReductionGroup struct {
	Name string
	Rows []int
}

// NumOutput returns the reduced metric count.
func (r *Reduction) NumOutput() int { return len(r.Keep) }

// OutputNames returns the names of the retained metrics.
func (r *Reduction) OutputNames() []string {
	names := make([]string, len(r.Keep))
	for i, g := range r.Keep {
		names[i] = r.Groups[g].Name
	}
	return names
}

// PlanReduction fits a reduction on training frames. groups maps an output
// name to the input row indices that share its physical meaning (per-core
// expansions, affine aliases); metrics not covered by any group each form a
// singleton group named after themselves. corr is the Pearson threshold at
// or above which one of a metric pair is dropped (0.99 in the paper).
//
// The correlation pass concatenates up to maxSamplesPerNode samples from
// every frame so the decision reflects fleet-wide behaviour, then greedily
// keeps the first metric of each highly correlated set (ordering by group
// name makes the plan deterministic).
func PlanReduction(frames map[string]*mts.NodeFrame, metricNames []string, groups map[string][]int, corr float64) *Reduction {
	red := &Reduction{}
	covered := map[int]bool{}
	groupNames := make([]string, 0, len(groups))
	for name := range groups {
		groupNames = append(groupNames, name)
	}
	sort.Strings(groupNames)
	for _, name := range groupNames {
		// Drop rows outside the frame layout: a semantic catalog built for
		// the full fleet schema may reference rows a narrower layout lacks.
		rows := make([]int, 0, len(groups[name]))
		for _, r := range groups[name] {
			if r >= 0 && r < len(metricNames) {
				rows = append(rows, r)
			}
		}
		if len(rows) == 0 {
			continue
		}
		red.Groups = append(red.Groups, ReductionGroup{Name: name, Rows: rows})
		for _, r := range rows {
			covered[r] = true
		}
	}
	for i, name := range metricNames {
		if !covered[i] {
			red.Groups = append(red.Groups, ReductionGroup{Name: name, Rows: []int{i}})
		}
	}

	// Build one aggregated sample series per group across all frames.
	const maxSamplesPerNode = 512
	nodes := make([]string, 0, len(frames))
	for n := range frames {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	agg := make([][]float64, len(red.Groups))
	for gi := range agg {
		var series []float64
		for _, node := range nodes {
			f := frames[node]
			n := f.Len()
			stride := 1
			if n > maxSamplesPerNode {
				stride = n / maxSamplesPerNode
			}
			for t := 0; t < n; t += stride {
				series = append(series, aggregateAt(f, red.Groups[gi].Rows, t))
			}
		}
		agg[gi] = series
	}

	// Greedy Pearson deduplication.
	dropped := make([]bool, len(red.Groups))
	for i := range red.Groups {
		if dropped[i] {
			continue
		}
		red.Keep = append(red.Keep, i)
		for j := i + 1; j < len(red.Groups); j++ {
			if dropped[j] {
				continue
			}
			if math.Abs(stats.Pearson(agg[i], agg[j])) >= corr {
				dropped[j] = true
			}
		}
	}
	return red
}

func aggregateAt(f *mts.NodeFrame, rows []int, t int) float64 {
	s := 0.0
	c := 0
	for _, r := range rows {
		v := f.Data[r][t]
		if math.IsNaN(v) {
			continue
		}
		s += v
		c++
	}
	if c == 0 {
		return 0
	}
	return s / float64(c)
}

// Apply projects a frame onto the reduced metric set, averaging each kept
// group's input rows. The input frame is not modified.
func (r *Reduction) Apply(f *mts.NodeFrame) *mts.NodeFrame {
	out := &mts.NodeFrame{
		Node:    f.Node,
		Metrics: r.OutputNames(),
		Data:    make([][]float64, len(r.Keep)),
		Start:   f.Start,
		Step:    f.Step,
	}
	T := f.Len()
	mat.ParallelItems(len(r.Keep), func(i int) {
		g := r.Groups[r.Keep[i]]
		row := make([]float64, T)
		for t := 0; t < T; t++ {
			row[t] = aggregateAt(f, g.Rows, t)
		}
		out.Data[i] = row
	})
	return out
}

// ApplyInto is Apply with a caller-owned destination: each kept group is
// aggregated into dst.Data[i], whose rows must already hold f.Len() samples
// (the scratch frames of core's streaming score path are sized this way).
// Aggregation runs sequentially per row, which is byte-identical to Apply's
// parallel version — rows are independent. dst.Metrics is left untouched.
func (r *Reduction) ApplyInto(dst, f *mts.NodeFrame) {
	dst.Node = f.Node
	dst.Start = f.Start
	dst.Step = f.Step
	T := f.Len()
	for i, g := range r.Keep {
		rows := r.Groups[g].Rows
		row := dst.Data[i]
		for t := 0; t < T; t++ {
			row[t] = aggregateAt(f, rows, t)
		}
	}
}

// Standardizer holds per-node, per-metric z-scoring parameters fitted with
// trimmed moments (equation (2) of the paper), plus a fleet-wide fallback
// for nodes unseen at fit time.
type Standardizer struct {
	// PerNode maps node name to its fitted (mean, std) per metric.
	PerNode map[string]*NodeParams
	// Global is the fallback for unseen nodes: the average of the
	// per-node parameters.
	Global *NodeParams
	// Clip bounds standardized values to [-Clip, Clip] (5 in the paper).
	Clip float64
}

// NodeParams are the per-metric moments of one node.
type NodeParams struct {
	Mean []float64
	Std  []float64
}

// FitStandardizer fits per node-metric trimmed moments on training frames.
// trim is the fraction of extreme samples excluded at each tail (0.05 in
// the paper); clip bounds standardized values (5 in the paper).
func FitStandardizer(frames map[string]*mts.NodeFrame, trim, clip float64) *Standardizer {
	s := &Standardizer{PerNode: make(map[string]*NodeParams, len(frames)), Clip: clip}
	nodes := make([]string, 0, len(frames))
	for n := range frames {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var width int
	for _, node := range nodes {
		f := frames[node]
		p := &NodeParams{
			Mean: make([]float64, f.NumMetrics()),
			Std:  make([]float64, f.NumMetrics()),
		}
		mat.ParallelItems(f.NumMetrics(), func(m int) {
			p.Mean[m], p.Std[m] = stats.TrimmedMeanStd(f.Data[m], trim)
		})
		s.PerNode[node] = p
		width = f.NumMetrics()
	}
	// Fleet average as the fallback for unseen nodes.
	g := &NodeParams{Mean: make([]float64, width), Std: make([]float64, width)}
	for _, p := range s.PerNode {
		for m := range g.Mean {
			g.Mean[m] += p.Mean[m]
			g.Std[m] += p.Std[m]
		}
	}
	if n := float64(len(s.PerNode)); n > 0 {
		for m := range g.Mean {
			g.Mean[m] /= n
			g.Std[m] /= n
		}
	}
	s.Global = g
	return s
}

// Apply standardizes the frame in place using the node's fitted parameters
// (or the fleet fallback) and clips to ±Clip. Zero-variance metrics map to
// 0 rather than blowing up. It runs on the calling goroutine and allocates
// nothing: the scoring path standardizes every window through it.
//
//perf:hot
func (s *Standardizer) Apply(f *mts.NodeFrame) {
	p, ok := s.PerNode[f.Node]
	if !ok {
		p = s.Global
	}
	clip := s.Clip
	if clip <= 0 {
		clip = 5
	}
	rows := f.Data
	if len(rows) > len(p.Mean) {
		rows = rows[:len(p.Mean)]
	}
	for m, row := range rows {
		mu, sd := p.Mean[m], p.Std[m]
		for t, v := range row {
			var z float64
			if sd > 0 {
				z = (v - mu) / sd
			}
			if z > clip {
				z = clip
			} else if z < -clip {
				z = -clip
			}
			row[t] = z
		}
	}
}

// Segment splits a frame at job transition points. spans must tile the
// frame's time range (idle spans included) and may extend beyond it — a
// span that started before the frame yields a segment with a positive
// Offset recording how far into the job the frame begins. Segments shorter
// than minLen samples are dropped (too short to carry a pattern).
func Segment(f *mts.NodeFrame, spans []mts.JobSpan, minLen int) []mts.Segment {
	var out []mts.Segment
	for _, sp := range spans {
		lo := f.IndexOf(sp.Start)
		hi := f.IndexOf(sp.End)
		if hi-lo < minLen {
			continue
		}
		offset := 0
		if sp.Start < f.Start && f.Step > 0 {
			offset = int((f.Start - sp.Start) / f.Step)
		}
		out = append(out, mts.Segment{Node: f.Node, Job: sp.Job, Lo: lo, Hi: hi, Offset: offset})
	}
	return out
}

// EqualLengthChop cuts a frame's time range into fixed-length segments,
// ignoring job boundaries. This is ablation variant C3 of the paper
// (Table 5): treating all segments uniformly regardless of job structure.
func EqualLengthChop(f *mts.NodeFrame, chunk int) []mts.Segment {
	if chunk <= 0 {
		return nil
	}
	var out []mts.Segment
	for lo := 0; lo+chunk <= f.Len(); lo += chunk {
		out = append(out, mts.Segment{Node: f.Node, Job: mts.IdleJobID, Lo: lo, Hi: lo + chunk})
	}
	return out
}
