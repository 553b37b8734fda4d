// Package slurmsim simulates the job-scheduling substrate that NodeSentry
// reads through Slurm's sacct command in production. It produces an
// accounting table of jobs — each with an ID, a workload kind, a set of
// co-scheduled nodes and a start/end time — plus per-node span views with
// idle gaps materialized, which is exactly the information the paper's
// segmentation stage consumes (§3.2).
//
// The simulator is a greedy backfilling scheduler over a fixed node pool:
// it repeatedly samples a job (kind, width, duration) from the configured
// mix, picks the width earliest-free nodes, inserts a small idle gap, and
// books the job. The default mix is calibrated so that the job-duration
// distribution matches the shape of the paper's Fig. 4: roughly 95 % of
// segments last under one day, with a long tail of multi-day jobs.
package slurmsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nodesentry/internal/mts"
)

// KindSpec describes one workload class in the job mix.
type KindSpec struct {
	// Name identifies the workload class; the telemetry generator maps it
	// to a signal model (e.g. "lammps", "cfd", "genomics").
	Name string
	// Weight is the relative sampling probability of the class.
	Weight float64
	// MedianDur is the median job duration in seconds; durations are
	// log-normally distributed around it.
	MedianDur float64
	// Sigma is the log-normal shape parameter (spread of durations).
	Sigma float64
	// MinNodes and MaxNodes bound the number of co-scheduled nodes.
	MinNodes, MaxNodes int
}

// DefaultKinds is a production-inspired job mix: short analysis jobs
// dominate, molecular-dynamics and CFD runs occupy several nodes for hours,
// and rare multi-day campaigns provide the tail of Fig. 4.
func DefaultKinds() []KindSpec {
	return []KindSpec{
		{Name: "lammps", Weight: 0.28, MedianDur: 4 * 3600, Sigma: 0.7, MinNodes: 2, MaxNodes: 8},
		{Name: "cfd", Weight: 0.20, MedianDur: 6 * 3600, Sigma: 0.6, MinNodes: 2, MaxNodes: 6},
		{Name: "genomics", Weight: 0.17, MedianDur: 2 * 3600, Sigma: 0.8, MinNodes: 1, MaxNodes: 2},
		{Name: "mltrain", Weight: 0.15, MedianDur: 8 * 3600, Sigma: 0.5, MinNodes: 1, MaxNodes: 4},
		{Name: "analysis", Weight: 0.15, MedianDur: 40 * 60, Sigma: 0.9, MinNodes: 1, MaxNodes: 1},
		{Name: "campaign", Weight: 0.05, MedianDur: 30 * 3600, Sigma: 0.4, MinNodes: 4, MaxNodes: 12},
	}
}

// KindsWithGPU extends the default mix with GPU workloads (the §5.3
// extension): inference services and a heavier weight on GPU training.
func KindsWithGPU() []KindSpec {
	kinds := DefaultKinds()
	kinds = append(kinds, KindSpec{
		Name: "inference", Weight: 0.12, MedianDur: 90 * 60, Sigma: 0.6,
		MinNodes: 1, MaxNodes: 2,
	})
	return kinds
}

// Config parameterizes a simulation run.
type Config struct {
	// Nodes is the node pool; use NodeNames for a standard naming scheme.
	Nodes []string
	// Horizon is the length of the simulated window in seconds.
	Horizon int64
	// Kinds is the job mix; DefaultKinds() when nil.
	Kinds []KindSpec
	// MeanIdleGap is the mean idle time inserted before a job on each of
	// its nodes, in seconds (exponential). Idle waiting is a real state in
	// the paper (a "special type of job"), so gaps must exist.
	MeanIdleGap float64
	// Seed makes the run reproducible.
	Seed int64
}

// NodeNames returns n node names in the "cn-0001" style.
func NodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("cn-%04d", i+1)
	}
	return names
}

// Record is one sacct-style accounting row.
type Record struct {
	ID    int64
	Kind  string
	Nodes []string
	Start int64
	End   int64
}

// Duration returns the job's duration in seconds.
func (r Record) Duration() int64 { return r.End - r.Start }

// Simulate runs the scheduler and returns the accounting table sorted by
// start time. Jobs are clipped to the horizon; zero-length clips are
// dropped.
func Simulate(cfg Config) []Record {
	if len(cfg.Nodes) == 0 || cfg.Horizon <= 0 {
		return nil
	}
	kinds := cfg.Kinds
	if kinds == nil {
		kinds = DefaultKinds()
	}
	gap := cfg.MeanIdleGap
	if gap <= 0 {
		gap = 10 * 60
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	totalW := 0.0
	for _, k := range kinds {
		totalW += k.Weight
	}

	// freeAt[i] is the time node i becomes free.
	freeAt := make([]int64, len(cfg.Nodes))
	var recs []Record
	var id int64
	for {
		k := sampleKind(rng, kinds, totalW)
		width := k.MinNodes
		if k.MaxNodes > k.MinNodes {
			width += rng.Intn(k.MaxNodes - k.MinNodes + 1)
		}
		if width > len(cfg.Nodes) {
			width = len(cfg.Nodes)
		}
		// Pick the `width` earliest-free nodes.
		idx := earliestFree(freeAt, width)
		start := freeAt[idx[0]]
		for _, i := range idx {
			if freeAt[i] > start {
				start = freeAt[i]
			}
		}
		start += int64(rng.ExpFloat64() * gap)
		if start >= cfg.Horizon {
			// The earliest possible slot is past the horizon for every
			// candidate set; since idx picks globally earliest nodes, no
			// further job fits anywhere.
			break
		}
		dur := int64(math.Exp(rng.NormFloat64()*k.Sigma) * k.MedianDur)
		if dur < 60 {
			dur = 60
		}
		end := start + dur
		if end > cfg.Horizon {
			end = cfg.Horizon
		}
		id++
		nodes := make([]string, 0, width)
		for _, i := range idx {
			nodes = append(nodes, cfg.Nodes[i])
			freeAt[i] = end
		}
		sort.Strings(nodes)
		if end > start {
			recs = append(recs, Record{ID: id, Kind: k.Name, Nodes: nodes, Start: start, End: end})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Start != recs[j].Start {
			return recs[i].Start < recs[j].Start
		}
		return recs[i].ID < recs[j].ID
	})
	return recs
}

func sampleKind(rng *rand.Rand, kinds []KindSpec, totalW float64) KindSpec {
	r := rng.Float64() * totalW
	for _, k := range kinds {
		if r < k.Weight {
			return k
		}
		r -= k.Weight
	}
	return kinds[len(kinds)-1]
}

// earliestFree returns the indices of the `width` nodes with the smallest
// free times.
func earliestFree(freeAt []int64, width int) []int {
	idx := make([]int, len(freeAt))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if freeAt[idx[a]] != freeAt[idx[b]] {
			return freeAt[idx[a]] < freeAt[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:width]
}

// SpansForNode projects the accounting table onto one node: its job spans in
// time order, with idle gaps materialized as spans with Job == IdleJobID.
// The view covers [0, horizon).
func SpansForNode(recs []Record, node string, horizon int64) []mts.JobSpan {
	var spans []mts.JobSpan
	for _, r := range recs {
		for _, n := range r.Nodes {
			if n == node {
				spans = append(spans, mts.JobSpan{Job: r.ID, Node: node, Start: r.Start, End: r.End})
				break
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	// Fill idle gaps.
	out := make([]mts.JobSpan, 0, 2*len(spans)+1)
	cursor := int64(0)
	for _, s := range spans {
		if s.Start > cursor {
			out = append(out, mts.JobSpan{Job: mts.IdleJobID, Node: node, Start: cursor, End: s.Start})
		}
		out = append(out, s)
		if s.End > cursor {
			cursor = s.End
		}
	}
	if cursor < horizon {
		out = append(out, mts.JobSpan{Job: mts.IdleJobID, Node: node, Start: cursor, End: horizon})
	}
	return out
}

// DurationStats summarizes the job-duration distribution: the fraction of
// jobs shorter than each of the given thresholds (in seconds). This is the
// statistic behind the paper's Fig. 4.
func DurationStats(recs []Record, thresholds []int64) []float64 {
	out := make([]float64, len(thresholds))
	if len(recs) == 0 {
		return out
	}
	for _, r := range recs {
		d := r.Duration()
		for i, th := range thresholds {
			if d < th {
				out[i]++
			}
		}
	}
	for i := range out {
		out[i] /= float64(len(recs))
	}
	return out
}

// DurationHistogram buckets job durations into the given bucket upper
// bounds (seconds, ascending); durations beyond the last bound land in an
// extra overflow bucket. Used to print Fig. 4.
func DurationHistogram(recs []Record, bounds []int64) []int {
	counts := make([]int, len(bounds)+1)
	for _, r := range recs {
		d := r.Duration()
		placed := false
		for i, b := range bounds {
			if d < b {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(bounds)]++
		}
	}
	return counts
}
