// Package faults is the ChaosBlade-equivalent fault-injection substrate: it
// plans fault campaigns over a node pool and turns each fault into a
// telemetry overlay that perturbs exactly the metric semantics the real
// fault would disturb, together with point-wise ground-truth labels for
// evaluation.
//
// The fault taxonomy follows Table 1 of the paper (CPU, Memory, Disk,
// Network, Kernel/OS levels). Perturbations are injected at the semantic
// level *before* catalog expansion, so per-core and affine-alias metrics of
// an affected semantic move consistently, as they would under a real fault.
package faults

import (
	"math"
	"math/rand"
	"sort"

	"nodesentry/internal/mts"
	"nodesentry/internal/telemetry"
)

// Type identifies a fault class from the paper's Table 1.
type Type string

// Fault classes. Severity semantics are normalized: 1.0 produces a
// perturbation comparable to a busy workload's full dynamic range.
const (
	CPUOverload        Type = "cpu-overload"
	CacheFailure       Type = "cache-failure"
	MemoryLeak         Type = "memory-leak"
	MemoryExhaustion   Type = "memory-exhaustion"
	DiskFull           Type = "disk-full"
	DataCorruption     Type = "silent-data-corruption"
	NetworkCongestion  Type = "network-congestion"
	NetworkPartition   Type = "network-partition"
	ResourceContention Type = "resource-contention"
	PageAllocError     Type = "page-alloc-error"
)

// GPU-extension fault classes (§5.3); not part of AllTypes so that
// CPU-only campaigns stay reproducible — select them explicitly.
const (
	GPUOverload         Type = "gpu-overload"
	GPUMemoryExhaustion Type = "gpu-memory-exhaustion"
	ThermalThrottle     Type = "gpu-thermal-throttle"
)

// Additional Kernel/OS-level classes from Table 1's "etc." tail; like the
// GPU classes they are opt-in to keep default campaigns reproducible.
const (
	// ClockDrift perturbs the timekeeping status flags (timex) — subtle,
	// only visible on otherwise-constant System metrics.
	ClockDrift Type = "clock-drift"
	// IOHang stalls the I/O path: reads and writes collapse while blocked
	// process counts climb.
	IOHang Type = "io-hang"
)

// ExtraTypes lists the opt-in Kernel/OS-level classes.
func ExtraTypes() []Type { return []Type{ClockDrift, IOHang} }

// AllTypes lists every CPU-level fault class.
func AllTypes() []Type {
	return []Type{
		CPUOverload, CacheFailure, MemoryLeak, MemoryExhaustion, DiskFull,
		DataCorruption, NetworkCongestion, NetworkPartition,
		ResourceContention, PageAllocError,
	}
}

// GPUTypes lists the GPU-extension fault classes.
func GPUTypes() []Type {
	return []Type{GPUOverload, GPUMemoryExhaustion, ThermalThrottle}
}

// Fault is one planned injection on one node.
type Fault struct {
	Type     Type
	Node     string
	Start    int64 // Unix seconds, inclusive
	End      int64 // Unix seconds, exclusive
	Severity float64
	// seed decorrelates the pseudo-noise of individual faults.
	seed int64
}

// Interval returns the fault's labeled interval.
func (f Fault) Interval() mts.Interval { return mts.Interval{Start: f.Start, End: f.End} }

// delta describes how one fault type transforms one semantic. The `level`
// targets are values that are legitimate for *some* workload kind, which
// makes the faults contextual: a CPU pinned at 0.92 is normal during an
// mltrain job but anomalous during idle waiting, so only detectors that
// know the node's current job pattern can separate the two — the paper's
// central argument for job-aware modeling.
type delta struct {
	sem   string
	kind  xform
	level float64 // target level / scale factor, modulated by severity
}

type xform int

const (
	// raiseTo pulls the value up toward a fixed plausible level.
	raiseTo xform = iota
	// rampTo interpolates toward the level over the fault window (leaks,
	// filling disks).
	rampTo
	// scaleBy multiplies the value by level^severity (throughput
	// collapses).
	scaleBy
	// addJitter modulates the value with a high-frequency disturbance.
	addJitter
	// spikeTo raises the value to the level intermittently (burst trains).
	spikeTo
)

// signatures maps each fault type to its metric-level footprint.
var signatures = map[Type][]delta{
	CPUOverload: {
		{"cpu_busy", raiseTo, 0.92}, {"load", raiseTo, 0.92},
		{"cpu_ctx", raiseTo, 0.70}, {"procs_running", raiseTo, 0.92},
	},
	CacheFailure: {
		{"cpu_busy", addJitter, 0.35}, {"cpu_migrations", spikeTo, 0.80},
		{"cpu_ctx", addJitter, 0.40},
	},
	MemoryLeak: {
		{"mem_used", rampTo, 0.95}, {"mem_cache", scaleBy, 0.60},
		{"numa_foreign", rampTo, 0.60},
	},
	MemoryExhaustion: {
		{"mem_used", raiseTo, 0.95}, {"mem_cache", scaleBy, 0.50},
		{"procs_blocked", raiseTo, 0.60}, {"mem_kernel", raiseTo, 0.45},
	},
	DiskFull: {
		{"fs_files", rampTo, 0.90}, {"filefd", rampTo, 0.80},
		{"disk_write", scaleBy, 0.30},
	},
	DataCorruption: {
		{"disk_read", spikeTo, 0.85}, {"disk_write", addJitter, 0.40},
	},
	NetworkCongestion: {
		{"net_rx", scaleBy, 0.35}, {"net_tx", scaleBy, 0.35},
		{"sockets", raiseTo, 0.55}, {"procs_blocked", raiseTo, 0.40},
	},
	NetworkPartition: {
		{"net_rx", scaleBy, 0.02}, {"net_tx", scaleBy, 0.02},
		{"sockets", scaleBy, 0.50},
	},
	ResourceContention: {
		{"cpu_iowait", raiseTo, 0.60}, {"procs_blocked", raiseTo, 0.50},
		{"cpu_busy", addJitter, 0.30},
	},
	PageAllocError: {
		{"mem_kernel", spikeTo, 0.60}, {"procs_blocked", raiseTo, 0.45},
		{"numa_foreign", spikeTo, 0.70},
	},
	GPUOverload: {
		{"gpu_util", raiseTo, 0.95}, {"gpu_temp", raiseTo, 0.85},
		{"nvlink_tx", raiseTo, 0.60},
	},
	GPUMemoryExhaustion: {
		{"gpu_mem", raiseTo, 0.97}, {"gpu_util", addJitter, 0.30},
	},
	ThermalThrottle: {
		{"gpu_temp", raiseTo, 0.92}, {"gpu_util", scaleBy, 0.50},
		{"nvlink_tx", scaleBy, 0.60},
	},
	ClockDrift: {
		{"timex_status", addJitter, 0.80}, {"uptime", addJitter, 0.05},
	},
	IOHang: {
		{"disk_read", scaleBy, 0.05}, {"disk_write", scaleBy, 0.05},
		{"cpu_iowait", raiseTo, 0.80}, {"procs_blocked", raiseTo, 0.70},
	},
}

// AffectedSemantics returns the semantics a fault type perturbs.
func AffectedSemantics(ft Type) []string {
	sig := signatures[ft]
	out := make([]string, 0, len(sig))
	for _, d := range sig {
		out = append(out, d.sem)
	}
	return out
}

// Overlay converts the fault into a telemetry overlay: a value transform
// on the normalized semantic signal, identity outside [Start, End).
func (f Fault) Overlay() telemetry.Overlay {
	sig := signatures[f.Type]
	dur := float64(f.End - f.Start)
	phase := float64(f.seed%997) * 0.0063
	return func(sem string, ts int64, v float64) float64 {
		if ts < f.Start || ts >= f.End {
			return v
		}
		frac := float64(ts-f.Start) / dur
		for _, d := range sig {
			if d.sem != sem {
				continue
			}
			switch d.kind {
			case raiseTo:
				if d.level > v {
					v += f.Severity * (d.level - v)
				}
			case rampTo:
				if d.level > v {
					v += f.Severity * frac * (d.level - v)
				}
			case scaleBy:
				v *= math.Pow(d.level, f.Severity)
			case addJitter:
				v *= 1 + d.level*f.Severity*math.Sin(2*math.Pi*frac*57+phase)
			case spikeTo:
				// Deterministic burst train: active ~30% of the time.
				w := math.Sin(2*math.Pi*frac*23 + phase)
				if w > 0.4 && d.level > v {
					v += f.Severity * (d.level - v) * math.Min(1, 0.5+w)
				}
			}
		}
		return v
	}
}

// CampaignConfig parameterizes PlanCampaign.
type CampaignConfig struct {
	// Nodes is the injectable node pool.
	Nodes []string
	// Window bounds all injections (typically the test split).
	Window mts.Interval
	// FaultsPerNode is the expected number of faults per node over the
	// window (Poisson-ish; the realized count varies).
	FaultsPerNode float64
	// MeanDuration is the mean fault duration in seconds (exponential,
	// clamped to [MinDuration, window]).
	MeanDuration float64
	// MinDuration floors fault durations (default 120 s).
	MinDuration float64
	// Types restricts the classes injected; AllTypes() when nil.
	Types []Type
	// Seed makes the campaign reproducible.
	Seed int64
}

// PlanCampaign schedules a reproducible fault campaign: per node, a random
// number of non-overlapping faults inside the window. The low default rates
// mirror the paper's anomaly ratios (0.04–0.16 % of samples).
func PlanCampaign(cfg CampaignConfig) []Fault {
	if cfg.Window.End <= cfg.Window.Start || len(cfg.Nodes) == 0 {
		return nil
	}
	types := cfg.Types
	if types == nil {
		types = AllTypes()
	}
	meanDur := cfg.MeanDuration
	if meanDur <= 0 {
		meanDur = 600
	}
	minDur := cfg.MinDuration
	if minDur <= 0 {
		minDur = 120
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	span := cfg.Window.End - cfg.Window.Start
	var out []Fault
	for _, node := range cfg.Nodes {
		n := poisson(rng, cfg.FaultsPerNode)
		var ivs []mts.Interval
		for i := 0; i < n; i++ {
			dur := int64(rng.ExpFloat64() * meanDur)
			if dur < int64(minDur) {
				dur = int64(minDur)
			}
			if dur >= span {
				dur = span / 2
			}
			start := cfg.Window.Start + int64(rng.Int63n(span-dur))
			iv := mts.Interval{Start: start, End: start + dur}
			if overlapsAny(iv, ivs) {
				continue // skip rather than retry: keeps the plan simple
			}
			ivs = append(ivs, iv)
			out = append(out, Fault{
				Type:     types[rng.Intn(len(types))],
				Node:     node,
				Start:    iv.Start,
				End:      iv.End,
				Severity: 0.5 + 0.5*rng.Float64(),
				seed:     rng.Int63(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Start < out[j].Start
	})
	return out
}

func overlapsAny(iv mts.Interval, ivs []mts.Interval) bool {
	for _, o := range ivs {
		if iv.Overlaps(o) {
			return true
		}
	}
	return false
}

// poisson samples a Poisson count via inversion (fine for small lambdas).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// Overlays merges the campaign into one overlay per node. Nodes without
// faults are absent from the map (nil overlay means "no anomalies").
func Overlays(faults []Fault) map[string]telemetry.Overlay {
	byNode := map[string][]Fault{}
	for _, f := range faults {
		byNode[f.Node] = append(byNode[f.Node], f)
	}
	out := make(map[string]telemetry.Overlay, len(byNode))
	for node, fs := range byNode {
		overlays := make([]telemetry.Overlay, len(fs))
		for i, f := range fs {
			overlays[i] = f.Overlay()
		}
		out[node] = func(sem string, ts int64, v float64) float64 {
			for _, o := range overlays {
				v = o(sem, ts, v)
			}
			return v
		}
	}
	return out
}

// Labels converts the campaign into ground-truth anomaly labels.
func Labels(faults []Fault) mts.Labels {
	l := mts.Labels{}
	for _, f := range faults {
		l.Add(f.Node, f.Interval())
	}
	return l
}
