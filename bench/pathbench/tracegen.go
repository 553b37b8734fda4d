package main

import (
	"sort"

	"nodesentry/internal/core"
	"nodesentry/internal/faults"
	"nodesentry/internal/mat"
	"nodesentry/internal/mts"
	"nodesentry/internal/slurmsim"
	"nodesentry/internal/telemetry"
)

// trace is one workload's deterministic input: a fault-free training
// history and the serve window that is replayed as passes. Everything in
// it is a function of (workload, seed).
type trace struct {
	w     workload
	nodes []string
	// metrics is the catalog layout every node pushes.
	metrics []string

	// splitAt is the dataset time at which serving starts; wire time is
	// baseTime + (dataset time − splitAt).
	splitAt int64

	train core.TrainInput
	// serve holds each node's serve-window frame (Start == splitAt).
	serve map[string]*mts.NodeFrame
	// spans holds each node's job spans overlapping the serve window,
	// unclipped: a job already running at splitAt keeps its true start.
	spans  map[string][]mts.JobSpan
	labels mts.Labels
}

// buildTrace generates the workload's trace for a seed: the scheduler's
// accounting table, a fault campaign confined to the serve window, and
// per-node telemetry over both windows.
func buildTrace(w workload, seed int64) *trace {
	total := w.trainTicks + w.serveTicks
	tr := &trace{
		w:       w,
		nodes:   slurmsim.NodeNames(w.nodes),
		splitAt: int64(w.trainTicks) * stepSec,
		serve:   map[string]*mts.NodeFrame{},
		spans:   map[string][]mts.JobSpan{},
	}
	horizon := int64(total) * stepSec
	// The schedule belongs to the workload, not the seed: how many jobs
	// start, how long they run and how many windows a pass holds define
	// the mix of work being measured, and letting them move with the seed
	// would bury code changes under input luck. The seed draws everything
	// the fleet then does within that schedule — signal templates, noise,
	// lost samples, and where the faults land.
	recs := slurmsim.Simulate(slurmsim.Config{
		Nodes: tr.nodes, Horizon: horizon, Kinds: w.kinds, Seed: w.scheduleSeed,
	})
	kinds := make(map[int64]string, len(recs))
	for _, r := range recs {
		kinds[r.ID] = r.Kind
	}
	campaign := faults.PlanCampaign(faults.CampaignConfig{
		Nodes:         tr.nodes,
		Window:        mts.Interval{Start: tr.splitAt, End: horizon},
		FaultsPerNode: w.faultsPerNode,
		MeanDuration:  w.meanFaultSec,
		Seed:          seed + 101,
	})
	tr.labels = faults.Labels(campaign)
	overlays := faults.Overlays(campaign)
	catalog := telemetry.BuildCatalog(telemetry.CatalogOptions{
		Cores: w.cores, AffinePerSemantic: w.affine, ConstantMetrics: w.constants,
	})
	tr.metrics = telemetry.Names(catalog)
	gen := &telemetry.Generator{
		Catalog: catalog, Step: stepSec, Seed: seed + 202,
		NoiseStd: 0.02, MissingRate: 0.001,
	}

	frames := make([]*mts.NodeFrame, len(tr.nodes))
	allSpans := make([][]mts.JobSpan, len(tr.nodes))
	mat.ParallelItems(len(tr.nodes), func(i int) {
		allSpans[i] = slurmsim.SpansForNode(recs, tr.nodes[i], horizon)
		frames[i] = gen.Generate(tr.nodes[i], allSpans[i], kinds, total, overlays[tr.nodes[i]])
	})

	tr.train = core.TrainInput{
		Frames:         map[string]*mts.NodeFrame{},
		Spans:          map[string][]mts.JobSpan{},
		SemanticGroups: telemetry.SemanticIndex(catalog),
	}
	for i, node := range tr.nodes {
		f := frames[i]
		tr.train.Frames[node] = f.Slice(0, w.trainTicks)
		tr.serve[node] = f.Slice(w.trainTicks, total)
		for _, sp := range allSpans[i] {
			if sp.Start < tr.splitAt {
				tr.train.Spans[node] = append(tr.train.Spans[node], sp)
			}
			if sp.End > tr.splitAt {
				tr.spans[node] = append(tr.spans[node], sp)
			}
		}
		sort.Slice(tr.spans[node], func(a, b int) bool {
			return tr.spans[node][a].Start < tr.spans[node][b].Start
		})
	}
	return tr
}

// options returns the detector configuration the workload trains with:
// the paper's defaults at a size that keeps set-up to a few seconds, and
// a fixed cluster count so set-up time does not follow the silhouette
// search's pick from seed to seed.
func (tr *trace) options() core.Options {
	o := core.DefaultOptions()
	o.ClusterOverride = tr.w.clusters
	o.Epochs = tr.w.epochs
	o.MaxWindowsPerCluster = trainWindowsPerCluster
	o.MatchPeriodSec = tr.w.matchPeriodSec
	o.Seed = 1
	return o
}

// wireTime maps a dataset time onto the wire clock of pass 0.
func (tr *trace) wireTime(ts int64) int64 { return baseTime + ts - tr.splitAt }

// passSpan is how far one pass advances the wire clock, in seconds.
func (w workload) passSpan() int64 { return int64(w.serveTicks) * stepSec }

// layouts returns the per-node metric layout daemon.Config wants.
func (tr *trace) layouts() map[string][]string {
	out := make(map[string][]string, len(tr.nodes))
	for _, n := range tr.nodes {
		out[n] = tr.metrics
	}
	return out
}

// firstTick is the serve tick at which node i starts reporting in every
// pass. Every pass begins by announcing each node's running job, which
// resets the monitor's per-node state; were all nodes to report from tick
// 0 they would fill their windows in lock-step and the daemon would see
// the whole fleet's scoring work arrive in one tick out of every twenty.
// Staggering the start by up to one window length spreads it evenly, as
// unsynchronized job starts do on a real fleet.
func (tr *trace) firstTick(i int) int { return i % staggerTicks }

// staggerTicks is the detector's window length, the span node starts are
// staggered over.
var staggerTicks = core.DefaultOptions().WindowLen

// tickEvents calls job for every transition node i must announce before
// its sample at serve tick t ≥ firstTick(i) — every span that has started
// by then and was not announced at an earlier tick, which at the node's
// first tick includes the job already running when the pass begins
// (runtime.Replay's rule). next[i] is the caller-held cursor into the
// node's spans.
func (tr *trace) tickEvents(i, t int, next []int, job func(job, wireStart int64)) {
	node := tr.nodes[i]
	ts := tr.splitAt + int64(t)*stepSec
	spans := tr.spans[node]
	for next[i] < len(spans) && spans[next[i]].Start <= ts {
		sp := spans[next[i]]
		job(sp.Job, tr.wireTime(sp.Start))
		next[i]++
	}
}

// samplesAt is how many nodes report at serve tick t.
func (tr *trace) samplesAt(t int) int {
	n := 0
	for i := range tr.nodes {
		if t >= tr.firstTick(i) {
			n++
		}
	}
	return n
}
