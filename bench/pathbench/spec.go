package main

import (
	"nodesentry/internal/slurmsim"
)

// The fixed environment every workload runs in (ISSUE 13): the chunked
// reductions in internal/mat depend on GOMAXPROCS, so scores — and with
// them detect_auc and the reference check — do too.
const (
	benchProcs     = 2
	benchShards    = 2
	benchWorkers   = 2
	benchQueueSize = 256

	// stepSec is the sampling interval of every trace.
	stepSec = 60
	// baseTime is the wire time of a trace's first sample. Ten decimal
	// digits in seconds and thirteen in milliseconds for every pass a run
	// can reach, which is what lets the generator patch times in place.
	baseTime = int64(1_700_000_000)

	// trainWindowsPerCluster caps each cluster model's training set, so
	// set-up costs the same whichever way the seed's signals cluster.
	trainWindowsPerCluster = 64

	// setupReps is how many times one run sets up; setup_s is the median.
	setupReps = 3
	// lateLimitMs is the paced-phase lateness beyond which the run's notes
	// count a send as late.
	lateLimitMs = 5.0
)

// wireFormat is the push body encoding of a workload.
type wireFormat int

const (
	formatJSONL wireFormat = iota
	formatExposition
)

func (f wireFormat) contentType() string {
	if f == formatJSONL {
		return "application/x-ndjson"
	}
	return "text/plain; version=0.0.4"
}

// timeWidth is the fixed decimal width of the format's time fields:
// Unix seconds in JSONL, Unix milliseconds in the exposition format.
func (f wireFormat) timeWidth() int {
	if f == formatJSONL {
		return 10
	}
	return 13
}

// timeScale converts seconds into the format's time unit.
func (f wireFormat) timeScale() int64 {
	if f == formatJSONL {
		return 1
	}
	return 1000
}

// workload is one traffic mix: what the fleet looks like, how it talks to
// the daemon, and how the daemon is configured to score it.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string

	nodes int
	// cores, affine and constants shape the metric catalog width.
	cores, affine, constants int
	format                   wireFormat

	// scheduleSeed fixes the workload's job schedule (see buildTrace).
	scheduleSeed int64
	// kinds is the job mix (nil = slurmsim.DefaultKinds).
	kinds []slurmsim.KindSpec
	// matchPeriodSec is the post-transition observation period.
	matchPeriodSec int64
	faultsPerNode  float64
	meanFaultSec   float64

	// trainTicks of fault-free history train the detector; serveTicks
	// form the pass that is replayed.
	trainTicks, serveTicks int
	clusters               int
	epochs                 int

	// batchWindows is daemon.Config.BatchWindows (0 = sentryd's default
	// sequential ScoreFrame path).
	batchWindows int
	// alertTier turns on the summarizer and the loopback webhook.
	alertTier bool

	// pacedTicksPerSec is the open-loop tick rate of the paced phase. It
	// was chosen once, at about 40 % of the median saturation rate on the
	// two-core machine the benchmark was calibrated on, and is a constant
	// of the benchmark: deriving it at run time would make the latency
	// metrics follow the throughput of the code under test.
	pacedTicksPerSec float64
}

// churnKinds is the short-job mix of churn_alerts: every class runs for
// about ninety minutes, so nodes change jobs — and re-match — many times
// per pass.
func churnKinds() []slurmsim.KindSpec {
	kinds := slurmsim.DefaultKinds()
	for i := range kinds {
		kinds[i].MedianDur = 90 * 60
		kinds[i].Sigma = 0.4
		if kinds[i].MaxNodes > 4 {
			kinds[i].MaxNodes = 4
		}
	}
	return kinds
}

// workloads lists the benchmark's traffic mixes; names are normative.
func workloads() []workload {
	return []workload{
		{
			name:  "steady_jsonl",
			why:   "64 narrow-catalog nodes on long jobs, JSONL, batched scoring: model forward and kernels dominate, ingest barely matters",
			nodes: 64, cores: 2, affine: 1, constants: 2, format: formatJSONL, scheduleSeed: 11,
			matchPeriodSec: 3600, faultsPerNode: 1.5, meanFaultSec: 1500,
			trainTicks: 960, serveTicks: 480, clusters: 4, epochs: 4,
			batchWindows: 8, pacedTicksPerSec: 120,
		},
		{
			name:  "wide_exposition",
			why:   "16 nodes with a 130-metric catalog in Prometheus text: exposition parsing and layout mapping dominate, kernel work predicted flat",
			nodes: 16, cores: 16, affine: 2, constants: 6, format: formatExposition, scheduleSeed: 12,
			matchPeriodSec: 3600, faultsPerNode: 2, meanFaultSec: 1500,
			trainTicks: 960, serveTicks: 480, clusters: 4, epochs: 4,
			batchWindows: 8, pacedTicksPerSec: 160,
		},
		{
			name:  "churn_alerts",
			why:   "32 nodes on 90-minute jobs with dense faults, sequential ScoreFrame path, summarizer and webhook on: match, diagnose and alert delivery carry weight",
			nodes: 32, cores: 2, affine: 1, constants: 2, format: formatJSONL, scheduleSeed: 13,
			kinds: churnKinds(), matchPeriodSec: 1800, faultsPerNode: 6, meanFaultSec: 900,
			trainTicks: 960, serveTicks: 480, clusters: 4, epochs: 4,
			batchWindows: 0, alertTier: true, pacedTicksPerSec: 240,
		},
	}
}

// findWorkload returns the workload called name.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
