package nodesentry

import "nodesentry/internal/obs"

// Observability types (internal/obs): a stdlib-only metrics registry with
// Prometheus text exposition — the collector protocol the paper's §5.1
// deployment assumes — plus span-style stage tracing for the offline
// pipeline. Both are nil-safe: a nil registry or tracer disables all
// instrumentation without changing any detection output.
type (
	// MetricsRegistry is the concurrent counter/gauge/histogram registry;
	// pass it via MonitorConfig.Metrics and render it with its WritePrometheus.
	MetricsRegistry = obs.Registry
	// StageTracer records per-stage wall time, allocations and item
	// counts; pass it via TrainInput.Trace.
	StageTracer = obs.Tracer
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewStageTracer builds a tracer mirroring stage spans into reg (nil keeps
// records only).
func NewStageTracer(reg *MetricsRegistry) *StageTracer { return obs.NewTracer(reg) }
