package nodesentry

import "nodesentry/internal/runtime"

// Deployment-runtime types (the paper's §5.1 workflow, Fig. 7).
type (
	// Monitor is the streaming detection engine: per-node sample
	// ingestion, job-transition pattern matching, windowed scoring,
	// dynamic thresholding, prioritized alerts.
	Monitor = runtime.Monitor
	// MonitorConfig parameterizes a Monitor.
	MonitorConfig = runtime.Config
	// Alert is one prioritized anomaly notification with diagnosis.
	Alert = runtime.Alert
)

// Critical is the higher of an Alert's two priorities; the other, a
// warning, is the zero value.
const Critical = runtime.Critical

// NewMonitor builds a streaming monitor around a trained detector, cloning
// it for the scoring worker pool.
func NewMonitor(det *Detector, cfg MonitorConfig) (*Monitor, error) {
	return runtime.NewMonitor(det, cfg)
}

// ReplayDataset streams a dataset window through a monitor in timestamp
// order and returns the alerts raised — the test harness for the
// deployment path, and a template for wiring a real collector.
func ReplayDataset(ds *Dataset, m *Monitor, from, to int64) []Alert {
	return runtime.Replay(ds, m, from, to)
}
