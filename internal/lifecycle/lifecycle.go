// Package lifecycle keeps NodeSentry's per-cluster models representative as
// workloads churn — the control loop the paper's deployment story (§5.1)
// assumes but leaves to the operator. Unsupervised HPC detectors degrade
// without online adaptation (Borghesi et al.; RUAD), so the package closes
// the loop in four stages:
//
//	drift     — rolling per-cluster distributions of centroid-match
//	            distance and normalized reconstruction error, compared
//	            against their training-time baselines (Drift);
//	retrain   — a byte-budgeted rolling buffer of job-segmented windows
//	            (Buffer) feeds the full HAC + per-cluster pipeline from
//	            internal/core in a cancelable background goroutine;
//	shadow    — the candidate scores the live stream side-by-side with the
//	            incumbent behind a bounded queue, and a promotion gate
//	            compares alert disagreement and score distributions;
//	promote   — the candidate is hot-swapped into runtime.Monitor
//	            (SwapDetector, zero dropped or double-scored windows) and
//	            recorded in a versioned on-disk registry (Store) with
//	            checksums, retention, quarantine, and rollback — or
//	            rejected, leaving the incumbent untouched.
//
// Every transition is exported through internal/obs as
// nodesentry_lifecycle_* series. The package is stdlib-only, like the rest
// of the module.
package lifecycle

import (
	"log/slog"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/obs"
)

// The lifecycle's fixed bounds.
const (
	// bufferBytes caps the rolling retrain buffer.
	bufferBytes = 32 << 20
	// maxSegmentsPerNode caps how many closed job segments the buffer
	// retains per node.
	maxSegmentsPerNode = 16
	// maxGapSteps bounds the inter-segment gap, in sampling steps, that
	// TrainInput will bridge with NaN fill. Gap cells cost frame memory like
	// real samples but are never charged to bufferBytes, so a node resuming
	// after a long outage could otherwise materialize a frame orders of
	// magnitude past the budget; segments older than an oversized gap are
	// left out of the retrain corpus instead.
	maxGapSteps = 120

	// maxAlertRatio bounds candidate alerts to this multiple of the
	// incumbent's over the shadow period, plus Config.AlertSlack.
	maxAlertRatio = 2
	// p50Band bounds the candidate's median normalized score to
	// [1/p50Band, p50Band]: a healthy calibrated model scores near 1 on
	// in-distribution traffic.
	p50Band = 3
)

// Config parameterizes the lifecycle Manager.
type Config struct {
	// DriftThreshold is the multiple of the training-time baseline at
	// which the rolling median counts as drifted (default 2.5): normalized
	// scores have baseline median 1 by construction, match distances are
	// measured in multiples of the cluster's match radius.
	DriftThreshold float64
	// DriftWindow is the per-cluster sliding-window size of the drift
	// sketches (default 256 observations).
	DriftWindow int
	// MinDriftSamples is the minimum number of observations a cluster's
	// sketch needs before it may vote for drift (default 64).
	MinDriftSamples int

	// CheckInterval is the cadence of drift evaluation and shadow-gate
	// checks in Run (default 30 s).
	CheckInterval time.Duration
	// RetrainInterval, when positive, additionally schedules retraining on
	// a fixed period regardless of drift.
	RetrainInterval time.Duration
	// TrainOptions parameterizes the retraining pipeline. Zero-valued
	// fields are NOT defaulted here; pass core.DefaultOptions() adjusted to
	// taste.
	TrainOptions core.Options
	// SemanticGroups is forwarded to core.TrainInput.
	SemanticGroups map[string][]int
	// Step is the sampling interval in seconds (must match the monitor's).
	Step int64

	// MinShadowWindows is how many windows the candidate must score before
	// the promotion gate may decide (default 8).
	MinShadowWindows int64
	// AlertSlack is the absolute allowance on top of maxAlertRatio
	// (default 5), so a near-silent incumbent doesn't make the gate
	// unpassable.
	AlertSlack int64
	// ImprovementFactor is the relative escape hatch of the score gate
	// (default 0.5): a candidate whose median falls outside p50Band is
	// still promotable when it is at most this fraction of the incumbent's
	// median over the same shadow stream. Generalization gap inflates
	// absolute medians on held-out traffic for incumbent and candidate
	// alike, so the distribution comparison is relative at heart; the
	// absolute band is the fast path for a well-calibrated candidate.
	ImprovementFactor float64
	// ShadowQueue is the bounded queue between the live ingest path and
	// the shadow scorer (default 1024 events); when full, shadow events
	// are dropped and counted, never blocking live scoring.
	ShadowQueue int

	// Metrics, when non-nil, receives the nodesentry_lifecycle_* series.
	Metrics *obs.Registry
	// Logger, when non-nil, receives lifecycle transitions at Info.
	Logger *slog.Logger
	// OnEvent, when non-nil, receives every lifecycle transition as a
	// (kind, detail) pair — kinds: "drift", "retrain", "retrain_failed",
	// "shadow", "promoted", "rejected", "swap". It is called synchronously
	// from the transitioning goroutine and must not block; the fleetview
	// event journal is the intended consumer.
	OnEvent func(kind, detail string)
}

func (c Config) withDefaults() Config {
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 2.5
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = 256
	}
	if c.MinDriftSamples <= 0 {
		c.MinDriftSamples = 64
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = 30 * time.Second
	}
	if c.MinShadowWindows <= 0 {
		c.MinShadowWindows = 8
	}
	if c.AlertSlack <= 0 {
		c.AlertSlack = 5
	}
	if c.ImprovementFactor <= 0 {
		c.ImprovementFactor = 0.5
	}
	if c.ShadowQueue <= 0 {
		c.ShadowQueue = 1024
	}
	if c.Step <= 0 {
		c.Step = 60
	}
	return c
}
