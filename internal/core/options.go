// Package core implements the NodeSentry framework itself (§3): the offline
// phase — preprocessing, coarse-grained HAC clustering of job segments, and
// per-cluster shared Transformer-MoE reconstruction models weighted by MAC —
// and the online phase — pattern matching against the cluster library,
// reconstruction-error scoring, k-sigma dynamic thresholding, incremental
// fine-tuning of matched patterns and cluster spawning for unmatched ones.
package core

import (
	"nodesentry/internal/cluster"
	"nodesentry/internal/nn"
)

// Options configures a Detector. The zero value is unusable; start from
// DefaultOptions. The json tags are the keys of the nodesentry command's
// -config file; a field tagged "-" is not settable from it.
type Options struct {
	// --- Preprocessing (§3.2) ---

	// CorrThreshold is the Pearson level at which redundant metrics are
	// dropped (0.99 in the paper).
	CorrThreshold float64 `json:"corr_threshold"`
	// Trim is the tail fraction excluded when fitting standardization
	// moments (0.05 in the paper).
	Trim float64 `json:"trim"`
	// Clip bounds standardized values (5 in the paper).
	Clip float64 `json:"clip"`
	// MinSegmentLen drops job segments shorter than this many samples.
	MinSegmentLen int `json:"min_segment_len"`

	// --- Coarse-grained clustering (§3.3) ---

	// PCADims projects the normalized segment-feature vectors onto this
	// many principal components before clustering and matching (0
	// disables). Challenge 1 of the paper calls for exactly this:
	// Euclidean distances concentrate in the raw metrics×features space.
	PCADims int `json:"pca_dims"`
	// Linkage is the HAC merge criterion.
	Linkage cluster.Linkage `json:"-"`
	// KMin/KMax bound the silhouette search for the cluster count.
	KMin int `json:"k_min"`
	KMax int `json:"k_max"`
	// ClusterOverride forces an exact cluster count (hyperparameter sweep
	// Fig. 6(b)); 0 keeps the automatic silhouette selection.
	ClusterOverride int `json:"-"`

	// --- Fine-grained model sharing (§3.4) ---

	// Model is the reconstruction architecture; InputDim is filled in by
	// Train after reduction.
	Model nn.ReconstructorConfig `json:"model"`
	// WindowLen is the token-window length fed to the Transformer (20 in
	// the artifact).
	WindowLen int `json:"window_len"`
	// RepSegments is K: how many segments nearest the centroid train each
	// cluster's shared model.
	RepSegments int `json:"rep_segments"`
	// Epochs/LR drive Adam training (30 / 1.5e-4 in the artifact; smaller
	// defaults keep CPU runs fast).
	Epochs int     `json:"epochs"`
	LR     float64 `json:"lr"`
	// MaxWindowsPerCluster caps each epoch's window count (0 = unlimited).
	MaxWindowsPerCluster int `json:"max_windows_per_cluster"`

	// --- Online detection (§3.5) ---

	// MatchPeriodSec is how much post-transition data feeds pattern
	// matching (3600 s in the paper).
	MatchPeriodSec int64 `json:"match_period_sec"`
	// ThresholdWindowSec is the k-sigma sliding window (15-20 min
	// recommended by the paper).
	ThresholdWindowSec int64 `json:"threshold_window_sec"`
	// KSigma is the dynamic-threshold multiplier (3 in practice).
	KSigma float64 `json:"k_sigma"`
	// MinConsecutive requires that many consecutive threshold
	// exceedances before flagging (1 = the paper's plain point rule;
	// operators commonly debounce with 2 to suppress single-sample
	// noise).
	MinConsecutive int `json:"min_consecutive"`

	// --- Ablation switches (Table 5) ---

	// DisableClustering trains a single shared model (C1).
	DisableClustering bool `json:"-"`
	// RandomClusters replaces HAC labels with random groups of the same
	// cardinality (C2).
	RandomClusters bool `json:"-"`
	// EqualLengthChopLen, when positive, replaces job-based segmentation
	// with fixed-length chopping (C3).
	EqualLengthChopLen int `json:"-"`
	// FlatPositionalEncoding drops the segment-aware encoding term (C4).
	FlatPositionalEncoding bool `json:"-"`
	// DenseFFN replaces the sparse MoE with a dense FFN (C5).
	DenseFFN bool `json:"-"`
	// UniformLossWeights replaces the MAC-derived WMSE weights of
	// equation (5) with uniform weights — a design ablation of the
	// stability-weighted loss, beyond the paper's C1–C5 set.
	UniformLossWeights bool `json:"-"`

	// Seed controls all stochastic choices.
	Seed int64 `json:"seed"`
}

// DefaultOptions returns the paper-faithful configuration at CPU-tractable
// model sizes.
func DefaultOptions() Options {
	return Options{
		CorrThreshold: 0.99,
		Trim:          0.05,
		Clip:          5,
		MinSegmentLen: 16,

		PCADims: 0, // see the `pca` design-ablation experiment before enabling
		Linkage: cluster.Average,
		KMin:    2,
		KMax:    12,

		Model: nn.ReconstructorConfig{
			ModelDim: 48,
			Heads:    2,
			Hidden:   64,
			Blocks:   2,
			Experts:  3,
			TopK:     1,
		},
		WindowLen:            20,
		RepSegments:          8,
		Epochs:               24,
		LR:                   1.5e-3,
		MaxWindowsPerCluster: 400,

		MatchPeriodSec:     3600,
		ThresholdWindowSec: 1200,
		// The paper's operators use 3-sigma; the synthetic substrate's
		// score distribution is heavier-tailed, so 4-sigma is the
		// calibrated equivalent (see EXPERIMENTS.md).
		KSigma:         4,
		MinConsecutive: 1,

		Seed: 1,
	}
}
