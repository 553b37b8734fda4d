package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"nodesentry/internal/cluster"
	"nodesentry/internal/mat"
	"nodesentry/internal/preprocess"
)

// The wire format is a fixed magic + version header followed by a gob
// payload. The header exists so that Load can reject non-snapshot bytes and
// future-format snapshots with a precise error instead of a confusing gob
// decode failure — the model registry's corrupt-entry quarantine keys off
// these errors.
const (
	snapshotMagic   = "NSDM" // NodeSentry Detector Model
	snapshotVersion = byte(1)
)

// snapshot is the gob wire format of a Detector. Model weights are stored
// as flat parameter slices; the architecture is rebuilt from Options on
// load (§3.5: "we save the shared model for each cluster").
type snapshot struct {
	Opts      Options
	Reduction *preprocess.Reduction
	Std       *preprocess.Standardizer
	FeatMean  []float64
	FeatStd   []float64
	PCA       *cluster.PCA
	Centroids *mat.Matrix
	Models    []modelSnapshot
	Stats     TrainStats
	InputDim  int
}

type modelSnapshot struct {
	Weights []float64
	Radius  float64
	Scale   float64
	Params  [][]float64
}

// Save serializes the trained detector.
func (d *Detector) Save(w io.Writer) error {
	if _, err := w.Write(append([]byte(snapshotMagic), snapshotVersion)); err != nil {
		return fmt.Errorf("core: write snapshot header: %w", err)
	}
	snap := snapshot{
		Opts:      d.opts,
		Reduction: d.red,
		Std:       d.std,
		FeatMean:  d.featMean,
		FeatStd:   d.featStd,
		PCA:       d.pca,
		Centroids: d.centroids,
		Stats:     d.Stats,
		InputDim:  d.red.NumOutput(),
	}
	for _, cm := range d.library {
		ms := modelSnapshot{Weights: cm.weights, Radius: cm.radius, Scale: cm.scale}
		for _, p := range cm.model.Params() {
			ms.Params = append(ms.Params, append([]float64(nil), p.W.Data...))
		}
		snap.Models = append(snap.Models, ms)
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// Clone returns an independent deep copy of the detector, safe to use from
// a different goroutine than the original (layer caches are per instance).
// Mutable state — centroids, the model library, per-model loss weights —
// is copied; the preprocessing artifacts (reduction plan, standardizer,
// PCA basis) are shared, since nothing mutates them after training. Model
// weights go through the same rebuild path Load uses, so a clone scores
// bit-identically to a snapshot round-trip without paying the gob
// encode/decode (clones are minted per swap for the scoring pool, and the
// serialization dominated swap-heavy allocation profiles).
func (d *Detector) Clone() (*Detector, error) {
	c := &Detector{
		opts:     d.opts,
		red:      d.red,
		std:      d.std,
		featMean: append([]float64(nil), d.featMean...),
		featStd:  append([]float64(nil), d.featStd...),
		pca:      d.pca,
		Stats:    d.Stats,
	}
	if d.centroids != nil {
		c.centroids = d.centroids.Clone()
	}
	dim := d.red.NumOutput()
	for i, cm := range d.library {
		model, err := newModel(d.opts, dim, i)
		if err != nil {
			return nil, err
		}
		dst, src := model.Params(), cm.model.Params()
		if len(dst) != len(src) {
			return nil, fmt.Errorf("core: clone model %d has %d params, architecture wants %d",
				i, len(src), len(dst))
		}
		for j := range src {
			if len(dst[j].W.Data) != len(src[j].W.Data) {
				return nil, fmt.Errorf("core: clone model %d param %d size mismatch", i, j)
			}
			copy(dst[j].W.Data, src[j].W.Data)
		}
		c.library = append(c.library, &clusterModel{
			model:   model,
			weights: append([]float64(nil), cm.weights...),
			radius:  cm.radius,
			scale:   cm.scale,
		})
	}
	return c, nil
}

// Load deserializes a detector saved with Save. Malformed input — garbage,
// truncation, a future format version, or a payload whose stored parameters
// do not fit the architecture its options describe — returns an error; it
// never panics, even on adversarial bytes (pinned by FuzzLoadDetector).
func Load(r io.Reader) (d *Detector, err error) {
	// gob decodes into package types whose invariants (matrix dims, slice
	// lengths) arbitrary bytes can violate; downstream rebuilding would
	// panic on them. The recover converts any such escapee into an error so
	// callers (the registry's quarantine path) can handle corrupt entries
	// uniformly.
	defer func() {
		if rec := recover(); rec != nil {
			d, err = nil, fmt.Errorf("core: malformed snapshot: %v", rec)
		}
	}()

	header := make([]byte, len(snapshotMagic)+1)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("core: read snapshot header: %w", err)
	}
	if string(header[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("core: not a detector snapshot (bad magic %q)", header[:len(snapshotMagic)])
	}
	if v := header[len(snapshotMagic)]; v != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d not supported (want %d)", v, snapshotVersion)
	}

	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if err := snap.validate(); err != nil {
		return nil, err
	}
	d = &Detector{
		opts:      snap.Opts,
		red:       snap.Reduction,
		std:       snap.Std,
		featMean:  snap.FeatMean,
		featStd:   snap.FeatStd,
		pca:       snap.PCA,
		centroids: snap.Centroids,
		Stats:     snap.Stats,
	}
	for i, ms := range snap.Models {
		model, err := newModel(snap.Opts, snap.InputDim, i)
		if err != nil {
			return nil, err
		}
		params := model.Params()
		if len(params) != len(ms.Params) {
			return nil, fmt.Errorf("core: snapshot model %d has %d params, architecture wants %d",
				i, len(ms.Params), len(params))
		}
		for j, p := range params {
			if len(p.W.Data) != len(ms.Params[j]) {
				return nil, fmt.Errorf("core: snapshot model %d param %d size mismatch", i, j)
			}
			copy(p.W.Data, ms.Params[j])
		}
		d.library = append(d.library, &clusterModel{
			model:   model,
			weights: ms.Weights,
			radius:  ms.Radius,
			scale:   ms.Scale,
		})
	}
	return d, nil
}

// validate bounds-checks the decoded wire struct before any architecture is
// rebuilt, so corrupt size fields fail with a clear error instead of an
// enormous allocation or an index panic deep in the model constructor. The
// caps are far above anything a real deployment produces.
func (s *snapshot) validate() error {
	const (
		maxModels   = 1 << 12
		maxInputDim = 1 << 16
		maxLayerDim = 1 << 14
		maxBlocks   = 1 << 8
	)
	if s.Reduction == nil {
		return fmt.Errorf("core: snapshot missing reduction plan")
	}
	if s.Std == nil {
		return fmt.Errorf("core: snapshot missing standardizer")
	}
	if s.InputDim <= 0 || s.InputDim > maxInputDim {
		return fmt.Errorf("core: snapshot input dim %d out of range", s.InputDim)
	}
	if len(s.Models) == 0 || len(s.Models) > maxModels {
		return fmt.Errorf("core: snapshot has %d models, want 1..%d", len(s.Models), maxModels)
	}
	if s.Centroids == nil || s.Centroids.Rows != len(s.Models) {
		rows := -1
		if s.Centroids != nil {
			rows = s.Centroids.Rows
		}
		return fmt.Errorf("core: snapshot has %d centroid rows for %d models", rows, len(s.Models))
	}
	if s.Centroids.Cols <= 0 || len(s.Centroids.Data) != s.Centroids.Rows*s.Centroids.Cols {
		return fmt.Errorf("core: snapshot centroid matrix is inconsistent")
	}
	m := s.Opts.Model
	if m.ModelDim <= 0 || m.ModelDim > maxLayerDim ||
		m.Hidden <= 0 || m.Hidden > maxLayerDim ||
		m.Heads <= 0 || m.Heads > maxLayerDim ||
		m.Blocks <= 0 || m.Blocks > maxBlocks ||
		m.Experts < 0 || m.Experts > maxLayerDim {
		return fmt.Errorf("core: snapshot model config out of range (dim=%d hidden=%d heads=%d blocks=%d experts=%d)",
			m.ModelDim, m.Hidden, m.Heads, m.Blocks, m.Experts)
	}
	if s.Opts.WindowLen <= 0 || s.Opts.WindowLen > maxInputDim {
		return fmt.Errorf("core: snapshot window length %d out of range", s.Opts.WindowLen)
	}
	for i, ms := range s.Models {
		if len(ms.Weights) != 0 && len(ms.Weights) != s.InputDim {
			return fmt.Errorf("core: snapshot model %d has %d loss weights for input dim %d",
				i, len(ms.Weights), s.InputDim)
		}
	}
	return nil
}
