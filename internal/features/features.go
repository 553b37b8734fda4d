// Package features implements the TSFEL-style feature extractor that turns
// variable-length MTS segments into fixed-width vectors for coarse-grained
// clustering (§3.3 of the paper).
//
// For each metric channel the extractor computes a battery of interpretable
// statistical, temporal and spectral descriptors (the paper uses TSFEL's 134
// indices; this package implements 62 covering the same three domains — the
// exact list is not load-bearing, the fixed-width property and domain
// coverage are). A segment's vector is the concatenation of its channels'
// descriptors, so segments of any length map to the same dimensionality and
// become clusterable with plain Euclidean distance.
package features

import (
	"math"
	"sort"

	"nodesentry/internal/fft"
	"nodesentry/internal/mat"
	"nodesentry/internal/mts"
	"nodesentry/internal/stats"
)

// Domain labels the family a feature belongs to.
type Domain string

// Feature domains, mirroring TSFEL's organization.
const (
	Statistical Domain = "statistical"
	Temporal    Domain = "temporal"
	Spectral    Domain = "spectral"
)

// Descriptor names one scalar feature of a single channel.
type Descriptor struct {
	Name   string
	Domain Domain
}

// histBins is the number of relative-frequency histogram features.
const histBins = 10

// specBands is the number of spectral band-energy features.
const specBands = 4

// Catalog returns the ordered list of per-channel descriptors computed by
// Extract. The order is stable and defines the layout of feature vectors.
func Catalog() []Descriptor {
	d := []Descriptor{
		// Statistical.
		{"mean", Statistical},
		{"median", Statistical},
		{"std", Statistical},
		{"variance", Statistical},
		{"min", Statistical},
		{"max", Statistical},
		{"range", Statistical},
		{"rms", Statistical},
		{"abs_energy", Statistical},
		{"skewness", Statistical},
		{"kurtosis", Statistical},
		{"q05", Statistical},
		{"q25", Statistical},
		{"q75", Statistical},
		{"q95", Statistical},
		{"iqr", Statistical},
		{"median_abs_dev", Statistical},
		{"mean_abs_dev", Statistical},
		{"entropy", Statistical},
	}
	for i := 0; i < histBins; i++ {
		d = append(d, Descriptor{histName(i), Statistical})
	}
	d = append(d,
		// Temporal.
		Descriptor{"mac", Temporal},
		Descriptor{"mean_diff", Temporal},
		Descriptor{"median_diff", Temporal},
		Descriptor{"sum_abs_diff", Temporal},
		Descriptor{"slope", Temporal},
		Descriptor{"intercept", Temporal},
		Descriptor{"zero_cross_rate", Temporal},
		Descriptor{"autocorr_1", Temporal},
		Descriptor{"autocorr_2", Temporal},
		Descriptor{"autocorr_5", Temporal},
		Descriptor{"autocorr_10", Temporal},
		Descriptor{"peak_to_peak", Temporal},
		Descriptor{"count_above_mean", Temporal},
		Descriptor{"first_loc_max", Temporal},
		Descriptor{"first_loc_min", Temporal},
		Descriptor{"pos_turning_rate", Temporal},
		Descriptor{"neg_turning_rate", Temporal},
		Descriptor{"signal_distance", Temporal},
		Descriptor{"area_under_curve", Temporal},
		Descriptor{"time_centroid", Temporal},
		// Spectral.
		Descriptor{"max_power", Spectral},
		Descriptor{"max_power_freq", Spectral},
		Descriptor{"spectral_centroid", Spectral},
		Descriptor{"spectral_spread", Spectral},
		Descriptor{"spectral_skewness", Spectral},
		Descriptor{"spectral_kurtosis", Spectral},
		Descriptor{"spectral_rolloff85", Spectral},
		Descriptor{"spectral_entropy", Spectral},
		Descriptor{"median_frequency", Spectral},
		Descriptor{"total_power", Spectral},
		Descriptor{"spectral_slope", Spectral},
		Descriptor{"power_ratio_low", Spectral},
		Descriptor{"spectral_variation", Spectral},
	)
	for i := 0; i < specBands; i++ {
		d = append(d, Descriptor{bandName(i), Spectral})
	}
	return d
}

func histName(i int) string { return "hist_bin_" + string(rune('0'+i)) }
func bandName(i int) string { return "band_energy_" + string(rune('0'+i)) }

// NumFeatures is the number of scalar features Extract produces per channel.
var NumFeatures = len(Catalog())

// Extract computes the per-channel feature vector of x in the Catalog order.
// It is total: any input, including empty and constant series, yields a
// finite vector (degenerate statistics are defined as 0).
func Extract(x []float64) []float64 {
	out := make([]float64, 0, NumFeatures)
	n := len(x)

	// --- Statistical ---
	mean, std := stats.MeanStd(x)
	// One sorted copy serves the median and every quantile; per-quantile
	// Quantile calls each re-copy and re-sort the channel.
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	med := finite(stats.QuantileSorted(sorted, 0.5))
	mn, mx := stats.Min(x), stats.Max(x)
	if n == 0 {
		mn, mx = 0, 0
	}
	q25 := finite(stats.QuantileSorted(sorted, 0.25))
	q75 := finite(stats.QuantileSorted(sorted, 0.75))
	out = append(out,
		mean, med, std, std*std, mn, mx, mx-mn,
		stats.RMS(x), stats.AbsEnergy(x),
		stats.Skewness(x), stats.Kurtosis(x),
		finite(stats.QuantileSorted(sorted, 0.05)),
		q25,
		q75,
		finite(stats.QuantileSorted(sorted, 0.95)),
		q75-q25,
		medianAbsDev(x, med),
		meanAbsDev(x, mean),
		stats.Entropy(x, histBins),
	)
	hist := stats.Histogram(x, histBins)
	for _, c := range hist {
		if n == 0 {
			out = append(out, 0)
		} else {
			out = append(out, float64(c)/float64(n))
		}
	}

	// --- Temporal ---
	diffs := diff(x)
	slope, intercept := stats.SlopeIntercept(x)
	out = append(out,
		stats.MAC(x),
		stats.Mean(diffs),
		finite(stats.Median(diffs)),
		sumAbs(diffs),
		slope, intercept,
		rate(stats.ZeroCrossings(x), n),
		stats.Autocorr(x, 1),
		stats.Autocorr(x, 2),
		stats.Autocorr(x, 5),
		stats.Autocorr(x, 10),
		mx-mn,
		countAboveRate(x, mean),
		argLoc(x, true),
		argLoc(x, false),
		turningRate(x, true),
		turningRate(x, false),
		signalDistance(x),
		trapezoidArea(x),
		timeCentroid(x),
	)

	// --- Spectral ---
	out = append(out, spectralFeatures(x)...)

	return out
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func diff(x []float64) []float64 {
	if len(x) < 2 {
		return nil
	}
	d := make([]float64, len(x)-1)
	for i := range d {
		d[i] = x[i+1] - x[i]
	}
	return d
}

func sumAbs(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

func rate(count, n int) float64 {
	if n < 2 {
		return 0
	}
	return float64(count) / float64(n-1)
}

func countAboveRate(x []float64, mean float64) float64 {
	if len(x) == 0 {
		return 0
	}
	c := 0
	for _, v := range x {
		if v > mean {
			c++
		}
	}
	return float64(c) / float64(len(x))
}

// argLoc returns the relative position of the first maximum (max=true)
// or first minimum (max=false) of x.
func argLoc(x []float64, max bool) float64 {
	if len(x) == 0 {
		return 0
	}
	best := 0
	for i, v := range x {
		if (max && v > x[best]) || (!max && v < x[best]) {
			best = i
		}
	}
	return float64(best) / float64(len(x))
}

// turningRate counts local maxima (pos=true) or minima (pos=false) per sample.
func turningRate(x []float64, pos bool) float64 {
	if len(x) < 3 {
		return 0
	}
	c := 0
	for i := 1; i+1 < len(x); i++ {
		if pos && x[i] > x[i-1] && x[i] > x[i+1] {
			c++
		}
		if !pos && x[i] < x[i-1] && x[i] < x[i+1] {
			c++
		}
	}
	return float64(c) / float64(len(x)-2)
}

// signalDistance is the length of the polyline traced by the signal.
func signalDistance(x []float64) float64 {
	s := 0.0
	for i := 0; i+1 < len(x); i++ {
		d := x[i+1] - x[i]
		s += math.Sqrt(1 + d*d)
	}
	return s
}

func trapezoidArea(x []float64) float64 {
	s := 0.0
	for i := 0; i+1 < len(x); i++ {
		s += (x[i] + x[i+1]) / 2
	}
	return s
}

// timeCentroid is the energy-weighted mean sample index, normalized to [0,1].
func timeCentroid(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	var num, den float64
	for i, v := range x {
		e := v * v
		num += float64(i) * e
		den += e
	}
	if den == 0 {
		return 0
	}
	return num / den / float64(len(x)-1)
}

// spectralFeatures computes the spectral block of the catalog from the
// one-sided power spectrum (DC bin excluded from moments so that a large
// constant offset does not drown the shape information).
func spectralFeatures(x []float64) []float64 {
	out := make([]float64, 0, 13+specBands)
	if len(x) < 4 {
		return make([]float64, 13+specBands)
	}
	spec, res := fft.PowerSpectrum(x)
	p := spec[1:] // drop DC
	freqs := make([]float64, len(p))
	for k := range p {
		freqs[k] = float64(k+1) * res
	}
	total := 0.0
	for _, v := range p {
		total += v
	}
	maxP, maxK := 0.0, 0
	for k, v := range p {
		if v > maxP {
			maxP, maxK = v, k
		}
	}
	centroid, spread, sskew, skurt := spectralMoments(freqs, p, total)
	out = append(out,
		maxP,
		freqs[maxK],
		centroid,
		spread,
		sskew,
		skurt,
		rolloff(freqs, p, total, 0.85),
		spectralEntropy(p, total),
		rolloff(freqs, p, total, 0.50), // median frequency
		total,
		spectralSlope(freqs, p),
		powerRatioLow(p, total),
		spectralVariation(p),
	)
	// Band energies over 4 equal-width frequency bands (fraction of total).
	nb := len(p) / specBands
	for b := 0; b < specBands; b++ {
		lo := b * nb
		hi := lo + nb
		if b == specBands-1 {
			hi = len(p)
		}
		e := 0.0
		for k := lo; k < hi; k++ {
			e += p[k]
		}
		if total > 0 {
			e /= total
		}
		out = append(out, e)
	}
	return out
}

func spectralMoments(freqs, p []float64, total float64) (centroid, spread, skew, kurt float64) {
	if total == 0 {
		return 0, 0, 0, 0
	}
	for k, v := range p {
		centroid += freqs[k] * v
	}
	centroid /= total
	for k, v := range p {
		d := freqs[k] - centroid
		spread += d * d * v
	}
	spread = math.Sqrt(spread / total)
	if spread == 0 {
		return centroid, 0, 0, 0
	}
	for k, v := range p {
		d := (freqs[k] - centroid) / spread
		skew += d * d * d * v
		kurt += d * d * d * d * v
	}
	skew /= total
	kurt = kurt/total - 3
	return centroid, spread, skew, kurt
}

// rolloff returns the frequency below which `frac` of the spectral energy
// lies.
func rolloff(freqs, p []float64, total, frac float64) float64 {
	if total == 0 {
		return 0
	}
	cum := 0.0
	for k, v := range p {
		cum += v
		if cum >= frac*total {
			return freqs[k]
		}
	}
	return freqs[len(freqs)-1]
}

func spectralEntropy(p []float64, total float64) float64 {
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, v := range p {
		if v <= 0 {
			continue
		}
		q := v / total
		h -= q * math.Log(q)
	}
	return h
}

// spectralSlope is the least-squares slope of power vs frequency.
func spectralSlope(freqs, p []float64) float64 {
	n := float64(len(p))
	if len(p) < 2 {
		return 0
	}
	fm, pm := stats.Mean(freqs), stats.Mean(p)
	var num, den float64
	for k := range p {
		df := freqs[k] - fm
		num += df * (p[k] - pm)
		den += df * df
	}
	if den == 0 {
		return 0
	}
	_ = n
	return num / den
}

// powerRatioLow is the fraction of energy in the lowest quarter of bins.
func powerRatioLow(p []float64, total float64) float64 {
	if total == 0 {
		return 0
	}
	q := len(p) / 4
	if q == 0 {
		q = 1
	}
	e := 0.0
	for k := 0; k < q && k < len(p); k++ {
		e += p[k]
	}
	return e / total
}

// spectralVariation is the normalized mean absolute difference between
// adjacent spectral bins — a flatness-of-change proxy.
func spectralVariation(p []float64) float64 {
	if len(p) < 2 {
		return 0
	}
	var s, tot float64
	for k := 0; k+1 < len(p); k++ {
		s += math.Abs(p[k+1] - p[k])
		tot += p[k]
	}
	tot += p[len(p)-1]
	if tot == 0 {
		return 0
	}
	return s / tot
}

func medianAbsDev(x []float64, med float64) float64 {
	if len(x) == 0 {
		return 0
	}
	dev := make([]float64, len(x))
	for i, v := range x {
		dev[i] = math.Abs(v - med)
	}
	// dev is local, so sort it in place instead of letting Median copy it.
	sort.Float64s(dev)
	return finite(stats.QuantileSorted(dev, 0.5))
}

func meanAbsDev(x []float64, mean float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += math.Abs(v - mean)
	}
	return s / float64(len(x))
}

// SegmentVector extracts the fixed-width vector of one segment: the
// concatenation of Extract over every metric channel of the segment's slice
// of the frame. Its length is frame.NumMetrics() * NumFeatures.
func SegmentVector(frame *mts.NodeFrame, seg mts.Segment) []float64 {
	out := make([]float64, 0, frame.NumMetrics()*NumFeatures)
	for m := range frame.Data {
		out = append(out, Extract(frame.Data[m][seg.Lo:seg.Hi])...)
	}
	return out
}

// Matrix extracts feature vectors for all segments in parallel. frames maps
// node name to its (preprocessed) frame; segments reference those frames.
// Row i of the result is the vector of segments[i].
func Matrix(frames map[string]*mts.NodeFrame, segments []mts.Segment) *mat.Matrix {
	if len(segments) == 0 {
		return mat.New(0, 0)
	}
	width := frames[segments[0].Node].NumMetrics() * NumFeatures
	out := mat.New(len(segments), width)
	mat.ParallelItems(len(segments), func(i int) {
		seg := segments[i]
		copy(out.Row(i), SegmentVector(frames[seg.Node], seg))
	})
	return out
}

// NormalizeColumns z-scores every column of m in place (columns with zero
// variance are set to 0) so that features on different scales contribute
// comparably to Euclidean distances. It returns the per-column means and
// stds used, for applying the same transform to online feature vectors.
func NormalizeColumns(m *mat.Matrix) (means, stds []float64) {
	means = make([]float64, m.Cols)
	stds = make([]float64, m.Cols)
	if m.Rows == 0 {
		return means, stds
	}
	col := make([]float64, m.Rows)
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			col[i] = m.At(i, j)
		}
		mu, sd := stats.MeanStd(col)
		// Columns that are constant up to floating-point noise carry no
		// information; treat them as zero-variance rather than amplifying
		// rounding error into huge z-scores.
		if sd <= 1e-10*(1+math.Abs(mu)) {
			sd = 0
		}
		means[j], stds[j] = mu, sd
		for i := 0; i < m.Rows; i++ {
			if sd == 0 {
				m.Set(i, j, 0)
			} else {
				m.Set(i, j, (m.At(i, j)-mu)/sd)
			}
		}
	}
	return means, stds
}

// ApplyNormalization applies the column transform captured by
// NormalizeColumns to a single vector in place.
func ApplyNormalization(v, means, stds []float64) {
	for j := range v {
		if j >= len(means) {
			return
		}
		if stds[j] == 0 {
			v[j] = 0
		} else {
			v[j] = (v[j] - means[j]) / stds[j]
		}
	}
}
