// Package stats provides the scalar statistics used throughout NodeSentry:
// moments, robust (trimmed) moments for standardization, quantiles, Pearson
// correlation for redundancy reduction, the Mean Absolute Change (MAC) used
// to weight the reconstruction loss, and assorted temporal descriptors that
// feed the feature extractor.
//
// All functions treat their input as immutable unless documented otherwise
// and ignore the possibility of NaNs except where stated: callers are
// expected to have run the cleaning stage first.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, 0 for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// MeanStd returns mean and population standard deviation in one pass pair.
func MeanStd(x []float64) (mean, std float64) {
	mean = Mean(x)
	if len(x) < 2 {
		return mean, 0
	}
	s := 0.0
	for _, v := range x {
		d := v - mean
		s += d * d
	}
	return mean, math.Sqrt(s / float64(len(x)))
}

// TrimmedMeanStd computes mean and standard deviation after discarding the
// lowest and highest trim fraction of samples (trim in [0, 0.5)). The paper
// uses trim = 0.05 when fitting the standardization parameters so that
// extreme outliers do not skew µ and σ. Returns (0, 0) for empty input.
func TrimmedMeanStd(x []float64, trim float64) (mean, std float64) {
	if len(x) == 0 {
		return 0, 0
	}
	if trim < 0 {
		trim = 0
	}
	if trim >= 0.5 {
		trim = 0.499
	}
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	k := int(trim * float64(len(sorted)))
	kept := sorted[k : len(sorted)-k]
	if len(kept) == 0 {
		kept = sorted
	}
	return MeanStd(kept)
}

// Quantile returns the q-quantile (q in [0,1]) of x using linear
// interpolation between order statistics. NaN for empty input.
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile for pre-sorted input, avoiding the copy.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Median returns the 0.5-quantile of x.
func Median(x []float64) float64 { return Quantile(x, 0.5) }

// Min returns the minimum of x, +Inf for empty input.
func Min(x []float64) float64 {
	m := math.Inf(1)
	for _, v := range x {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of x, -Inf for empty input.
func Max(x []float64) float64 {
	m := math.Inf(-1)
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

// Pearson returns the Pearson correlation coefficient between x and y
// (equation (1) of the paper). It returns 0 when either input is constant
// and panics if the lengths differ.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		//lint:ignore libpanic the documented contract panics on length mismatch, mirroring the mat vector kernels
		panic("stats: Pearson length mismatch")
	}
	if len(x) == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MAC returns the Mean Absolute Change of x (equation (6) of the paper):
// mean |x[t+1]-x[t]|. Zero for fewer than 2 samples. The paper derives the
// per-metric weights of the WMSE loss from the MAC of each cluster's
// training data.
func MAC(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	s := 0.0
	for t := 0; t+1 < len(x); t++ {
		s += math.Abs(x[t+1] - x[t])
	}
	return s / float64(len(x)-1)
}

// AbsEnergy returns sum of squares of x (TSFEL "absolute energy").
func AbsEnergy(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

// RMS returns the root mean square of x.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return math.Sqrt(AbsEnergy(x) / float64(len(x)))
}

// Skewness returns the sample skewness of x, 0 when std is 0.
func Skewness(x []float64) float64 {
	if len(x) < 3 {
		return 0
	}
	m, sd := MeanStd(x)
	if sd == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		d := (v - m) / sd
		s += d * d * d
	}
	return s / float64(len(x))
}

// Kurtosis returns the excess kurtosis of x, 0 when std is 0.
func Kurtosis(x []float64) float64 {
	if len(x) < 4 {
		return 0
	}
	m, sd := MeanStd(x)
	if sd == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		d := (v - m) / sd
		s += d * d * d * d
	}
	return s/float64(len(x)) - 3
}

// Autocorr returns the lag-k autocorrelation of x, 0 when undefined.
func Autocorr(x []float64, k int) float64 {
	n := len(x)
	if k <= 0 || k >= n {
		return 0
	}
	m := Mean(x)
	var num, den float64
	for t := 0; t < n; t++ {
		d := x[t] - m
		den += d * d
	}
	if den == 0 {
		return 0
	}
	for t := 0; t+k < n; t++ {
		num += (x[t] - m) * (x[t+k] - m)
	}
	return num / den
}

// ZeroCrossings counts sign changes of x around its mean.
func ZeroCrossings(x []float64) int {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	n := 0
	prev := x[0] >= m
	for _, v := range x[1:] {
		cur := v >= m
		if cur != prev {
			n++
		}
		prev = cur
	}
	return n
}

// SlopeIntercept fits y = a*t + b over t = 0..len(x)-1 by least squares and
// returns (a, b). Zero slope for fewer than 2 samples.
func SlopeIntercept(x []float64) (a, b float64) {
	n := float64(len(x))
	if len(x) < 2 {
		return 0, Mean(x)
	}
	// t-mean = (n-1)/2; Σ(t - tm)² = n(n²-1)/12.
	tm := (n - 1) / 2
	xm := Mean(x)
	den := n * (n*n - 1) / 12
	var num float64
	for t, v := range x {
		num += (float64(t) - tm) * (v - xm)
	}
	a = num / den
	b = xm - a*tm
	return a, b
}

// Entropy returns the Shannon entropy (nats) of a histogram of x with the
// given number of bins; 0 for constant or empty input.
func Entropy(x []float64, bins int) float64 {
	if len(x) == 0 || bins < 2 {
		return 0
	}
	lo, hi := Min(x), Max(x)
	if hi <= lo {
		return 0
	}
	counts := make([]int, bins)
	w := (hi - lo) / float64(bins)
	for _, v := range x {
		b := int((v - lo) / w)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	h := 0.0
	n := float64(len(x))
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log(p)
	}
	return h
}

// Histogram returns the counts of x over `bins` equal-width bins spanning
// [min, max]. A constant series lands entirely in bin 0.
func Histogram(x []float64, bins int) []int {
	counts := make([]int, bins)
	if len(x) == 0 || bins == 0 {
		return counts
	}
	lo, hi := Min(x), Max(x)
	if hi <= lo {
		counts[0] = len(x)
		return counts
	}
	w := (hi - lo) / float64(bins)
	for _, v := range x {
		b := int((v - lo) / w)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return counts
}
