package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of vals.
func sorted(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of vals by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := sorted(vals)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median is the 0.5-quantile.
func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (the exclusive method), which is
// the rule the benchmark's acceptance check applies to ten-run spreads.
// It needs at least two values.
func quartiles(vals []float64) (q1, q3 float64, err error) {
	n := len(vals)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles: need at least 2 values, have %d", n)
	}
	s := sorted(vals)
	at := func(i int) float64 { // cut point i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), nil
}

// spreadShare is the interquartile distance as a share of the median —
// the noise figure every end-to-end metric is held to.
func spreadShare(vals []float64) (float64, error) {
	q1, q3, err := quartiles(vals)
	if err != nil {
		return 0, err
	}
	m := median(vals)
	if m == 0 {
		return 0, fmt.Errorf("spread: median is 0")
	}
	return (q3 - q1) / math.Abs(m), nil
}

// tailPercentile returns the p-th percentile (p in (0,100)) of vals only
// when at least ten samples lie beyond it; a tail estimated from fewer is
// noise and is refused.
func tailPercentile(vals []float64, p float64) (float64, error) {
	beyond := float64(len(vals)) * (100 - p) / 100
	if beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %.1f samples beyond it, need 10", p, len(vals), beyond)
	}
	return quantile(vals, p/100), nil
}

// highestPercentile picks, from the candidate percentiles (ascending),
// the highest one the sample supports and returns it with its value.
func highestPercentile(vals []float64, candidates ...float64) (p, v float64, err error) {
	for i := len(candidates) - 1; i >= 0; i-- {
		if v, err = tailPercentile(vals, candidates[i]); err == nil {
			return candidates[i], v, nil
		}
	}
	return 0, 0, err
}
