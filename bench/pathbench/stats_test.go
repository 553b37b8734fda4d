package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileAndMedian(t *testing.T) {
	odd := []float64{5, 1, 3}
	if m := median(odd); !near(m, 3) {
		t.Errorf("median(5,1,3) = %v", m)
	}
	even := []float64{4, 1, 3, 2}
	if m := median(even); !near(m, 2.5) {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
	if q := quantile(even, 0); !near(q, 1) {
		t.Errorf("min = %v", q)
	}
	if q := quantile(even, 1); !near(q, 4) {
		t.Errorf("max = %v", q)
	}
	if q := quantile([]float64{0, 10}, 0.25); !near(q, 2.5) {
		t.Errorf("quantile(0..10, .25) = %v", q)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if even[0] != 4 {
		t.Error("quantile sorted its argument in place")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4):
// the values below are that function's output.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7, 1, 9, 4, 8, 2, 6, 5}, 2.75, 8.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
		{[]float64{1, 100}, -23.75, 124.75},
		{[]float64{3.2, 3.1, 3.4, 3.3, 9.9}, 3.15, 6.65},
	}
	for _, c := range cases {
		q1, q3, err := quartiles(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value did not fail")
	}
	s, err := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || !near(s, 1) {
		t.Errorf("spreadShare(1..10) = %v, %v; want (8.25-2.75)/5.5", s, err)
	}
}

// TestTailPercentileRefusesThinTails: a percentile is reported only with
// ten samples beyond it.
func TestTailPercentileRefusesThinTails(t *testing.T) {
	vals := make([]float64, 999)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, err := tailPercentile(vals, 99); err == nil {
		t.Error("p99 of 999 samples (9.99 beyond) was not refused")
	}
	vals = append(vals, 999)
	v, err := tailPercentile(vals, 99)
	if err != nil || !near(v, 989.01) {
		t.Errorf("p99 of 0..999 = %v, %v", v, err)
	}
	if _, err := tailPercentile(vals, 99.9); err == nil {
		t.Error("p99.9 of 1000 samples was not refused")
	}
	p, _, err := highestPercentile(vals, 50, 90, 99, 99.9)
	if err != nil || p != 99 {
		t.Errorf("highest supported percentile of 1000 samples = p%v, %v", p, err)
	}
	if _, _, err := highestPercentile(vals[:15], 90, 99); err == nil {
		t.Error("15 samples supported a tail percentile")
	}
}

func TestParseVmRSS(t *testing.T) {
	status := []byte("Name:\tpathbench\nVmPeak:\t  999999 kB\nVmRSS:\t   54321 kB\nRssAnon:\t 1 kB\n")
	if kb := parseVmRSS(status); kb != 54321 {
		t.Errorf("VmRSS = %d", kb)
	}
	if kb := parseVmRSS([]byte("Name:\tx\n")); kb != 0 {
		t.Errorf("missing VmRSS = %d", kb)
	}
}

func TestSpecMetricWorse(t *testing.T) {
	lower := specMetric{Better: "lower"}
	higher := specMetric{Better: "higher"}
	if d := lower.worse(100, 110); !near(d, 0.1) {
		t.Errorf("lower-is-better 100→110: %v", d)
	}
	if d := higher.worse(100, 110); !near(d, -0.1) {
		t.Errorf("higher-is-better 100→110: %v", d)
	}
	if d := higher.worse(100, 80); !near(d, 0.2) {
		t.Errorf("higher-is-better 100→80: %v", d)
	}
}
