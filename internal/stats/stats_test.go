package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, s := MeanStd(x)
	if !almostEqual(m, 5, 1e-12) {
		t.Errorf("mean = %v, want 5", m)
	}
	if !almostEqual(s, 2, 1e-12) {
		t.Errorf("std = %v, want 2", s)
	}
}

func TestMeanEmpty(t *testing.T) {
	if m, s := MeanStd(nil); Mean(nil) != 0 || m != 0 || s != 0 {
		t.Error("empty-input moments should be 0")
	}
}

func TestTrimmedMeanStdIgnoresOutliers(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 10
	}
	x[0] = -1e9
	x[99] = 1e9
	m, s := TrimmedMeanStd(x, 0.05)
	if !almostEqual(m, 10, 1e-9) || !almostEqual(s, 0, 1e-9) {
		t.Errorf("trimmed mean/std = %v/%v, want 10/0", m, s)
	}
}

func TestTrimmedMeanStdDegenerate(t *testing.T) {
	m, s := TrimmedMeanStd(nil, 0.05)
	if m != 0 || s != 0 {
		t.Error("empty input should give 0,0")
	}
	m, _ = TrimmedMeanStd([]float64{3}, 0.9) // trim clamped below 0.5
	if m != 3 {
		t.Errorf("single-element trimmed mean = %v, want 3", m)
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(x, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty input should be NaN")
	}
}

func TestMedianInterpolates(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 10}); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Median = %v, want 2.5", got)
	}
}

func TestPearsonKnown(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", got)
	}
	if got := Pearson(x, []float64{7, 7, 7, 7, 7}); got != 0 {
		t.Errorf("Pearson with constant = %v, want 0", got)
	}
}

func TestPearsonProperties(t *testing.T) {
	// Symmetry, bounds, scale invariance.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r := Pearson(x, y)
		if r < -1-1e-9 || r > 1+1e-9 {
			return false
		}
		if !almostEqual(r, Pearson(y, x), 1e-12) {
			return false
		}
		scaled := make([]float64, n)
		for i := range x {
			scaled[i] = 3*x[i] + 7
		}
		return almostEqual(r, Pearson(scaled, y), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMAC(t *testing.T) {
	if got := MAC([]float64{1, 3, 2, 2}); !almostEqual(got, (2+1+0)/3.0, 1e-12) {
		t.Errorf("MAC = %v, want 1", got)
	}
	if MAC([]float64{5}) != 0 {
		t.Error("MAC of single point should be 0")
	}
}

func TestMACNonNegativeProperty(t *testing.T) {
	f := func(x []float64) bool {
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		return MAC(x) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlopeIntercept(t *testing.T) {
	// y = 2t + 1
	x := []float64{1, 3, 5, 7, 9}
	a, b := SlopeIntercept(x)
	if !almostEqual(a, 2, 1e-12) || !almostEqual(b, 1, 1e-12) {
		t.Errorf("SlopeIntercept = %v, %v, want 2, 1", a, b)
	}
}

func TestAutocorrPeriodic(t *testing.T) {
	n := 200
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 20)
	}
	if r := Autocorr(x, 20); r < 0.9 {
		t.Errorf("Autocorr at period = %v, want >0.9", r)
	}
	if r := Autocorr(x, 10); r > -0.9 {
		t.Errorf("Autocorr at half period = %v, want < -0.9", r)
	}
	if Autocorr(x, 0) != 0 || Autocorr(x, n) != 0 {
		t.Error("out-of-range lags should give 0")
	}
}

func TestZeroCrossings(t *testing.T) {
	if got := ZeroCrossings([]float64{1, -1, 1, -1}); got != 3 {
		t.Errorf("ZeroCrossings = %d, want 3", got)
	}
	if got := ZeroCrossings([]float64{5, 5, 5}); got != 0 {
		t.Errorf("ZeroCrossings constant = %d, want 0", got)
	}
}

func TestSkewKurtosis(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 20000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if s := Skewness(x); math.Abs(s) > 0.1 {
		t.Errorf("Gaussian skewness = %v, want ~0", s)
	}
	if k := Kurtosis(x); math.Abs(k) > 0.2 {
		t.Errorf("Gaussian excess kurtosis = %v, want ~0", k)
	}
	if Skewness([]float64{1, 1, 1}) != 0 || Kurtosis([]float64{1, 1, 1, 1}) != 0 {
		t.Error("constant input should give 0 skew/kurtosis")
	}
}

func TestEntropy(t *testing.T) {
	uniform := make([]float64, 1000)
	for i := range uniform {
		uniform[i] = float64(i)
	}
	hu := Entropy(uniform, 10)
	if !almostEqual(hu, math.Log(10), 0.05) {
		t.Errorf("uniform entropy = %v, want ~%v", hu, math.Log(10))
	}
	if Entropy([]float64{3, 3, 3}, 10) != 0 {
		t.Error("constant entropy should be 0")
	}
	peaked := make([]float64, 1000)
	peaked[0] = 1 // all others 0
	if hp := Entropy(peaked, 10); hp >= hu {
		t.Errorf("peaked entropy %v should be below uniform %v", hp, hu)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0, 1, 2, 3}, 4)
	for i, c := range h {
		if c != 1 {
			t.Fatalf("Histogram bin %d = %d, want 1 (%v)", i, c, h)
		}
	}
	h = Histogram([]float64{5, 5}, 3)
	if h[0] != 2 {
		t.Errorf("constant histogram = %v, want all mass in bin 0", h)
	}
}

func TestMinMaxRMSAbsEnergy(t *testing.T) {
	x := []float64{-3, 4}
	if Min(x) != -3 || Max(x) != 4 {
		t.Error("Min/Max wrong")
	}
	if !almostEqual(AbsEnergy(x), 25, 1e-12) {
		t.Error("AbsEnergy wrong")
	}
	if !almostEqual(RMS(x), math.Sqrt(12.5), 1e-12) {
		t.Error("RMS wrong")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(x, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
