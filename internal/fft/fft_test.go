package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for n, want := range cases {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got := FFT(x)
		want := DFTNaive(x)
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-8*float64(n) {
				t.Fatalf("n=%d k=%d: FFT=%v DFT=%v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FFT should panic for non-power-of-two length")
		}
	}()
	FFT(make([]complex128, 6))
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		a := complex(rng.NormFloat64(), 0)
		x := make([]complex128, n)
		y := make([]complex128, n)
		z := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			z[i] = a*x[i] + y[i]
		}
		fx, fy, fz := FFT(x), FFT(y), FFT(z)
		for k := range fz {
			if cmplx.Abs(fz[k]-(a*fx[k]+fy[k])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Σ|x|² == (1/n) Σ|X|²
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 128
		x := make([]complex128, n)
		var tsum float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			tsum += real(x[i]) * real(x[i])
		}
		var fsum float64
		for _, v := range FFT(x) {
			fsum += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(tsum-fsum/float64(n)) < 1e-7*tsum+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerSpectrumPeak(t *testing.T) {
	// A sine at bin 8 of a 64-sample window should dominate the spectrum.
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 8 * float64(i) / float64(n))
	}
	spec, res := PowerSpectrum(x)
	if res != 1.0/64 {
		t.Errorf("resolution = %v, want 1/64", res)
	}
	peak := 0
	for k := range spec {
		if spec[k] > spec[peak] {
			peak = k
		}
	}
	if peak != 8 {
		t.Errorf("spectral peak at bin %d, want 8", peak)
	}
}

func TestPowerSpectrumEmpty(t *testing.T) {
	spec, res := PowerSpectrum(nil)
	if spec != nil || res != 0 {
		t.Error("empty input should give nil spectrum")
	}
}

func TestRealFFTPads(t *testing.T) {
	spec, n := RealFFT(make([]float64, 100))
	if n != 128 || len(spec) != 128 {
		t.Errorf("RealFFT padded to %d, want 128", n)
	}
}

func TestFFTDCComponent(t *testing.T) {
	x := []float64{1, 1, 1, 1}
	spec, _ := RealFFT(x)
	if cmplx.Abs(spec[0]-4) > 1e-12 {
		t.Errorf("DC bin = %v, want 4", spec[0])
	}
	for k := 1; k < 4; k++ {
		if cmplx.Abs(spec[k]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", k, spec[k])
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}
