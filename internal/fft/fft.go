// Package fft implements the forward discrete Fourier transform backing
// the spectral features of the feature extractor: an iterative radix-2
// Cooley-Tukey FFT with zero-padding for arbitrary lengths, a real-input
// helper, and power-spectrum utilities.
package fft

import "math"

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT computes the in-place-free forward DFT of x, whose length must be a
// power of two, returning a new slice. It uses the iterative bit-reversal
// Cooley-Tukey algorithm.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		//lint:ignore libpanic the power-of-two precondition is a caller bug; all callers pad via NextPow2
		panic("fft: length must be a power of two")
	}
	out := make([]complex128, n)
	// Bit-reversal permutation.
	shift := 64 - uintLog2(uint(n))
	for i := range x {
		out[reverseBits(uint(i))>>shift] = x[i]
	}
	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := -2 * math.Pi / float64(size)
		wBase := complex(math.Cos(step), math.Sin(step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
				w *= wBase
			}
		}
	}
	return out
}

// RealFFT zero-pads x to the next power of two and returns the forward DFT
// of the padded signal together with the padded length.
func RealFFT(x []float64) ([]complex128, int) {
	n := NextPow2(len(x))
	buf := make([]complex128, n)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	return FFT(buf), n
}

// PowerSpectrum returns the one-sided power spectrum of x: |X_k|² for
// k = 0..n/2, computed on the zero-padded signal. The second return value is
// the frequency resolution in cycles per sample.
func PowerSpectrum(x []float64) ([]float64, float64) {
	if len(x) == 0 {
		return nil, 0
	}
	spec, n := RealFFT(x)
	half := n/2 + 1
	out := make([]float64, half)
	for k := 0; k < half; k++ {
		re, im := real(spec[k]), imag(spec[k])
		out[k] = re*re + im*im
	}
	return out, 1 / float64(n)
}

// DFTNaive computes the forward DFT directly in O(n²); the tests use it as
// the oracle for FFT.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = s
	}
	return out
}

func uintLog2(n uint) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

func reverseBits(v uint) uint {
	v = v>>32 | v<<32
	v = v>>16&0x0000ffff0000ffff | v&0x0000ffff0000ffff<<16
	v = v>>8&0x00ff00ff00ff00ff | v&0x00ff00ff00ff00ff<<8
	v = v>>4&0x0f0f0f0f0f0f0f0f | v&0x0f0f0f0f0f0f0f0f<<4
	v = v>>2&0x3333333333333333 | v&0x3333333333333333<<2
	v = v>>1&0x5555555555555555 | v&0x5555555555555555<<1
	return v
}
