package mat

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestKernelsParallelSerialEquivalence pins down two properties of every
// fan-out kernel on shapes above parallelThreshold:
//
//  1. determinism — two parallel runs on the same inputs are bit-identical
//     (TMul's chunk-ordered merge is what makes this hold);
//  2. equivalence — the parallel result matches a GOMAXPROCS=1 run. Mul and
//     MulT compute rows independently, so they must match exactly; TMul
//     reassociates the row-sum across chunks, so it gets a small tolerance.
func TestKernelsParallelSerialEquivalence(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 CPUs to exercise the parallel path")
	}
	rng := rand.New(rand.NewSource(21))
	a := randMatrix(rng, 96, 64)
	b := randMatrix(rng, 64, 96)
	bt := randMatrix(rng, 80, 64)
	c := randMatrix(rng, 96, 48)

	serially := func(f func() *Matrix) *Matrix {
		old := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(old)
		return f()
	}
	cases := []struct {
		name string
		f    func() *Matrix
		tol  float64
	}{
		{"MulInto", func() *Matrix { return product(a, b) }, 0},
		{"MulTInto", func() *Matrix { out := New(a.Rows, bt.Rows); MulTInto(out, a, bt); return out }, 0},
		{"TMulInto", func() *Matrix { return tproduct(a, c) }, 1e-12},
	}
	for _, tc := range cases {
		p1 := tc.f()
		p2 := tc.f()
		for i := range p1.Data {
			if p1.Data[i] != p2.Data[i] {
				t.Fatalf("%s: parallel runs disagree at %d: %v vs %v", tc.name, i, p1.Data[i], p2.Data[i])
			}
		}
		ser := serially(tc.f)
		for i := range p1.Data {
			if d := math.Abs(p1.Data[i] - ser.Data[i]); d > tc.tol {
				t.Fatalf("%s: parallel vs serial diverge at %d by %v (tol %v)", tc.name, i, d, tc.tol)
			}
		}
	}
}

func TestChunksPartition(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1001} {
		ck := chunks(n)
		covered := 0
		prev := 0
		for _, c := range ck {
			if c[0] != prev || c[1] <= c[0] {
				t.Fatalf("chunks(%d): bad range %v after %d", n, c, prev)
			}
			covered += c[1] - c[0]
			prev = c[1]
		}
		if covered != n || (n > 0 && prev != n) {
			t.Fatalf("chunks(%d) covers %d ending at %d", n, covered, prev)
		}
	}
}
