package mat

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// mulNaive is the reference ijk triple loop.
func mulNaive(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// product and tproduct run the Into kernels under test into a fresh
// destination.
func product(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MulInto(out, a, b)
	return out
}

func tproduct(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	TMulInto(out, a, b)
	return out
}

func matricesEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 23}, {64, 64, 64}, {100, 3, 77}} {
		a := randMatrix(rng, dims[0], dims[1])
		b := randMatrix(rng, dims[1], dims[2])
		if !matricesEqual(product(a, b), mulNaive(a, b), 1e-9) {
			t.Errorf("MulInto mismatch for %v", dims)
		}
	}
}

func TestMulParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMatrix(rng, 80, 90)
	b := randMatrix(rng, 90, 70) // 80*90*70 > parallelThreshold
	if !matricesEqual(product(a, b), mulNaive(a, b), 1e-9) {
		t.Error("parallel MulInto mismatch")
	}
}

func TestMulTAndTMul(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randMatrix(rng, 13, 7)
	b := randMatrix(rng, 11, 7)
	ab := New(13, 11)
	MulTInto(ab, a, b)
	if !matricesEqual(ab, product(a, b.T()), 1e-9) {
		t.Error("MulTInto mismatch")
	}
	c := randMatrix(rng, 13, 5)
	if !matricesEqual(tproduct(a, c), product(a.T(), c), 1e-9) {
		t.Error("TMulInto mismatch")
	}
}

func TestTMulParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randMatrix(rng, 120, 60)
	b := randMatrix(rng, 120, 40)
	if !matricesEqual(tproduct(a, b), product(a.T(), b), 1e-8) {
		t.Error("parallel TMulInto mismatch")
	}
}

func TestMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MulInto should panic on dimension mismatch")
		}
	}()
	MulInto(New(2, 5), New(2, 3), New(4, 5))
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, 1+rng.Intn(10), 1+rng.Intn(10))
		return matricesEqual(m.T().T(), m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSubHadamard(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	sum := FromRows([][]float64{{11, 22}, {33, 44}})
	dst := New(2, 2)
	AddTo(dst, a, b)
	if !matricesEqual(dst, sum, 0) {
		t.Error("AddTo wrong")
	}
	c := a.Clone()
	AddInPlace(c, b)
	if !matricesEqual(c, sum, 0) {
		t.Error("AddInPlace wrong")
	}
}

func TestScaleAddRowVector(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	Scale(m, 2)
	if !matricesEqual(m, FromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Error("Scale wrong")
	}
	AddRowVector(m, []float64{1, -1})
	if !matricesEqual(m, FromRows([][]float64{{3, 3}, {7, 7}}), 0) {
		t.Error("AddRowVector wrong")
	}
}

func TestFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromRows should panic on ragged input")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestVectorOps(t *testing.T) {
	x := []float64{3, 4}
	y := []float64{1, 2}
	if Dot(x, y) != 11 {
		t.Error("Dot wrong")
	}
	if Norm2(x) != 5 {
		t.Error("Norm2 wrong")
	}
	if EuclideanDist(x, y) != math.Sqrt(8) {
		t.Error("EuclideanDist wrong")
	}
	if SquaredDist(x, y) != 8 {
		t.Error("SquaredDist wrong")
	}
	z := []float64{1, 1}
	Axpy(2, x, z)
	if z[0] != 7 || z[1] != 9 {
		t.Error("Axpy wrong")
	}
}

// Dot and Axpy are unrolled by four; every length around the unroll width
// must give exactly what the one-element loops give, head, body and tail
// alike — for Dot that includes the order of the additions.
func TestUnrolledVectorKernelsMatchElementwiseLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 13; n++ {
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		a := rng.NormFloat64()
		dot, axpy := 0.0, append([]float64(nil), y...)
		for i, v := range x {
			dot += v * y[i]
			axpy[i] += a * v
		}
		if got := Dot(x, y); math.Float64bits(got) != math.Float64bits(dot) {
			t.Fatalf("n=%d: Dot = %v, elementwise loop gives %v", n, got, dot)
		}
		Axpy(a, x, y)
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(axpy[i]) {
				t.Fatalf("n=%d: Axpy y[%d] = %v, elementwise loop gives %v", n, i, y[i], axpy[i])
			}
		}
	}
}

func TestParallelCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		seen := make([]int32, n)
		Parallel(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestParallelItems(t *testing.T) {
	var sum int64
	ParallelItems(100, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 4950 {
		t.Errorf("ParallelItems sum = %d, want 4950", sum)
	}
}

func TestCloneAndZero(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] == 9 {
		t.Error("Clone shares backing data")
	}
	a.Zero()
	if a.Data[0] != 0 || a.Data[1] != 0 {
		t.Error("Zero did not clear")
	}
}

func BenchmarkMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randMatrix(rng, 128, 128)
	y := randMatrix(rng, 128, 128)
	out := New(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulInto(out, x, y)
	}
}

func BenchmarkMulNaive128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randMatrix(rng, 128, 128)
	y := randMatrix(rng, 128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mulNaive(x, y)
	}
}
