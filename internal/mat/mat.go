// Package mat provides the dense float64 linear-algebra kernels that back
// NodeSentry's neural substrate, plus the worker-pool helper used across the
// repository to parallelize embarrassingly parallel loops.
//
// Matrices are row-major with a contiguous backing slice so that matmul
// kernels stream memory predictably. Every kernel runs on the calling
// goroutine and starts none of its own, so its result never depends on the
// core count. Parallelism lives one level up: offline loops hand
// independent clusters, nodes and segments to Parallel or ParallelItems,
// and the runtime scores each lane's windows on that lane's goroutine.
package mat

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Matrix is a dense row-major matrix: element (i, j) is Data[i*Cols+j].
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows×cols matrix. Hot paths obtain reusable
// matrices from an Arena and call the *Into kernels instead; New is the
// cold-path constructor and is never reachable from a //perf:hot kernel.
func New(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, copying the data. All rows must
// have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			failShape("ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols)
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// failShape reports a dimension mismatch. These kernels treat shape errors
// as caller bugs and deliberately share the panic contract of slice
// indexing rather than threading error returns through every hot loop.
func failShape(format string, args ...any) {
	//lint:ignore libpanic shape mismatches are caller bugs; the documented kernel contract panics like slice indexing
	panic(fmt.Sprintf("mat: "+format, args...))
}

// assertSameLen enforces equal vector lengths under the same contract as
// failShape. The formatting lives in failLen so that the check itself is
// cheap enough to inline into the vector kernels.
func assertSameLen(op string, x, y []float64) {
	if len(x) != len(y) {
		failLen(op, len(x), len(y))
	}
}

//go:noinline
func failLen(op string, nx, ny int) { failShape("%s length mismatch: %d vs %d", op, nx, ny) }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a view into the backing slice.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowsView returns rows [lo, hi) as a value Matrix sharing m's backing
// slice — the row-major layout makes any contiguous row range a valid
// matrix. Returned by value so hot block loops pay no allocation.
func (m *Matrix) RowsView(lo, hi int) Matrix {
	return Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// RowViews appends one view per row of m — truncated to the first cols
// elements — onto dst and returns the extended slice. Callers that pool
// [][]float64 frames re-slice dst to length 0 between calls so the append
// amortizes to nothing; the growth allocation lives here so //perf:hot
// callers in other packages pay it only on growth.
func (m *Matrix) RowViews(dst [][]float64, cols int) [][]float64 {
	if cols > m.Cols {
		failShape("RowViews cols %d exceeds matrix cols %d", cols, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		dst = append(dst, m.Data[i*m.Cols:i*m.Cols+cols])
	}
	return dst
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// sharesBacking reports whether two slices come from the same backing
// array. Extending both to capacity makes them end at the same final
// element exactly when they share an allocation, so overlap is detected
// without unsafe — including row and block views of the same matrix.
func sharesBacking(x, y []float64) bool {
	if cap(x) == 0 || cap(y) == 0 {
		return false
	}
	xe := x[:cap(x)]
	ye := y[:cap(y)]
	return &xe[len(xe)-1] == &ye[len(ye)-1]
}

// checkNoAlias rejects a destination that shares backing storage with a
// source the kernel still reads while writing dst. Same-index elementwise
// kernels (AddTo and friends) tolerate aliasing and skip this check; the
// matmul kernels do not.
func checkNoAlias(op string, dst, src *Matrix) {
	if sharesBacking(dst.Data, src.Data) {
		failShape("%s destination aliases a source operand", op)
	}
}

// MulInto computes dst = a×b on the calling goroutine. dst is fully
// overwritten and must not alias a or b. Panics on dimension or aliasing
// errors.
//
//perf:hot
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		failShape("Mul dimension mismatch: %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		failShape("MulInto destination shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols)
	}
	checkNoAlias("MulInto", dst, a)
	checkNoAlias("MulInto", dst, b)
	mulRange(a, b, dst)
}

// mulRange writes every element of out = a×b. Each element accumulates in
// a register from +0, adding a[i][k]·b[k][j] in ascending k and skipping
// a[i][k] == 0 — exactly the additions an ikj loop of Axpy calls over a
// zeroed destination makes, so the bits are that loop's, 0·Inf included.
// Two rows by four columns are carried at once: each b[k][j] load feeds two
// rows and each a[i][k] four columns, and the eight sums stay in
// registers for the whole k loop.
func mulRange(a, b, out *Matrix) {
	n, m := a.Cols, b.Cols
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0 := a.Data[i*n : (i+1)*n]
		a1 := a.Data[(i+1)*n : (i+2)*n]
		a1 = a1[:len(a0)]
		o0 := out.Data[i*m : (i+1)*m]
		o1 := out.Data[(i+1)*m : (i+2)*m]
		o1 = o1[:len(o0)]
		j := 0
		for ; j+4 <= m; j += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			off := j
			for k, x0 := range a0 {
				bk := b.Data[off : off+4 : off+4]
				off += m
				if x0 != 0 {
					s00 += x0 * bk[0]
					s01 += x0 * bk[1]
					s02 += x0 * bk[2]
					s03 += x0 * bk[3]
				}
				if x1 := a1[k]; x1 != 0 {
					s10 += x1 * bk[0]
					s11 += x1 * bk[1]
					s12 += x1 * bk[2]
					s13 += x1 * bk[3]
				}
			}
			o := o0[j : j+4 : j+4]
			o[0], o[1], o[2], o[3] = s00, s01, s02, s03
			o = o1[j : j+4 : j+4]
			o[0], o[1], o[2], o[3] = s10, s11, s12, s13
		}
		for ; j < m; j++ {
			var s0, s1 float64
			off := j
			for k, x0 := range a0 {
				bv := b.Data[off]
				off += m
				if x0 != 0 {
					s0 += x0 * bv
				}
				if x1 := a1[k]; x1 != 0 {
					s1 += x1 * bv
				}
			}
			o0[j], o1[j] = s0, s1
		}
	}
	if i < a.Rows {
		mulRow(a.Data[i*n:(i+1)*n], b, out.Data[i*m:(i+1)*m])
	}
}

// mulRow is mulRange's one-row remainder: orow = arow×b, four columns at a
// time, under the same accumulation order and zero skip.
func mulRow(arow []float64, b *Matrix, orow []float64) {
	m := b.Cols
	j := 0
	for ; j+4 <= m; j += 4 {
		var s0, s1, s2, s3 float64
		off := j
		for _, x := range arow {
			bk := b.Data[off : off+4 : off+4]
			off += m
			if x != 0 {
				s0 += x * bk[0]
				s1 += x * bk[1]
				s2 += x * bk[2]
				s3 += x * bk[3]
			}
		}
		o := orow[j : j+4 : j+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; j < m; j++ {
		var s float64
		off := j
		for _, x := range arow {
			bv := b.Data[off]
			off += m
			if x != 0 {
				s += x * bv
			}
		}
		orow[j] = s
	}
}

// MulTInto computes dst = a×bᵀ on the calling goroutine without
// materializing the transpose. dst is fully overwritten and must not alias
// a or b.
//
//perf:hot
func MulTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		failShape("MulT dimension mismatch: %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		failShape("MulTInto destination shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows)
	}
	checkNoAlias("MulTInto", dst, a)
	checkNoAlias("MulTInto", dst, b)
	mulTRange(a, b, dst)
}

// mulTRange writes every element of out = a×bᵀ, four inner products at a
// time: one load of a[i][k] feeds four rows of b. Each product keeps Dot's
// single accumulator, index order and lack of a zero skip, so every
// element has Dot's bits; the remainder columns call Dot itself.
func mulTRange(a, b, out *Matrix) {
	n := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		orow := out.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*n : (j+1)*n]
			b1 := b.Data[(j+1)*n : (j+2)*n]
			b2 := b.Data[(j+2)*n : (j+3)*n]
			b3 := b.Data[(j+3)*n : (j+4)*n]
			b0, b1, b2, b3 = b0[:len(arow)], b1[:len(arow)], b2[:len(arow)], b3[:len(arow)]
			var s0, s1, s2, s3 float64
			for k, x := range arow {
				s0 += x * b0[k]
				s1 += x * b1[k]
				s2 += x * b2[k]
				s3 += x * b3[k]
			}
			o := orow[j : j+4 : j+4]
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			orow[j] = Dot(arow, b.Data[j*n:(j+1)*n])
		}
	}
}

// TMulInto computes dst = aᵀ×b on the calling goroutine without
// materializing the transpose. dst is fully overwritten and must not alias
// a or b. Every output element sums over the rows of a in ascending order,
// so the result does not depend on the machine's core count.
//
//perf:hot
func TMulInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		failShape("TMul dimension mismatch: (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		failShape("TMulInto destination shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols)
	}
	checkNoAlias("TMulInto", dst, a)
	checkNoAlias("TMulInto", dst, b)
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			Axpy(av, brow, dst.Row(i))
		}
	}
}

// AddTo computes dst = a+b elementwise. dst may alias a or b: every
// element is written exactly once from same-index reads.
//
//perf:hot
func AddTo(dst, a, b *Matrix) {
	checkSameShape("Add", a, b)
	checkSameShape("AddTo", dst, a)
	for i, v := range b.Data {
		dst.Data[i] = a.Data[i] + v
	}
}

// CopyInto copies src's elements into dst (shapes must match).
//
//perf:hot
func CopyInto(dst, src *Matrix) {
	checkSameShape("CopyInto", dst, src)
	copy(dst.Data, src.Data)
}

// AddInPlace adds b into a.
func AddInPlace(a, b *Matrix) {
	checkSameShape("AddInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Scale multiplies every element of m by s in place and returns m.
func Scale(m *Matrix, s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddRowVector adds vector v to every row of m in place. len(v) must equal
// m.Cols.
//
//perf:hot
func AddRowVector(m *Matrix, v []float64) {
	if len(v) != m.Cols {
		failShape("AddRowVector length mismatch: %d vs %d cols", len(v), m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, w := range v {
			row[j] += w
		}
	}
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		failShape("%s shape mismatch: %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols)
	}
}

// Dot returns the inner product of equal-length vectors x and y. Axpy is
// TMulInto's inner loop, and Dot fills MulTInto's remainder columns and
// sets the bits its four-wide loop must reproduce. Both take four elements
// per iteration, for steadiness before speed: a one-element body is small
// enough that it runs a third (Axpy) to a half (Dot) slower whenever the
// linker happens to lay it across a 64-byte fetch line, and functions are
// only 32-byte aligned, so any code change ahead of it can flip that
// (DESIGN.md, "Two inner loops"). Dot keeps its single accumulator and
// index order and Axpy's elements are independent, so the unrolling does
// not change a bit of either result.
//
//perf:hot
func Dot(x, y []float64) float64 {
	assertSameLen("Dot", x, y)
	s := 0.0
	j := 0
	for ; j+4 <= len(x); j += 4 {
		xs, ys := x[j:j+4:j+4], y[j:j+4:j+4]
		s += xs[0] * ys[0]
		s += xs[1] * ys[1]
		s += xs[2] * ys[2]
		s += xs[3] * ys[3]
	}
	for ; j < len(x); j++ {
		s += x[j] * y[j]
	}
	return s
}

// Axpy computes y += a*x in place.
//
//perf:hot
func Axpy(a float64, x, y []float64) {
	assertSameLen("Axpy", x, y)
	j := 0
	for ; j+4 <= len(x); j += 4 {
		xs, ys := x[j:j+4:j+4], y[j:j+4:j+4]
		ys[0] += a * xs[0]
		ys[1] += a * xs[1]
		ys[2] += a * xs[2]
		ys[3] += a * xs[3]
	}
	for ; j < len(x); j++ {
		y[j] += a * x[j]
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// EuclideanDist returns the Euclidean distance between x and y.
//
//perf:hot
func EuclideanDist(x, y []float64) float64 {
	assertSameLen("EuclideanDist", x, y)
	s := 0.0
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// SquaredDist returns the squared Euclidean distance between x and y.
//
//perf:hot
func SquaredDist(x, y []float64) float64 {
	assertSameLen("SquaredDist", x, y)
	s := 0.0
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return s
}

// Parallel splits the range [0, n) into one contiguous chunk per available
// CPU and invokes fn(lo, hi) for each chunk on its own goroutine, returning
// when all chunks finish. fn must be safe to run concurrently on disjoint
// ranges. For n == 0 it returns immediately; for a single worker it calls fn
// inline.
func Parallel(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	if chunk >= n {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelItems invokes fn(i) for every i in [0, n) using the worker pool.
// Convenience wrapper over Parallel for per-item workloads whose cost is
// large enough that chunk granularity does not matter.
func ParallelItems(n int, fn func(i int)) {
	Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
