// Package mat provides the dense float64 linear-algebra kernels that back
// NodeSentry's neural substrate, plus the worker-pool helper used across the
// repository to parallelize embarrassingly parallel loops.
//
// Matrices are row-major with a contiguous backing slice so that matmul
// kernels stream memory predictably. Operations above a size threshold are
// automatically split across runtime.GOMAXPROCS(0) goroutines.
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

// parallelThreshold is the flop count above which kernels fan out to the
// worker pool; below it the goroutine overhead dominates.
const parallelThreshold = 1 << 16

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

// MulInto computes dst = a×b, parallelizing over row blocks of a when the
// product is large. dst is fully overwritten and must not alias a or b.
// Panics on dimension or aliasing errors.
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
	dst.Zero()
	work := a.Rows * a.Cols * b.Cols
	if work < parallelThreshold {
		mulRange(a, b, dst, 0, a.Rows)
		return
	}
	Parallel(a.Rows, func(lo, hi int) { mulRange(a, b, dst, lo, hi) })
}

// mulRange computes out rows [lo, hi) of a×b with an ikj loop order that
// streams rows of b.
func mulRange(a, b, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			Axpy(av, b.Row(k), orow)
		}
	}
}

// MulTInto computes dst = a×bᵀ without materializing the transpose. dst is
// fully overwritten and must not alias a or b.
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
	if a.Rows*a.Cols*b.Rows < parallelThreshold {
		mulTRange(a, b, dst, 0, a.Rows)
		return
	}
	Parallel(a.Rows, func(lo, hi int) { mulTRange(a, b, dst, lo, hi) })
}

// mulTRange computes out rows [lo, hi) of a×bᵀ. A top-level function (not a
// closure) so the serial path of MulTInto allocates nothing.
func mulTRange(a, b, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			orow[j] = Dot(arow, b.Row(j))
		}
	}
}

// TMulInto computes dst = aᵀ×b without materializing the transpose. dst
// is fully overwritten and must not
// alias a or b. Not //perf:hot: the parallel path allocates per-chunk
// locals (the deterministic chunk-ordered reduction needs them), and the
// kernel sits on backward passes only.
func TMulInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		failShape("TMul dimension mismatch: (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		failShape("TMulInto destination shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols)
	}
	checkNoAlias("TMulInto", dst, a)
	checkNoAlias("TMulInto", dst, b)
	out := dst
	out.Zero()
	if a.Rows*a.Cols*b.Cols < parallelThreshold {
		tmulRange(a, b, out, 0, a.Rows)
		return
	}
	// Every output element sums over all rows of a, so workers accumulate
	// into per-chunk locals that are merged in chunk order after the fan-out:
	// the floating-point addition order — and therefore the result — depends
	// only on the chunking, not on goroutine scheduling.
	ck := chunks(a.Rows)
	locals := make([]*Matrix, len(ck))
	var wg sync.WaitGroup
	for ci, c := range ck {
		wg.Add(1)
		go func(ci int, lo, hi int) {
			defer wg.Done()
			locals[ci] = New(out.Rows, out.Cols)
			tmulRange(a, b, locals[ci], lo, hi)
		}(ci, c[0], c[1])
	}
	wg.Wait()
	for _, local := range locals {
		for i, v := range local.Data {
			out.Data[i] += v
		}
	}
}

// tmulRange accumulates rows [lo, hi) of a into dst += aᵀ×b. A top-level
// function (not a closure) so the serial path of TMulInto allocates nothing.
func tmulRange(a, b, dst *Matrix, lo, hi int) {
	for k := lo; k < hi; k++ {
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

// Dot returns the inner product of equal-length vectors x and y. Dot and
// Axpy are the inner loops of the matmul kernels. Both take four elements
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
//
// The chunk bounds are computed inline rather than via chunks: this sits on
// every hot kernel's path, and materializing the partition slice would be
// one allocation per matmul. The math mirrors chunks exactly, so kernels
// that need the explicit partition (TMul's chunk-ordered reduction) see the
// same split.
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

// chunks partitions [0, n) into one contiguous {lo, hi} range per available
// CPU (fewer when n is small). The partition depends only on n and
// GOMAXPROCS, which keeps chunk-ordered reductions deterministic.
func chunks(n int) [][2]int {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	out := make([][2]int, 0, workers)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
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
