package mat

import (
	"math"
	"math/rand"
	"testing"
)

// poison fills a matrix with NaN so a kernel that fails to overwrite its
// whole destination is caught immediately.
func poison(m *Matrix) {
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
}

func assertMatEq(t *testing.T, op string, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		w := want.Data[i]
		if math.IsNaN(v) {
			t.Fatalf("%s: destination element %d not overwritten (NaN)", op, i)
		}
		if math.Abs(v-w) > tol*(1+math.Abs(w)) {
			t.Fatalf("%s: element %d = %g, want %g", op, i, v, w)
		}
	}
}

func mustPanic(t *testing.T, op string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: aliased destination did not panic", op)
		}
	}()
	fn()
}

// FuzzIntoKernels drives the caller-owned-destination kernels over random
// shapes and pins three contracts at once: every kernel matches the naive
// reference bit-for-tolerance, every kernel fully overwrites a poisoned
// destination (no kernel reads its own destination), and the matmul
// kernels reject destinations aliasing a source.
func FuzzIntoKernels(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(2))
	f.Add(int64(7), uint8(1), uint8(1), uint8(1))
	f.Add(int64(42), uint8(17), uint8(9), uint8(33))
	f.Add(int64(99), uint8(64), uint8(32), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, rm, km, cm uint8) {
		r := int(rm%48) + 1
		k := int(km%48) + 1
		c := int(cm%48) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, r, k)
		b := randMatrix(rng, k, c)

		dst := New(r, c)
		poison(dst)
		MulInto(dst, a, b)
		assertMatEq(t, "MulInto", dst, mulNaive(a, b), 1e-12)

		bt := b.T()
		dst2 := New(r, c)
		poison(dst2)
		MulTInto(dst2, a, bt)
		assertMatEq(t, "MulTInto", dst2, mulNaive(a, b), 1e-12)

		// TMulInto(dst, aᵀ, b) computes (aᵀ)ᵀ×b == a×b, shape r×c.
		at := a.T()
		dst3 := New(r, c)
		poison(dst3)
		TMulInto(dst3, at, b)
		assertMatEq(t, "TMulInto", dst3, mulNaive(a, b), 1e-12)

		// Elementwise kernels tolerate aliasing; still must fully overwrite.
		e1 := randMatrix(rng, r, k)
		e2 := randMatrix(rng, r, k)
		sum := New(r, k)
		poison(sum)
		AddTo(sum, e1, e2)
		for i := range sum.Data {
			if sum.Data[i] != e1.Data[i]+e2.Data[i] {
				t.Fatalf("AddTo element %d mismatch", i)
			}
		}
		alias := e1.Clone()
		AddTo(alias, alias, e2) // aliased dst==a is allowed
		for i := range alias.Data {
			if alias.Data[i] != e1.Data[i]+e2.Data[i] {
				t.Fatalf("AddTo aliased element %d mismatch", i)
			}
		}

		// Aliased destinations must be rejected by the matmul kernels —
		// including views that share backing storage without being the
		// same slice header.
		if r == k && k == c {
			mustPanic(t, "MulInto dst==a", func() { MulInto(a, a, b) })
			mustPanic(t, "MulTInto dst==b", func() { MulTInto(bt, a, bt) })
			mustPanic(t, "TMulInto dst==a", func() { TMulInto(a, a, b) })
		}
		if r >= 2 {
			// A disjoint row-range of a source still shares its backing
			// array, so it must be rejected as a destination even though
			// the slice headers differ.
			view := a.RowsView(0, r/2)
			wide := New(view.Rows, b.Cols)
			MulInto(wide, &view, b) // non-aliased view source is fine
			bad := a.RowsView(r/2, r/2+view.Rows)
			if bad.Cols == b.Cols {
				mustPanic(t, "MulTInto dst=view of a", func() {
					v := bad
					MulTInto(&v, &view, b)
				})
			}
		}
	})
}

// FuzzArena drives random Get/Reset sequences and pins the arena contract:
// Get returns zeroed storage, two live Gets of the same shape never alias,
// and reuse after a growth cycle hands back the grown pool without fresh
// allocation churn corrupting earlier handouts.
func FuzzArena(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(13), uint8(9))
	f.Add(int64(7777), uint8(31))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		a := NewArena()
		var live []*Matrix
		for s := 0; s < int(steps%40)+2; s++ {
			if rng.Intn(5) == 0 {
				a.Reset()
				live = live[:0]
				if a.Live() != 0 {
					t.Fatal("Live != 0 after Reset")
				}
				continue
			}
			r := rng.Intn(6) + 1
			c := rng.Intn(6) + 1
			m := a.Get(r, c)
			if m.Rows != r || m.Cols != c {
				t.Fatalf("Get(%d,%d) returned %dx%d", r, c, m.Rows, m.Cols)
			}
			for i, v := range m.Data {
				if v != 0 {
					t.Fatalf("Get returned dirty storage at %d: %g", i, v)
				}
			}
			for _, other := range live {
				if sharesBacking(m.Data, other.Data) {
					t.Fatal("two live arena matrices share backing storage")
				}
			}
			// Stamp the matrix so dirty reuse after Reset is detectable.
			for i := range m.Data {
				m.Data[i] = float64(s + 1)
			}
			live = append(live, m)
			if a.Live() != len(live) {
				t.Fatalf("Live = %d, want %d", a.Live(), len(live))
			}
		}
	})
}

func TestGrowBuffers(t *testing.T) {
	f := GrowFloats(nil, 5)
	if len(f) != 5 {
		t.Fatalf("GrowFloats len %d", len(f))
	}
	f2 := GrowFloats(f, 3)
	if &f2[0] != &f[0] {
		t.Fatal("GrowFloats reallocated despite capacity")
	}
	n := GrowInts(nil, 4)
	n2 := GrowInts(n, 9)
	if len(n2) != 9 {
		t.Fatalf("GrowInts len %d", len(n2))
	}
}
