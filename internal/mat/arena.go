package mat

// Arena is a bump allocator over one grow-once slab, built for hot
// forward/backward passes that need many short-lived tensors per
// invocation. Get hands out the next rows·cols floats of the slab as a
// zeroed matrix; Reset takes every matrix back at once without freeing the
// slab, so a Get/Reset cycle allocates nothing for any shape sequence whose
// total fits the largest pass seen — and the arena retains that largest
// pass, not a buffer set per shape.
//
// Ownership contract: a matrix returned by Get — header and storage —
// belongs to the caller only until the next Reset; after that the arena
// hands both to later Gets. Callers that must retain data across a Reset
// copy it out (Matrix.Clone). An Arena is NOT safe for concurrent use;
// give each goroutine (each model instance) its own.
type Arena struct {
	slab []float64
	// off counts the floats requested since the last Reset. Past len(slab)
	// the pass has overflowed: the slab cannot move while its matrices are
	// live, so the rest of the pass is served by fresh allocations and the
	// next Reset grows the slab to the pass's total.
	off int
	// hdrs[:live] are the handed-out matrix headers, recycled like the slab.
	hdrs []*Matrix
	live int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Get returns a zeroed rows×cols matrix owned by the arena until the next
// Reset. Live matrices never alias: each is a capacity-capped view of its
// own slab range, so the kernels' alias check (which compares the final
// elements of the capacity-extended slices) tells two handouts apart.
func (a *Arena) Get(rows, cols int) *Matrix {
	if a.live == len(a.hdrs) {
		a.hdrs = append(a.hdrs, new(Matrix))
	}
	m := a.hdrs[a.live]
	a.live++
	end := a.off + rows*cols
	if end <= len(a.slab) {
		m.Data = a.slab[a.off:end:end]
		clear(m.Data)
	} else {
		m.Data = make([]float64, rows*cols)
	}
	a.off = end
	m.Rows, m.Cols = rows, cols
	return m
}

// Reset takes back every handed-out matrix. Matrices obtained from Get
// before the Reset must not be used afterwards.
func (a *Arena) Reset() {
	if a.off > len(a.slab) {
		a.slab = make([]float64, a.off)
	}
	a.off, a.live = 0, 0
}

// Live reports how many matrices are currently handed out (diagnostic).
func (a *Arena) Live() int { return a.live }

// GrowFloats returns a float64 slice of length n, reusing buf's backing
// array when it has capacity. Contents are undefined; callers must fully
// overwrite. The allocation lives here so //perf:hot callers in other
// packages pay it only on growth.
func GrowFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// GrowInts is GrowFloats for int slices.
func GrowInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
