package mat

import "testing"

// pass runs one arena pass — Reset, then a Get per shape — stamping every
// matrix so a later pass that sees stale data, or a handout that overlaps
// another, is caught.
func pass(t testing.TB, a *Arena, shapes [][2]int) []*Matrix {
	t.Helper()
	a.Reset()
	out := make([]*Matrix, len(shapes))
	for i, s := range shapes {
		m := a.Get(s[0], s[1])
		if m.Rows != s[0] || m.Cols != s[1] || len(m.Data) != s[0]*s[1] {
			t.Fatalf("Get(%d,%d) returned %dx%d over %d floats", s[0], s[1], m.Rows, m.Cols, len(m.Data))
		}
		if cap(m.Data) != len(m.Data) {
			t.Fatalf("Get(%d,%d): capacity %d past length %d reaches into the next handout", s[0], s[1], cap(m.Data), len(m.Data))
		}
		for j, v := range m.Data {
			if v != 0 {
				t.Fatalf("Get(%d,%d) returned dirty storage at %d: %g", s[0], s[1], j, v)
			}
		}
		for j := range m.Data {
			m.Data[j] = float64(i + 1)
		}
		out[i] = m
	}
	return out
}

func floats(shapes [][2]int) int {
	n := 0
	for _, s := range shapes {
		n += s[0] * s[1]
	}
	return n
}

// replay is pass without the checks (and without their allocations).
func replay(a *Arena, shapes [][2]int) {
	a.Reset()
	for _, s := range shapes {
		a.Get(s[0], s[1])
	}
}

// moePass is the shape sequence of a model pass over rows tokens whose
// mixture-of-experts layer routed e0 and e1 of them to its first two experts
// and the rest to the third — the part of a pass that differs from call to
// call even at a fixed batch size.
func moePass(rows, e0, e1 int) [][2]int {
	return [][2]int{{rows, 48}, {rows, 48}, {e0, 64}, {e1, 64}, {rows - e0 - e1, 64}, {20, 20}, {rows, 30}}
}

var (
	largestPass = moePass(160, 53, 60)
	smallPass   = moePass(20, 9, 11)
	otherPass   = [][2]int{{60, 48}, {7, 64}, {1, 64}, {52, 64}, {0, 5}, {20, 20}, {20, 20}, {60, 30}}
)

// TestArenaSteadyStateAllocatesNothing pins the slab's point: once the
// largest pass has been seen, passes that fit it allocate nothing even when
// every one of them brings shapes the arena has never served — a new batch
// size, a new per-expert split — so shape variety founds nothing.
func TestArenaSteadyStateAllocatesNothing(t *testing.T) {
	a := NewArena()
	pass(t, a, largestPass) // overflows the empty slab
	pass(t, a, largestPass) // the Reset in here grows it
	shapes := make([][2]int, len(largestPass))
	call := 0
	allocs := testing.AllocsPerRun(60, func() {
		call++
		rows := 20 * (call%8 + 1)
		copy(shapes, moePass(rows, call%(rows/2), 7*call%(rows/2))) // moePass's literal stays on the stack
		replay(a, shapes)
		replay(a, otherPass)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per pass that fits the largest seen, want 0", allocs)
	}
}

// TestArenaRetainsLargestPass pins what an arena costs: the floats of the
// largest pass it has served, not the sum over every shape it has seen.
func TestArenaRetainsLargestPass(t *testing.T) {
	a := NewArena()
	for _, shapes := range [][][2]int{smallPass, largestPass, otherPass, smallPass, largestPass} {
		pass(t, a, shapes)
	}
	a.Reset()
	if got, want := len(a.slab), floats(largestPass); got != want {
		t.Fatalf("arena retains %d floats, want the largest pass's %d", got, want)
	}
	if a.Live() != 0 {
		t.Fatalf("Live = %d after Reset", a.Live())
	}
}

// TestArenaOverflowKeepsEarlierHandouts pins the mid-pass overflow rule: a
// Get the slab cannot hold is served from fresh storage — the slab never
// moves while its matrices are live — so the handouts before it keep their
// contents, nothing aliases, and the next Reset grows the slab to fit.
func TestArenaOverflowKeepsEarlierHandouts(t *testing.T) {
	a := NewArena()
	pass(t, a, smallPass)
	pass(t, a, smallPass) // slab now holds exactly smallPass
	shapes := append(append([][2]int{}, smallPass[:3]...), [2]int{400, 48}, [2]int{2, 2}, [2]int{20, 48})
	mats := pass(t, a, shapes) // overflows at the fourth Get
	for i, m := range mats {
		for j, v := range m.Data {
			if v != float64(i+1) {
				t.Fatalf("handout %d element %d = %g after a mid-pass overflow, want %d", i, j, v, i+1)
			}
		}
		for _, other := range mats[:i] {
			if sharesBacking(m.Data, other.Data) {
				t.Fatalf("handout %d shares backing storage with an earlier one", i)
			}
		}
		// Every pair must pass the matmul kernels' own alias check too.
		if i > 0 && m.Rows > 0 {
			checkNoAlias("test", m, mats[i-1])
		}
	}
	if a.Live() != len(shapes) {
		t.Fatalf("Live = %d, want %d", a.Live(), len(shapes))
	}
	a.Reset()
	if got, want := len(a.slab), floats(shapes); got != want {
		t.Fatalf("slab holds %d floats after the overflowed pass, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(5, func() { replay(a, shapes) }); allocs != 0 {
		t.Fatalf("%v allocations replaying the overflowed pass, want 0", allocs)
	}
}
