package runtime

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/dataset"
	"nodesentry/internal/obs"
)

// scoreTap records every OnScores callback keyed by node and window start,
// copying the slice per the hook contract.
type scoreTap struct {
	mu     sync.Mutex
	scores map[string][]float64
}

func newScoreTap() *scoreTap { return &scoreTap{scores: map[string][]float64{}} }

func (s *scoreTap) hook() Hooks {
	return Hooks{OnScores: func(node string, cluster int, start int64, scores []float64) {
		s.mu.Lock()
		defer s.mu.Unlock()
		key := fmt.Sprintf("%s@%d", node, start)
		s.scores[key] = append([]float64(nil), scores...)
	}}
}

// scoreOracle recomputes every window the monitor reports without any of
// the monitor's code: it cuts the window out of the dataset frame at the
// reported start, derives the job-aligned offset from the accounting spans,
// and runs core.Detector.ScoreFrame on a private clone.
type scoreOracle struct {
	t    *testing.T
	ds   *dataset.Dataset
	det  *core.Detector
	from int64

	mu      sync.Mutex
	windows int
}

func newScoreOracle(t *testing.T, ds *dataset.Dataset, det *core.Detector, from int64) *scoreOracle {
	t.Helper()
	clone, err := det.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return &scoreOracle{t: t, ds: ds, det: clone, from: from}
}

func (o *scoreOracle) hook() Hooks {
	return Hooks{OnScores: func(node string, cluster int, start int64, scores []float64) {
		o.mu.Lock()
		defer o.mu.Unlock()
		o.windows++
		// The window's job began at the last transition at or before it.
		jobStart := int64(-1)
		for _, sp := range o.ds.SpansForNode(node, o.from, o.ds.Horizon) {
			if sp.Start <= start {
				jobStart = sp.Start
			}
		}
		if jobStart < 0 {
			o.t.Errorf("window %s@%d precedes every job span", node, start)
			return
		}
		f := o.ds.Frames[node]
		lo := f.IndexOf(start)
		want := o.det.ScoreFrame(f.Slice(lo, lo+len(scores)), cluster, int((start-jobStart)/o.ds.Step))
		if len(want) != len(scores) {
			o.t.Errorf("window %s@%d: %d scores, oracle %d", node, start, len(scores), len(want))
			return
		}
		for i := range want {
			if scores[i] != want[i] { // exact float comparison on purpose
				o.t.Errorf("window %s@%d sample %d: monitor %v, oracle %v", node, start, i, scores[i], want[i])
				return
			}
		}
	}}
}

// TestBatchedScoringEquivalence replays the same evaluation slice at a
// batch of one (BatchWindows 0 and 1) and batched (4, with an effectively
// infinite max delay, drained by the flushes on job transitions and Close),
// checks every reported window float-for-float against the oracle, and
// demands identical alerts across the three. This is the contract the bench
// gate leans on: BatchWindows may only change dispatch cost, never a float.
func TestBatchedScoringEquivalence(t *testing.T) {
	ds, det := fixture(t)
	var windows []int
	var alerts [][]Alert
	for _, b := range []int{0, 1, 4} {
		oracle := newScoreOracle(t, ds, det, ds.SplitTime())
		m, err := NewMonitor(det, Config{
			Step:          ds.Step,
			AlertBuffer:   4096,
			BatchWindows:  b,
			BatchMaxDelay: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.SetHooks(oracle.hook())
		alerts = append(alerts, Replay(ds, m, ds.SplitTime(), ds.Horizon))
		windows = append(windows, oracle.windows)
		if t.Failed() {
			t.Fatalf("BatchWindows=%d diverged from the oracle", b)
		}
	}
	if windows[0] == 0 {
		t.Fatal("replay scored no windows")
	}
	if len(alerts[0]) == 0 {
		t.Error("equivalence vacuous: no alerts raised on the fault-injected slice")
	}
	for i := 1; i < len(alerts); i++ {
		if windows[i] != windows[0] {
			t.Errorf("window count diverged: %d vs %d", windows[i], windows[0])
		}
		if !reflect.DeepEqual(alerts[i], alerts[0]) {
			t.Errorf("alerts diverged between BatchWindows settings: %d vs %d alerts", len(alerts[i]), len(alerts[0]))
		}
	}
}

// TestBatchedScoringWithConcurrentSwap replays through a batched monitor
// while SwapDetector hot-swaps (to a clone of the same detector) from
// another goroutine. The scores must still match the undisturbed baseline
// exactly — a swap to an identical model may change alert epochs, never
// floats — and nothing may race or deadlock (this test carries its weight
// under -race).
func TestBatchedScoringWithConcurrentSwap(t *testing.T) {
	ds, det := fixture(t)

	seqTap := newScoreTap()
	seq, err := NewMonitor(det, Config{Step: ds.Step, AlertBuffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	seq.SetHooks(seqTap.hook())
	Replay(ds, seq, ds.SplitTime(), ds.Horizon)

	batTap := newScoreTap()
	bat, err := NewMonitor(det, Config{
		Step:          ds.Step,
		AlertBuffer:   4096,
		BatchWindows:  3,
		BatchMaxDelay: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	bat.SetHooks(batTap.hook())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := bat.SwapDetector(det); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	batAlerts := Replay(ds, bat, ds.SplitTime(), ds.Horizon)
	close(stop)
	wg.Wait()

	if bat.Epoch() < 2 {
		t.Fatal("no swap happened mid-replay; the test exercised nothing")
	}
	if !reflect.DeepEqual(seqTap.scores, batTap.scores) {
		t.Fatalf("scores diverged across hot swaps: sequential %d windows, batched %d windows",
			len(seqTap.scores), len(batTap.scores))
	}
	for _, a := range batAlerts {
		if a.Epoch < 1 || a.Epoch > bat.Epoch() {
			t.Errorf("alert carries impossible epoch %d (monitor at %d)", a.Epoch, bat.Epoch())
		}
	}
}

// TestFlushExplicit verifies Flush scores queued windows on demand: with an
// infinite max delay and a batch size larger than the windows fed, nothing
// is scored until Flush runs.
func TestFlushExplicit(t *testing.T) {
	ds, det := fixture(t)
	tap := newScoreTap()
	m, err := NewMonitor(det, Config{
		Step:          ds.Step,
		BatchWindows:  1 << 20,
		BatchMaxDelay: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetHooks(tap.hook())

	// One job for the whole feed: no mid-stream ObserveJob means no
	// implicit flushes, so every scored window must come from Flush.
	node := ds.Nodes()[0]
	f := ds.Frames[node]
	view := f.Slice(f.IndexOf(ds.SplitTime()), f.IndexOf(ds.Horizon))
	m.RegisterNode(node, view.Metrics)
	m.ObserveJob(node, 7, view.Start)
	for i := 0; i < view.Len(); i++ {
		m.Ingest(node, view.TimeAt(i), view.Window(i))
	}

	st := m.state(node)
	st.mu.Lock()
	matched := st.matched
	st.mu.Unlock()
	if !matched {
		t.Fatal("node never matched; feed too short for this fixture")
	}
	if len(tap.scores) != 0 {
		t.Fatalf("windows scored before any flush: %d", len(tap.scores))
	}
	m.Flush()
	after := len(tap.scores)
	if after == 0 {
		t.Fatal("Flush scored nothing")
	}
	// A second Flush with an empty queue is a no-op.
	m.Flush()
	if len(tap.scores) != after {
		t.Error("empty Flush scored windows")
	}
	m.Close()
}

// TestScoringLanesIndependent pins that scoring is not globally serialised:
// two consecutively registered nodes land on different lanes, so node A's
// OnScores hook can block until node B's has fired. A single scoring lock
// (the old batched path's flushMu) deadlocks here.
func TestScoringLanesIndependent(t *testing.T) {
	ds, det := fixture(t)
	for _, b := range []int{0, 4} {
		m, err := NewMonitor(det, Config{Step: ds.Step, ScoringWorkers: 2, BatchWindows: b, BatchMaxDelay: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		nodes := ds.Nodes()[:2]
		for _, n := range nodes {
			m.RegisterNode(n, ds.Frames[n].Metrics)
		}
		bFired := make(chan struct{})
		var once sync.Once
		stuck := make(chan struct{})
		m.SetHooks(Hooks{OnScores: func(node string, _ int, _ int64, _ []float64) {
			if node == nodes[1] {
				once.Do(func() { close(bFired) })
				return
			}
			select {
			case <-bFired:
			case <-stuck:
			case <-time.After(30 * time.Second):
				once.Do(func() { close(stuck) })
			}
		}})
		var wg sync.WaitGroup
		for _, n := range nodes {
			wg.Add(1)
			go func(n string) {
				defer wg.Done()
				f := ds.Frames[n]
				m.ObserveJob(n, 1, f.Start)
				for i := 0; i < 300 && i < f.Len(); i++ {
					m.Ingest(n, f.TimeAt(i), f.Window(i))
				}
			}(n)
		}
		wg.Wait()
		m.Close()
		select {
		case <-stuck:
			t.Fatalf("BatchWindows=%d: node A's scoring blocked node B's", b)
		case <-bFired:
		default:
			t.Fatalf("BatchWindows=%d: node B never scored a window", b)
		}
	}
}

// matchedNode returns a monitor with one registered node fed until its
// pattern has matched and its ring sits at a window boundary, and the index
// of the next sample to feed.
func matchedNode(t *testing.T, cfg Config) (m *Monitor, node string, next int) {
	t.Helper()
	ds, det := fixture(t)
	cfg.Step = ds.Step
	m, err := NewMonitor(det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	node = ds.Nodes()[0]
	f := ds.Frames[node]
	m.RegisterNode(node, f.Metrics)
	m.ObserveJob(node, 1, f.Start)
	st := m.state(node)
	for !st.matched || st.ring.n != 0 {
		m.Ingest(node, f.TimeAt(next), f.Window(next))
		next++
	}
	return m, node, next
}

// TestIngestAllocatesNothingBetweenWindows: buffering a sample of a matched
// node that does not complete a window allocates nothing.
func TestIngestAllocatesNothingBetweenWindows(t *testing.T) {
	ds, det := fixture(t)
	m, node, next := matchedNode(t, Config{Metrics: obs.NewRegistry()})
	defer m.Close()
	f := ds.Frames[node]
	st := m.state(node)
	win := det.WindowLen()
	// Right after a window boundary, win-1 samples only buffer.
	vec := append([]float64(nil), f.Window(next)...)
	i := 0
	allocs := testing.AllocsPerRun(win-2, func() {
		m.Ingest(node, f.TimeAt(next+i), vec)
		i++
	})
	if allocs != 0 {
		t.Errorf("Ingest allocated %v times per buffered sample, want 0", allocs)
	}
	if st.ring.n != i {
		t.Fatalf("measured calls completed a window: %d buffered after %d calls", st.ring.n, i)
	}
}

// TestRingKeepsShapeContract: a vector that does not have the registered
// width is conformed while it is written into the ring — short ones padded
// with NaN, long ones truncated — and counted.
func TestRingKeepsShapeContract(t *testing.T) {
	ds, _ := fixture(t)
	reg := obs.NewRegistry()
	m, node, next := matchedNode(t, Config{Metrics: reg})
	defer m.Close()
	f := ds.Frames[node]
	st := m.state(node)
	M := len(f.Metrics)
	full := f.Window(next)
	m.Ingest(node, f.TimeAt(next), full[:M-2])
	long := append(append([]float64(nil), full...), 7, 8, 9)
	m.Ingest(node, f.TimeAt(next+1), long)
	m.Ingest(node, f.TimeAt(next+2), full)

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ring.n != 3 || st.ring.width != M {
		t.Fatalf("ring holds %d rows of width %d, want 3 of %d", st.ring.n, st.ring.width, M)
	}
	short := st.ring.vals[:M]
	for i, v := range short {
		if i < M-2 && math.Float64bits(v) != math.Float64bits(full[i]) {
			t.Errorf("short row [%d] = %v, want %v", i, v, full[i])
		}
		if i >= M-2 && !math.IsNaN(v) {
			t.Errorf("short row [%d] = %v, want NaN padding", i, v)
		}
	}
	for i, v := range full {
		if got := st.ring.vals[M+i]; math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("long vector row [%d] = %v, want %v (truncated to the registered layout)", i, got, v)
		}
		if got := st.ring.vals[2*M+i]; math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("well-shaped row [%d] = %v, want %v", i, got, v)
		}
	}
	if got := reg.Counter("nodesentry_ingest_shape_mismatch_total").Value(); got != 2 {
		t.Errorf("shape mismatch counter = %v, want 2", got)
	}
}
