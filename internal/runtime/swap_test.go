package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSwapDetectorZeroDrop pins the hot-swap guarantee: swapping
// continuously between clones of the same detector during a replay must
// leave the alert stream identical to an undisturbed reference run — every
// window scored exactly once, by exactly one generation, none dropped or
// doubled.
func TestSwapDetectorZeroDrop(t *testing.T) {
	ds, det := fixture(t)
	ref, err := NewMonitor(det, Config{Step: ds.Step, ScoringWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	refAlerts := Replay(ds, ref, ds.SplitTime(), ds.Horizon)
	refStatus := ref.Snapshot()

	m, err := NewMonitor(det, Config{Step: ds.Step, ScoringWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var swaps atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.SwapDetector(det); err != nil {
				t.Errorf("SwapDetector: %v", err)
				return
			}
			swaps.Add(1)
		}
	}()
	alerts := Replay(ds, m, ds.SplitTime(), ds.Horizon)
	close(stop)
	wg.Wait()
	if swaps.Load() == 0 {
		t.Fatal("swap goroutine never completed a swap")
	}

	if len(alerts) != len(refAlerts) {
		t.Fatalf("swapped run raised %d alerts, reference %d", len(alerts), len(refAlerts))
	}
	for i := range alerts {
		a, r := alerts[i], refAlerts[i]
		if a.Node != r.Node || a.Time != r.Time || a.Job != r.Job ||
			a.Score != r.Score || a.Priority != r.Priority {
			t.Fatalf("alert %d diverges under swapping:\n got %+v\nwant %+v", i, a, r)
		}
		if a.Epoch < 1 || a.Epoch > m.Epoch() {
			t.Fatalf("alert %d has epoch %d outside [1, %d]", i, a.Epoch, m.Epoch())
		}
	}
	// Consumed totals reconcile: no window was skipped or double-counted.
	status := m.Snapshot()
	if len(status) != len(refStatus) {
		t.Fatalf("swapped run saw %d nodes, reference %d", len(status), len(refStatus))
	}
	for i := range status {
		if status[i].Consumed != refStatus[i].Consumed {
			t.Errorf("node %s consumed %d samples, reference %d",
				status[i].Node, status[i].Consumed, refStatus[i].Consumed)
		}
	}
	t.Logf("%d swaps during replay, %d alerts, final epoch %d", swaps.Load(), len(alerts), m.Epoch())
}

func TestSwapDetectorAdvancesEpoch(t *testing.T) {
	ds, det := fixture(t)
	m, err := NewMonitor(det, Config{Step: ds.Step})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Epoch() != 1 {
		t.Fatalf("fresh monitor epoch = %d, want 1", m.Epoch())
	}
	pause, err := m.SwapDetector(det)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 2 {
		t.Fatalf("epoch after swap = %d, want 2", m.Epoch())
	}
	if pause < 0 || pause > time.Minute {
		t.Errorf("implausible swap pause %v", pause)
	}
	// The cached probe length follows the installed generation.
	longer, err := det.Clone()
	if err != nil {
		t.Fatal(err)
	}
	winSec, k := det.OnlineParams()
	longer.SetOnlineParams(2*det.MatchPeriodSec(), winSec, k)
	before := m.probeLen.Load()
	if _, err := m.SwapDetector(longer); err != nil {
		t.Fatal(err)
	}
	if got := m.probeLen.Load(); got != 2*before {
		t.Errorf("probe length after swapping in a doubled match period = %d, want %d", got, 2*before)
	}
}

// TestSnapshotConsistentMidStream hammers the consistency invariant while
// alert accounting, node registration, and swaps race against the snapshot:
// every view must reconcile per-node dropped counts with the global count
// and carry a plausible epoch.
func TestSnapshotConsistentMidStream(t *testing.T) {
	ds, det := fixture(t)
	// One-slot buffer with no consumer: every delivery past the first drops,
	// exercising the accounting path as hard as possible.
	m, err := NewMonitor(det, Config{Step: ds.Step, AlertBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nodes := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st := m.state(nodes[(g+i)%len(nodes)])
				m.deliver(st, Alert{Node: st.node, Time: int64(i)})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.SwapDetector(det); err != nil {
				t.Errorf("SwapDetector: %v", err)
				return
			}
		}
	}()

	deadline := time.Now().Add(2 * time.Second)
	var lastEpoch int64
	views := 0
	for time.Now().Before(deadline) {
		v := m.SnapshotConsistent()
		views++
		if !droppedInvariant(v) {
			t.Fatalf("torn view: per-node dropped sum != global %d", v.Dropped)
		}
		if v.Epoch < lastEpoch {
			t.Fatalf("epoch went backwards: %d after %d", v.Epoch, lastEpoch)
		}
		lastEpoch = v.Epoch
	}
	close(stop)
	wg.Wait()
	m.Close()
	final := m.SnapshotConsistent()
	if final.Dropped == 0 {
		t.Error("stress run dropped no alerts; invariant never exercised")
	}
	t.Logf("%d consistent views, final epoch %d, %d dropped", views, final.Epoch, final.Dropped)
}

// TestHooksObserveHotPath verifies the lifecycle-facing hooks fire for
// matches, scored windows, and alerts during a replay.
func TestHooksObserveHotPath(t *testing.T) {
	ds, det := fixture(t)
	m, err := NewMonitor(det, Config{Step: ds.Step})
	if err != nil {
		t.Fatal(err)
	}
	var matches, windows, alerts atomic.Int64
	m.SetHooks(Hooks{
		OnMatch: func(node string, cluster int, distance float64, matched bool) {
			if node == "" || cluster < 0 || distance < 0 {
				t.Errorf("bad OnMatch(%q, %d, %v, %v)", node, cluster, distance, matched)
			}
			matches.Add(1)
		},
		OnScores: func(node string, cluster int, start int64, scores []float64) {
			if len(scores) == 0 {
				t.Errorf("OnScores(%q, %d) with no scores", node, cluster)
			}
			windows.Add(1)
		},
		OnAlert: func(a Alert) { alerts.Add(1) },
	})
	raised := Replay(ds, m, ds.SplitTime(), ds.Horizon)
	if matches.Load() == 0 || windows.Load() == 0 {
		t.Fatalf("hooks missed the hot path: %d matches, %d windows", matches.Load(), windows.Load())
	}
	if int(alerts.Load()) != len(raised)+int(m.Dropped()) {
		t.Errorf("OnAlert saw %d alerts, monitor raised %d (+%d dropped)",
			alerts.Load(), len(raised), m.Dropped())
	}
}
