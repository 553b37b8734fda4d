package runtime

import (
	"testing"

	"nodesentry/internal/core"
	"nodesentry/internal/dataset"
	"nodesentry/internal/mts"
	"nodesentry/internal/telemetry"
)

var (
	fixtureDS  *dataset.Dataset
	fixtureDet *core.Detector
)

// trainInputOf mirrors the public TrainInputFromDataset helper without
// importing the root package (which imports this one).
func trainInputOf(ds *dataset.Dataset) core.TrainInput {
	in := core.TrainInput{
		Frames:         ds.TrainFrames(),
		Spans:          map[string][]mts.JobSpan{},
		SemanticGroups: map[string][]int{},
	}
	for sem, rows := range telemetry.SemanticIndex(ds.Catalog) {
		in.SemanticGroups[sem] = rows
	}
	for _, node := range ds.Nodes() {
		in.Spans[node] = ds.SpansForNode(node, 0, ds.SplitTime())
	}
	return in
}

func fixture(t *testing.T) (*dataset.Dataset, *core.Detector) {
	t.Helper()
	if fixtureDS != nil {
		return fixtureDS, fixtureDet
	}
	ds := dataset.Build(dataset.Tiny())
	opts := core.DefaultOptions()
	opts.Epochs = 4
	opts.MaxWindowsPerCluster = 60
	det, err := core.Train(trainInputOf(ds), opts)
	if err != nil {
		t.Fatal(err)
	}
	fixtureDS, fixtureDet = ds, det
	return ds, det
}

func TestMonitorReplayRaisesAlerts(t *testing.T) {
	ds, det := fixture(t)
	m, err := NewMonitor(det, Config{Step: ds.Step, ScoringWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	alerts := Replay(ds, m, ds.SplitTime(), ds.Horizon)
	if len(alerts) == 0 {
		t.Fatal("no alerts on a fault-injected test window")
	}
	// Alerts are time-ordered, carry diagnoses, and stay in the window.
	for i, a := range alerts {
		if i > 0 && a.Time < alerts[i-1].Time {
			t.Fatal("alerts not time-ordered")
		}
		if a.Time < ds.SplitTime() || a.Time >= ds.Horizon {
			t.Errorf("alert at %d escapes the replayed window", a.Time)
		}
		if a.Diagnosis.Level == "" || a.Diagnosis.Remediation == "" {
			t.Error("alert missing diagnosis")
		}
		if len(a.Diagnosis.Findings) == 0 {
			t.Error("alert has no findings")
		}
	}
	// At least one alert lands inside a labeled fault interval.
	hits := 0
	for _, a := range alerts {
		for _, iv := range ds.Labels[a.Node] {
			if iv.Contains(a.Time) {
				hits++
				break
			}
		}
	}
	if hits == 0 {
		t.Error("no alert coincides with an injected fault")
	}
	t.Logf("replay raised %d alerts, %d inside fault windows, %d dropped", len(alerts), hits, m.Dropped())
}

func TestMonitorCooldown(t *testing.T) {
	ds, det := fixture(t)
	m, err := NewMonitor(det, Config{Step: ds.Step, CooldownSec: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	alerts := Replay(ds, m, ds.SplitTime(), ds.Horizon)
	perNode := map[string]int{}
	for _, a := range alerts {
		perNode[a.Node]++
	}
	for node, n := range perNode {
		if n > 1 {
			t.Errorf("node %s raised %d alerts under an infinite cooldown", node, n)
		}
	}
}

func TestMonitorUnregisteredNodeIgnored(t *testing.T) {
	ds, det := fixture(t)
	m, err := NewMonitor(det, Config{Step: ds.Step})
	if err != nil {
		t.Fatal(err)
	}
	// Ingesting without registration must not panic or alert.
	m.Ingest("ghost", 1000, []float64{1, 2, 3})
	select {
	case a := <-m.Alerts():
		t.Fatalf("unexpected alert %+v", a)
	default:
	}
}

func TestMonitorJobTransitionResetsPattern(t *testing.T) {
	ds, det := fixture(t)
	m, err := NewMonitor(det, Config{Step: ds.Step})
	if err != nil {
		t.Fatal(err)
	}
	node := ds.Nodes()[0]
	frame := ds.Frames[node]
	m.RegisterNode(node, frame.Metrics)
	m.ObserveJob(node, 42, 0)
	st := m.state(node)
	if st.job != 42 || st.matched {
		t.Fatal("transition state wrong")
	}
	// Feed a few samples, then transition again: probe must reset.
	for i := 0; i < 3; i++ {
		m.Ingest(node, frame.TimeAt(i), frame.Window(i))
	}
	m.ObserveJob(node, 43, frame.TimeAt(3))
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ring.n != 0 || st.matched || st.job != 43 {
		t.Errorf("probe not reset on transition: %d samples, matched=%v", st.ring.n, st.matched)
	}
}

func TestWindowFill(t *testing.T) {
	var w window
	w.fill("n", []string{"a", "b"}, []float64{1, 10, 2, 20, 3, 30}, 3, 500, 60)
	f := &w.f
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.Data[0][2] != 3 || f.Data[1][0] != 10 || f.TimeAt(1) != 560 {
		t.Errorf("fill wrong: %+v", f)
	}
	// A second call reuses the slot's matrix (no growth for <= shape) and
	// overwrites the previous contents in place.
	backing := &w.mat.Data[0]
	w.fill("n", []string{"a", "b"}, []float64{7, 70, 8, 80}, 2, 900, 60)
	if &w.mat.Data[0] != backing {
		t.Error("fill reallocated the slot for a smaller frame")
	}
	if f.Len() != 2 || f.Data[0][1] != 8 || f.Data[1][0] != 70 || f.Start != 900 {
		t.Errorf("fill reuse wrong: %+v", f)
	}
}

// TestNewMonitorRejectsBadConfig: a zero Step used to be accepted and the
// first Ingest died dividing by it.
func TestNewMonitorRejectsBadConfig(t *testing.T) {
	ds, det := fixture(t)
	for _, tc := range []struct {
		name string
		det  *core.Detector
		cfg  Config
		ok   bool
	}{
		{"zero config", det, Config{}, false},
		{"negative step", det, Config{Step: -60}, false},
		{"nil detector", nil, Config{Step: ds.Step}, false},
		{"step only", det, Config{Step: ds.Step}, true},
	} {
		m, err := NewMonitor(tc.det, tc.cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if (m != nil) != tc.ok {
			t.Errorf("%s: monitor = %v, want non-nil=%v", tc.name, m, tc.ok)
		}
	}
}

func TestExceedFactor(t *testing.T) {
	scores := []float64{1, 1, 1, 1, 5}
	if got := exceedFactor(scores, 4, 4); got != 5 {
		t.Errorf("exceedFactor = %v, want 5", got)
	}
	if got := exceedFactor(scores, 0, 4); got != 1 {
		t.Errorf("head exceedFactor = %v, want 1", got)
	}
}

func TestSortAlerts(t *testing.T) {
	alerts := []Alert{{Node: "b", Time: 5}, {Node: "a", Time: 5}, {Node: "z", Time: 1}}
	sortAlerts(alerts)
	if alerts[0].Node != "z" || alerts[1].Node != "a" || alerts[2].Node != "b" {
		t.Errorf("sort order wrong: %+v", alerts)
	}
}

func TestMonitorParallelIngest(t *testing.T) {
	// Concurrent collectors on different nodes must be safe (run with
	// -race in CI).
	ds, det := fixture(t)
	m, err := NewMonitor(det, Config{Step: ds.Step, ScoringWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range m.Alerts() {
		}
	}()
	done := make(chan struct{})
	for _, node := range ds.Nodes() {
		node := node
		go func() {
			defer func() { done <- struct{}{} }()
			f := ds.Frames[node]
			m.RegisterNode(node, f.Metrics)
			m.ObserveJob(node, 1, f.Start)
			for i := 0; i < 300 && i < f.Len(); i++ {
				m.Ingest(node, f.TimeAt(i), f.Window(i))
			}
		}()
	}
	for range ds.Nodes() {
		<-done
	}
	m.Close()
}
