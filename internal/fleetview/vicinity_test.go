package fleetview

import (
	"bytes"
	"encoding/json"
	"testing"

	"nodesentry/internal/eval"
	"nodesentry/internal/runtime"
)

// TestVicinityPeerDivergence is the tier's reason to exist: a synthetic
// peer-divergence fault — one node running hotter than the peers executing
// the same job, but steadily enough that its own k-sigma threshold never
// trips — must be caught by the vicinity residual. The drill replays one
// clean source frame to a six-node cohort under a shared job ID, scales
// the victim's telemetry by a constant factor (anomalous vs peers, flat vs
// its own history), and pins the entity-level recall floor at 1.
func TestVicinityPeerDivergence(t *testing.T) {
	ds, det := fixture(t)
	const samples = 180
	src := ds.Nodes()[0]
	from, to, ok := cleanWindow(ds, src, samples)
	if !ok {
		t.Fatalf("no fault-free %d-sample window for %s in the test split", samples, src)
	}

	mon, err := runtime.NewMonitor(det, runtime.Config{Step: ds.Step, AlertBuffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	a := New(mon, Config{VicinityThreshold: 3.5})
	defer a.Close()

	cohort := []string{"sim-0", "sim-1", "sim-2", "sim-3", "sim-4", "sim-odd"}
	const victim = "sim-odd"
	feedCohort(mon, ds, src, from, to, cohort, 7001, func(node string) float64 {
		if node == victim {
			return 1.3
		}
		return 1
	})
	mon.Close()

	// The victim's per-node dynamic threshold must stay silent: its score
	// history is uniformly elevated, so k-sigma over its own past sees
	// nothing. This is precisely the divergence class per-node models miss.
	for al := range mon.Alerts() {
		if al.Node == victim {
			t.Fatalf("per-node threshold fired for the victim (score %.4f at %d): the drill's premise requires a fault only peers can see",
				al.Score, al.Time)
		}
	}

	// Sustained divergence: the first evaluation records the elevated
	// residual in the ring but must not fire — one sample over the
	// threshold is a blip, not a diverging node (sustainK is 2).
	if first := a.Evaluate(); len(first) != 0 {
		t.Fatalf("first evaluation fired %d alerts before the divergence was sustained", len(first))
	}
	alerts := a.Evaluate()
	var flagged []string
	for _, al := range alerts {
		flagged = append(flagged, al.Node)
		if al.Job != 7001 {
			t.Errorf("alert for %s attributes job %d, want 7001", al.Node, al.Job)
		}
		if al.Peers != len(cohort) {
			t.Errorf("alert for %s saw %d peers, want %d", al.Node, al.Peers, len(cohort))
		}
		if al.Residual < 3.5 {
			t.Errorf("alert for %s carries residual %.2f below the threshold", al.Node, al.Residual)
		}
	}

	// Entity-level floor: recall 1 (the victim is flagged) and precision 1
	// (no clean peer is accused).
	recall, precision := eval.EntityConfusion([]string{victim}, flagged)
	if recall < 1 {
		t.Fatalf("vicinity recall %.2f < 1.0: victim not flagged (alerts %v)", recall, flagged)
	}
	if precision < 1 {
		t.Fatalf("vicinity precision %.2f < 1.0: clean peers accused (alerts %v)", precision, flagged)
	}

	// The alert reached every surface: journal, and metrics-free residual
	// state exposed via /fleet/state's NodeState.
	tot := a.Journal().Totals()
	if tot[EventVicinity] != uint64(len(alerts)) {
		t.Fatalf("journal holds %d vicinity events, want %d", tot[EventVicinity], len(alerts))
	}
	st := a.State(0)
	foundVictim := false
	for _, ns := range st.Nodes {
		if ns.Node != victim {
			continue
		}
		foundVictim = true
		if ns.VicScore < 3.5 && ns.VicDist < 3.5 {
			t.Errorf("victim NodeState residuals (%.2f, %.2f) below threshold", ns.VicScore, ns.VicDist)
		}
	}
	if !foundVictim {
		t.Fatal("victim missing from /fleet/state")
	}

	// Cooldown: an immediate re-evaluation recomputes residuals but fires
	// no duplicate alerts.
	if a2 := a.Evaluate(); len(a2) != 0 {
		t.Fatalf("re-evaluation inside cooldown fired %d alerts", len(a2))
	}
}

// TestSustainedCounts pins the k-of-n window arithmetic on the residual
// ring: only the last n evaluations count, and both signals are read
// independently.
func TestSustainedCounts(t *testing.T) {
	h := &nodeHist{resRing: make([]ResidualPoint, 8)}
	for _, z := range []float64{5, 0, 5, 5} {
		h.pushResidual(ResidualPoint{Score: z, Dist: z / 2})
	}
	if got := h.sustained(4, 3.5, false); got != 3 {
		t.Fatalf("sustained(4) = %d, want 3", got)
	}
	if got := h.sustained(2, 3.5, false); got != 2 {
		t.Fatalf("sustained(2) = %d, want 2 (only the newest two)", got)
	}
	if got := h.sustained(16, 3.5, false); got != 3 {
		t.Fatalf("sustained beyond fill = %d, want 3", got)
	}
	if got := h.sustained(4, 2.0, true); got != 3 {
		t.Fatalf("sustained dist = %d, want 3", got)
	}
}

// TestEvaluateNeedsMinPeers: groups below minPeers produce no residuals
// and no alerts — two nodes cannot accuse each other.
func TestEvaluateNeedsMinPeers(t *testing.T) {
	ds, det := fixture(t)
	const samples = 120
	src := ds.Nodes()[0]
	from, to, ok := cleanWindow(ds, src, samples)
	if !ok {
		t.Fatalf("no clean window for %s", src)
	}
	mon, err := runtime.NewMonitor(det, runtime.Config{Step: ds.Step, AlertBuffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	a := New(mon, Config{VicinityThreshold: 3.5})
	defer a.Close()

	feedCohort(mon, ds, src, from, to, []string{"duo-0", "duo-1"}, 42, func(node string) float64 {
		if node == "duo-1" {
			return 2 // wildly divergent, but unaccusable with one peer
		}
		return 1
	})
	mon.Close()
	for range mon.Alerts() {
	}

	if alerts := a.Evaluate(); len(alerts) != 0 {
		t.Fatalf("two-node group fired %d vicinity alerts", len(alerts))
	}
}

// TestAlertsByteIdenticalWithFleetview pins the tier's observer contract:
// running the same replay through a monitor with the fleetview tap
// attached (and Evaluate churning) yields byte-identical alert output to a
// bare monitor. The tap observes; it never feeds back.
func TestAlertsByteIdenticalWithFleetview(t *testing.T) {
	ds, det := fixture(t)
	from, to := ds.SplitTime(), ds.Horizon

	run := func(withFleet bool) []byte {
		mon, err := runtime.NewMonitor(det, runtime.Config{Step: ds.Step, AlertBuffer: 8192})
		if err != nil {
			t.Fatal(err)
		}
		if withFleet {
			a := New(mon, Config{VicinityThreshold: 3.5})
			defer a.Close()
			done := make(chan struct{})
			stop := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
						a.Evaluate()
					}
				}
			}()
			defer func() { close(stop); <-done }()
		}
		feed(mon, ds, from, to, 1.35)
		mon.Close()
		var alerts []runtime.Alert
		for al := range mon.Alerts() {
			alerts = append(alerts, al)
		}
		if len(alerts) == 0 {
			t.Fatal("replay produced no alerts; the identity check would be vacuous")
		}
		b, err := json.Marshal(alerts)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	bare := run(false)
	tapped := run(true)
	if !bytes.Equal(bare, tapped) {
		t.Fatalf("alert streams diverge with fleetview attached:\nbare:   %.200s\ntapped: %.200s", bare, tapped)
	}
}

// TestResidualHistoryRing: every Evaluate pass appends one ResidualPoint
// per evaluable node, the ring is bounded by residualHistory, and
// /fleet/nodes/{id} serves it — the sustained-divergence trace.
func TestResidualHistoryRing(t *testing.T) {
	ds, det := fixture(t)
	const samples = 120
	src := ds.Nodes()[0]
	from, to, ok := cleanWindow(ds, src, samples)
	if !ok {
		t.Fatalf("no fault-free %d-sample window for %s", samples, src)
	}
	mon, err := runtime.NewMonitor(det, runtime.Config{Step: ds.Step, AlertBuffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	a := New(mon, Config{})
	defer a.Close()

	cohort := []string{"sim-0", "sim-1", "sim-2", "sim-3"}
	feedCohort(mon, ds, src, from, to, cohort, 7001, func(string) float64 { return 1 })

	const evals = residualHistory + 3
	for i := 0; i < evals; i++ {
		a.Evaluate()
	}
	d, ok := a.nodeDetail("sim-0")
	if !ok {
		t.Fatal("sim-0 missing from node detail")
	}
	// Three evaluations more than the ring holds: exactly the ring retained.
	if len(d.Residuals) != residualHistory {
		t.Fatalf("retained %d residual points, want %d (ring bound)", len(d.Residuals), residualHistory)
	}
	for i, p := range d.Residuals {
		if p.Peers != len(cohort) {
			t.Errorf("residual[%d].Peers = %d, want %d", i, p.Peers, len(cohort))
		}
		if i > 0 && p.Ts < d.Residuals[i-1].Ts {
			t.Errorf("residual history out of order at %d: %d < %d", i, p.Ts, d.Residuals[i-1].Ts)
		}
	}
}
