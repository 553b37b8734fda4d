package lifecycle

import (
	"context"
	"strings"
	"testing"

	"nodesentry/internal/ingest"
	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
	"nodesentry/internal/telemetry"
	"nodesentry/internal/testutil"
)

// shiftScale multiplies every metric during replay: a sustained shift far
// outside the incumbent's training distribution.
const shiftScale = 4.0

// newManagerUnderTest stands up the full live topology: an incumbent
// monitor fed through a Tee with the manager's sink, exactly as sentryd
// wires it.
func newManagerUnderTest(t *testing.T, reg *obs.Registry, mut func(*Config)) (mon *runtime.Monitor, mgr *Manager, store *Store, sink ingest.Sink, v1 Version) {
	t.Helper()
	ds, det := fixture(t)
	inc, err := det.Clone()
	if err != nil {
		t.Fatal(err)
	}
	store, err = OpenStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	v1, err = store.SaveVersion(inc, "initial")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Activate(v1.ID); err != nil {
		t.Fatal(err)
	}
	mon, err = runtime.NewMonitor(inc, runtime.Config{
		Step: ds.Step, ScoringWorkers: 2, AlertBuffer: 512, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range mon.Alerts() { // deliberately unbuffered consumer
		}
	}()
	t.Cleanup(func() { mon.Close(); <-drained })

	cfg := Config{
		DriftThreshold:   1.6,
		DriftWindow:      128,
		MinDriftSamples:  8,
		MinShadowWindows: 4,
		Step:             ds.Step,
		TrainOptions:     fastOpts(),
		SemanticGroups:   telemetry.SemanticIndex(ds.Catalog),
		ShadowQueue:      1 << 15,
		Metrics:          reg,
	}
	if mut != nil {
		mut(&cfg)
	}
	mgr, err = NewManager(mon, inc, v1.ID, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mon, mgr, store, ingest.Tee(mon, mgr.Sink()), v1
}

// TestLifecyclePromotesOnDrift is the end-to-end loop the subsystem exists
// for: a sustained workload shift drives drift past the threshold, the
// buffer retrains a candidate on the shifted stream, the shadow audition
// passes the gate, and the candidate is hot-swapped in and activated in the
// registry.
func TestLifecyclePromotesOnDrift(t *testing.T) {
	ds, _ := fixture(t)
	reg := obs.NewRegistry()
	mon, mgr, store, sink, v1 := newManagerUnderTest(t, reg, func(c *Config) {
		// A freshly retrained candidate carries a generalization gap on the
		// short buffered corpus, so promotion rides the relative half of the
		// score gate; extra alert slack absorbs the phase's injected faults.
		c.ImprovementFactor = 0.7
		c.AlertSlack = 25
	})

	// 70% of the shifted window feeds the retrain buffer, the rest audits:
	// a shorter corpus leaves the candidate under-trained and (correctly)
	// rejected by the gate.
	mid := ds.SplitTime() + (ds.Horizon-ds.SplitTime())*7/10
	mid -= mid % ds.Step
	feed(sink, ds, ds.SplitTime(), mid, shiftScale)

	drifted, reason := mgr.Drift().Check()
	if !drifted {
		t.Fatalf("a sustained %.0fx shift did not register as drift", shiftScale)
	}
	t.Logf("drift: %s", reason)

	v2, err := mgr.RetrainNow(context.Background(), "drift: "+reason)
	if err != nil {
		t.Fatalf("retrain off the buffer failed: %v", err)
	}

	// The candidate audits the rest of the shifted stream in shadow.
	feed(sink, ds, mid, ds.Horizon, shiftScale)
	dec, decided := mgr.DecideShadow(true)
	if !decided {
		t.Fatal("DecideShadow(force) did not decide")
	}
	if !dec.Promoted {
		t.Fatalf("candidate trained on the shifted stream was rejected: %+v", dec)
	}
	t.Logf("decision: %+v", dec)

	if got := mon.Epoch(); got != 2 {
		t.Fatalf("monitor epoch = %d after one promotion, want 2", got)
	}
	if act, ok := store.Active(); !ok || act.ID != v2.ID {
		t.Fatalf("registry active = %+v, want %s", act, v2.ID)
	}
	for _, rec := range store.Versions() {
		if rec.ID == v1.ID && rec.Status != StatusRetired {
			t.Fatalf("previous incumbent %s status %s, want retired", v1.ID, rec.Status)
		}
	}
	last, ok := mgr.LastDecision()
	if !ok || !last.Promoted || last.Version.ID != v2.ID {
		t.Fatalf("LastDecision = %+v, %v", last, ok)
	}
	if drifted, reason := mgr.Drift().Check(); drifted {
		t.Fatalf("drift not rebaselined after promotion: %s", reason)
	}

	// Every transition is visible on /metrics.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"nodesentry_lifecycle_drift_events_total",
		"nodesentry_lifecycle_drift_score{cluster=",
		"nodesentry_lifecycle_retrains_total{reason=\"drift\"} 1",
		"nodesentry_lifecycle_promotions_total 1",
		"nodesentry_lifecycle_model_version 2",
		"nodesentry_lifecycle_buffer_bytes",
		"nodesentry_detector_swaps_total 1",
		"nodesentry_detector_epoch 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestLifecycleRejectsBadCandidate pins the other half of the gate, once
// through each of its checks: a candidate that scores the shifted stream
// as badly as the incumbent (a clone of it) fails the score band, and a
// clone with a hair-trigger threshold fails the alert ratio on the
// in-distribution stream its score median passes on. Either must be
// rejected, recorded, and the incumbent left serving, unswapped.
func TestLifecycleRejectsBadCandidate(t *testing.T) {
	ds, det := fixture(t)
	for _, tc := range []struct {
		name     string
		from, to int64
		scale    float64
		kSigma   float64 // candidate's threshold multiplier; 0 keeps the clone's
		reason   string
	}{
		{"clone on shifted stream", ds.SplitTime(), ds.Horizon, shiftScale, 0, "score p50"},
		// The training split is where a normalized score's median sits
		// near 1, inside the band.
		{"hair-trigger clone", 0, ds.SplitTime(), 1, 1e-6, "alerts vs incumbent"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mon, mgr, store, sink, v1 := newManagerUnderTest(t, nil, nil)

			mid := (tc.from + tc.to) / 2
			mid -= mid % ds.Step
			feed(sink, ds, tc.from, mid, tc.scale)

			cand, err := det.Clone()
			if err != nil {
				t.Fatal(err)
			}
			cand.SetOnlineParams(0, 0, tc.kSigma)
			v2, err := store.SaveVersion(cand, "bad-candidate")
			if err != nil {
				t.Fatal(err)
			}
			if err := mgr.StartShadow(cand, v2); err != nil {
				t.Fatal(err)
			}
			feed(sink, ds, mid, tc.to, tc.scale)

			dec, decided := mgr.DecideShadow(true)
			if !decided {
				t.Fatal("DecideShadow(force) did not decide")
			}
			if dec.Promoted {
				t.Fatalf("bad candidate passed the gate: %+v", dec)
			}
			if !strings.Contains(dec.Reason, tc.reason) {
				t.Fatalf("rejection reason %q, want the %q check", dec.Reason, tc.reason)
			}
			t.Logf("rejected: %s", dec.Reason)

			if got := mon.Epoch(); got != 1 {
				t.Fatalf("monitor epoch = %d after a rejection, want 1 (no swap)", got)
			}
			if act, ok := store.Active(); !ok || act.ID != v1.ID {
				t.Fatalf("registry active = %+v, want incumbent %s", act, v1.ID)
			}
			for _, rec := range store.Versions() {
				if rec.ID == v2.ID {
					if rec.Status != StatusRejected || rec.Reason == "" {
						t.Fatalf("rejected candidate record = %+v", rec)
					}
				}
			}
			// The incumbent still serves: more traffic flows without incident.
			feed(sink, ds, ds.SplitTime(), ds.SplitTime()+10*ds.Step, 1)
		})
	}
}

// TestActivationFailureRestoresIncumbent pins the promotion path's
// consistency contract: when the hot swap succeeds but the registry refuses
// to activate the candidate, the incumbent must be swapped back so the
// serving model, the drift baseline, and the registry's active version stay
// one lineage — not a live-but-unrecorded candidate that a restart would
// silently revert.
func TestActivationFailureRestoresIncumbent(t *testing.T) {
	ds, _ := fixture(t)
	mon, mgr, store, sink, v1 := newManagerUnderTest(t, nil, func(c *Config) {
		// Same gate tuning as the promotion test: the candidate must pass.
		c.ImprovementFactor = 0.7
		c.AlertSlack = 25
	})

	mid := ds.SplitTime() + (ds.Horizon-ds.SplitTime())*7/10
	mid -= mid % ds.Step
	feed(sink, ds, ds.SplitTime(), mid, shiftScale)
	v2, err := mgr.RetrainNow(context.Background(), "manual")
	if err != nil {
		t.Fatalf("retrain off the buffer failed: %v", err)
	}
	feed(sink, ds, mid, ds.Horizon, shiftScale)

	// Sabotage activation: a quarantined version cannot be activated, so the
	// gate passes and the swap succeeds, but the registry bookkeeping fails.
	if err := store.Quarantine(v2.ID, "sabotaged by test"); err != nil {
		t.Fatal(err)
	}
	dec, decided := mgr.DecideShadow(true)
	if !decided {
		t.Fatal("DecideShadow(force) did not decide")
	}
	if dec.Promoted {
		t.Fatalf("activation failure must reject, not promote: %+v", dec)
	}
	if !strings.Contains(dec.Reason, "promotion failed") {
		t.Fatalf("decision reason %q does not record the failed promotion", dec.Reason)
	}
	if got := mon.Epoch(); got != 3 {
		t.Fatalf("monitor epoch = %d, want 3 (candidate swap + incumbent restore)", got)
	}
	if act, ok := store.Active(); !ok || act.ID != v1.ID {
		t.Fatalf("registry active = %+v, want incumbent %s", act, v1.ID)
	}
	// The restored incumbent still serves: more traffic flows without incident.
	feed(sink, ds, ds.SplitTime(), ds.SplitTime()+10*ds.Step, 1)
}

// TestManagerRunDrainsOnCancel exercises the Run loop's shutdown contract:
// cancellation waits out in-flight retraining and tears down any shadow.
func TestManagerRunDrainsOnCancel(t *testing.T) {
	ds, _ := fixture(t)
	_, mgr, _, sink, _ := newManagerUnderTest(t, nil, nil)
	feed(sink, ds, ds.SplitTime(), ds.SplitTime()+60*ds.Step, 1)

	// Snapshot after the topology is up: everything Run spawns — the loop
	// itself, the retrain worker, any shadow scorer — must be gone once it
	// returns. The monitor's own goroutines predate the snapshot and are
	// torn down by t.Cleanup afterwards.
	leaks := testutil.CheckGoroutines(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		mgr.Run(ctx)
	}()
	mgr.StartRetrain(ctx, "manual")
	cancel()
	<-done
	leaks()
	if sh := mgr.shadow.Load(); sh != nil {
		t.Fatal("Run exited with a live shadow")
	}
}

func TestRetrainNowEmptyBufferErrors(t *testing.T) {
	_, mgr, _, _, _ := newManagerUnderTest(t, nil, nil)
	if _, err := mgr.RetrainNow(context.Background(), "manual"); err == nil {
		t.Fatal("retraining off an empty buffer must error, not train")
	}
}
