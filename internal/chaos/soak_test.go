package chaos_test

import (
	"os"
	"testing"

	"nodesentry/internal/chaos"
	"nodesentry/internal/core"
	"nodesentry/internal/dataset"
	"nodesentry/internal/mts"
	"nodesentry/internal/telemetry"
	"nodesentry/internal/testutil"
)

var (
	fixtureDS  *dataset.Dataset
	fixtureDet *core.Detector
)

// fixture trains one small detector per test binary. Tests snapshot
// goroutines only after it returns, so training-pool teardown never
// reads as a leak.
func fixture(t *testing.T) (*dataset.Dataset, *core.Detector) {
	t.Helper()
	if fixtureDS != nil {
		return fixtureDS, fixtureDet
	}
	ds := dataset.Build(dataset.Tiny())
	in := core.TrainInput{
		Frames:         ds.TrainFrames(),
		Spans:          map[string][]mts.JobSpan{},
		SemanticGroups: telemetry.SemanticIndex(ds.Catalog),
	}
	for _, node := range ds.Nodes() {
		in.Spans[node] = ds.SpansForNode(node, 0, ds.SplitTime())
	}
	det, err := core.Train(in, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	fixtureDS, fixtureDet = ds, det
	return ds, det
}

func fastOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Epochs = 4
	opts.MaxWindowsPerCluster = 60
	return opts
}

// TestSoak runs the full-loop scenario once: every infrastructure fault
// kind through the live daemon, a drift→retrain→shadow→swap cycle, a
// registry-corruption drill, and the /metrics reconciliation — Run
// itself fails on any unaccounted fault, drop, or recall regression.
// The test adds the process-level invariants Run cannot see: no leaked
// goroutines, and a minimum breadth of fault coverage.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("full-loop soak")
	}
	ds, det := fixture(t)
	leaks := testutil.CheckGoroutines(t)
	rep, err := chaos.Run(chaos.Config{
		DS:           ds,
		Det:          det,
		TrainOptions: fastOptions(),
		Summary:      true,
	})
	if err != nil {
		t.Fatalf("soak: %v\nreport: %+v", err, rep)
	}
	leaks()

	if rep.FaultKinds < 6 {
		t.Errorf("only %d fault kinds injected, want >= 6: %v", rep.FaultKinds, rep.Counts)
	}
	for _, kind := range []chaos.FaultKind{
		chaos.AcceptDrop, chaos.ConnDrop,
		chaos.Scrape5xx, chaos.ScrapeDrop, chaos.ScrapeGarble, chaos.ScrapeTruncate,
		chaos.OutOfOrder, chaos.DupTimestamp, chaos.ClockSkew,
		chaos.RegistryCorrupt, chaos.FloodBurst,
	} {
		if rep.Counts[kind] == 0 {
			t.Errorf("fault kind %s was never injected", kind)
		}
	}
	if rep.Alerts == 0 {
		t.Error("soak delivered no alerts")
	}
	if rep.TotalFaults == 0 || rep.MatchedFaults == 0 {
		t.Errorf("recall evidence empty: %d/%d", rep.MatchedFaults, rep.TotalFaults)
	}
	if rep.ForcedSwaps != 2 {
		t.Errorf("forced swaps = %d, want 2", rep.ForcedSwaps)
	}
	if want := int64(1 + rep.ForcedSwaps + rep.Promotions); rep.Epoch != want {
		t.Errorf("final epoch %d, want %d", rep.Epoch, want)
	}
	if len(rep.Decisions) != 1 {
		t.Fatalf("decisions = %d, want 1", len(rep.Decisions))
	}
	if rep.QuarantinedID == "" || rep.RecoveredID == "" || rep.QuarantinedID == rep.RecoveredID {
		t.Errorf("registry drill: quarantined %q, recovered %q", rep.QuarantinedID, rep.RecoveredID)
	}
	// Summarization accounting (Run already reconciled it against the
	// webhook receiver): every raised alert is accounted exactly once,
	// and no incident outlived the run.
	if rep.SummaryObserved != int64(rep.Alerts) {
		t.Errorf("summarizer observed %d alerts, %d were raised", rep.SummaryObserved, rep.Alerts)
	}
	if rep.SummaryFolded+rep.SummaryUnfolded != rep.SummaryObserved {
		t.Errorf("folded %d + raw %d != observed %d",
			rep.SummaryFolded, rep.SummaryUnfolded, rep.SummaryObserved)
	}
	if rep.IncidentsResolved != rep.IncidentsOpened {
		t.Errorf("%d incidents opened but %d resolved", rep.IncidentsOpened, rep.IncidentsResolved)
	}
	t.Logf("soak: %d push lines, %d scrapes, %d alerts (%d folded into %d incidents, %d raw), recall %.2f (%d/%d), epoch %d, faults %v",
		rep.PushLines, rep.ScrapeSweeps, rep.Alerts, rep.SummaryFolded, rep.IncidentsOpened,
		rep.SummaryUnfolded, rep.Recall, rep.MatchedFaults, rep.TotalFaults, rep.Epoch, rep.Counts)
}

// TestSoakLong is the nightly multi-cycle soak: several full lifecycle
// cycles back to back, gated on NODESENTRY_SOAK so CI's regular lane
// stays fast.
func TestSoakLong(t *testing.T) {
	if os.Getenv("NODESENTRY_SOAK") == "" {
		t.Skip("set NODESENTRY_SOAK=1 for the multi-cycle soak")
	}
	ds, det := fixture(t)
	leaks := testutil.CheckGoroutines(t)
	rep, err := chaos.Run(chaos.Config{
		DS:           ds,
		Det:          det,
		TrainOptions: fastOptions(),
		Cycles:       3,
		// The nightly soak runs with multi-window batches: equivalence
		// tests pin every BatchWindows value byte-for-byte, and this keeps
		// the scoring lanes' locking honest under chaos + -race.
		BatchWindows: 4,
	})
	if err != nil {
		t.Fatalf("long soak: %v\nreport: %+v", err, rep)
	}
	leaks()
	if rep.ForcedSwaps != 6 {
		t.Errorf("forced swaps = %d, want 6", rep.ForcedSwaps)
	}
	if len(rep.Decisions) != 3 {
		t.Errorf("decisions = %d, want 3", len(rep.Decisions))
	}
	t.Logf("long soak: %d lines, %d alerts, %d promotions, epoch %d",
		rep.PushLines, rep.Alerts, rep.Promotions, rep.Epoch)
}
