package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nodesentry/internal/obs"
)

func rec(stage string, wall time.Duration, allocs, bytes uint64) obs.StageRecord {
	return obs.StageRecord{Stage: stage, WallNanos: int64(wall), Allocs: allocs, Bytes: bytes}
}

func baseFixture() []obs.StageRecord {
	return []obs.StageRecord{
		rec("table5", 10*time.Second, 1_000_000, 2_000_000_000),
		rec("pca", 8*time.Second, 800_000, 1_500_000_000),
		rec("table3", 80*time.Microsecond, 185, 22_992), // below the allocation noise floor
	}
}

func opts() checkOpts { return defaultCheckOpts(10) }

func stagesOf(viols []violation) string {
	var b strings.Builder
	for _, v := range viols {
		b.WriteString(v.String())
		b.WriteString("\n")
	}
	return b.String()
}

func TestCheckCleanRunPasses(t *testing.T) {
	base := baseFixture()
	fresh := []obs.StageRecord{
		rec("table5", 13*time.Second, 1_050_000, 2_100_000_000), // +5% allocs: within bounds; wall is not gated
		rec("pca", 7*time.Second, 790_000, 1_400_000_000),
		rec("table3", 200*time.Microsecond, 500, 60_000), // huge relative drift, under the noise floor
	}
	if viols := compareBench(base, fresh, opts(), true); len(viols) != 0 {
		t.Fatalf("clean run flagged: %s", stagesOf(viols))
	}
}

func TestCheckAllocDriftIsTwoSided(t *testing.T) {
	base := baseFixture()
	// pca regresses allocs by 25%; table5 improves bytes by 80% — both must
	// fail so improvements force a baseline regeneration.
	fresh := []obs.StageRecord{
		rec("table5", 10*time.Second, 1_000_000, 400_000_000),
		rec("pca", 8*time.Second, 1_000_000, 1_500_000_000),
		rec("table3", 80*time.Microsecond, 185, 22_992),
	}
	viols := compareBench(base, fresh, opts(), true)
	if len(viols) != 2 {
		t.Fatalf("want 2 violations, got %d: %s", len(viols), stagesOf(viols))
	}
	byStage := map[string]string{}
	for _, v := range viols {
		byStage[v.Stage] = v.Reason
	}
	if !strings.Contains(byStage["pca"], "allocs regressed") {
		t.Errorf("pca violation wrong: %q", byStage["pca"])
	}
	if !strings.Contains(byStage["table5"], "improved") || !strings.Contains(byStage["table5"], "regenerate") {
		t.Errorf("table5 improvement must demand a baseline regen: %q", byStage["table5"])
	}
}

func TestCheckMissingAndUnknownStages(t *testing.T) {
	base := baseFixture()
	fresh := []obs.StageRecord{
		rec("table5", 10*time.Second, 1_000_000, 2_000_000_000),
		rec("table3", 80*time.Microsecond, 185, 22_992),
		rec("brandnew", time.Second, 1, 1),
	}
	viols := compareBench(base, fresh, opts(), true)
	if len(viols) != 2 {
		t.Fatalf("want 2 violations, got %d: %s", len(viols), stagesOf(viols))
	}
	seen := map[string]bool{}
	for _, v := range viols {
		seen[v.Stage] = true
	}
	if !seen["pca"] || !seen["brandnew"] {
		t.Fatalf("missing/unknown stages not both named: %s", stagesOf(viols))
	}
	// A partial run (-exp pca) must not be punished for the stages it
	// skipped, only for stages the baseline has never seen.
	partial := []obs.StageRecord{rec("pca", 8*time.Second, 800_000, 1_500_000_000)}
	if viols := compareBench(base, partial, opts(), false); len(viols) != 0 {
		t.Fatalf("partial run flagged: %s", stagesOf(viols))
	}
}

// TestCheckAgainstFixtureFile drives the same path main's -check uses: a
// committed baseline on disk, a fresh run with an injected regression, and
// the exit-4 verdict naming the stage.
func TestCheckAgainstFixtureFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_obs.json")
	data, err := json.Marshal(baseFixture())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	good := []obs.StageRecord{
		rec("table5", 10*time.Second, 1_000_000, 2_000_000_000),
		rec("pca", 8*time.Second, 800_000, 1_500_000_000),
		rec("table3", 80*time.Microsecond, 185, 22_992),
	}
	if !checkAgainst(path, good, opts(), true, &out) {
		t.Fatalf("identical run failed the gate: %s", out.String())
	}

	out.Reset()
	bad := []obs.StageRecord{
		rec("table5", 10*time.Second, 5_000_000, 2_000_000_000), // 5x allocs
		rec("pca", 8*time.Second, 800_000, 1_500_000_000),
		rec("table3", 80*time.Microsecond, 185, 22_992),
	}
	if checkAgainst(path, bad, opts(), true, &out) {
		t.Fatal("regressed run passed the gate")
	}
	if !strings.Contains(out.String(), "table5") || !strings.Contains(out.String(), "allocs regressed") {
		t.Fatalf("gate output does not name the offending stage: %s", out.String())
	}

	out.Reset()
	if checkAgainst(filepath.Join(dir, "nope.json"), good, opts(), true, &out) {
		t.Fatal("missing baseline passed the gate")
	}
}
