package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"nodesentry/internal/obs"
)

// The bench-regression gate: -check reruns the experiments and compares the
// fresh stage records against the committed BENCH_obs.json baseline. It
// gates what these stages measure well: allocation counts and bytes, which
// are machine-independent. The bound is two-sided, so a big *improvement*
// also fails the gate — that is deliberate: it forces the baseline to be
// regenerated and committed, which is how allocation wins get ratcheted in.
// Wall time is recorded in the baseline but not gated: on training-dominated
// stages it is machine noise (speed is pathbench's job, see bench/).

// checkOpts parameterizes the comparison.
type checkOpts struct {
	// AllocPct is the two-sided allocation drift allowance in percent,
	// applied to both object counts and bytes.
	AllocPct float64
	// MinAllocs skips the allocation comparison for stages whose baseline
	// allocates fewer objects — tiny stages are all noise.
	MinAllocs uint64
}

func defaultCheckOpts(allocPct float64) checkOpts {
	return checkOpts{AllocPct: allocPct, MinAllocs: 10000}
}

// violation is one gate failure, always naming the offending stage.
type violation struct {
	Stage  string
	Reason string
}

func (v violation) String() string { return fmt.Sprintf("%s: %s", v.Stage, v.Reason) }

// compareBench diffs a fresh benchmark run against the committed baseline.
// requireAll demands every baseline stage appears in the fresh run (full
// -exp all runs); partial runs compare only the stages they produced.
func compareBench(base, fresh []obs.StageRecord, o checkOpts, requireAll bool) []violation {
	baseBy := map[string]obs.StageRecord{}
	for _, r := range base {
		baseBy[r.Stage] = r
	}
	freshBy := map[string]obs.StageRecord{}
	for _, r := range fresh {
		freshBy[r.Stage] = r
	}

	var out []violation
	for _, f := range fresh {
		b, ok := baseBy[f.Stage]
		if !ok {
			out = append(out, violation{f.Stage, "not in baseline; regenerate BENCH_obs.json"})
			continue
		}
		if b.Allocs >= o.MinAllocs {
			if v := driftViolation(f.Stage, "allocs", b.Allocs, f.Allocs, o.AllocPct); v != nil {
				out = append(out, *v)
			}
			if v := driftViolation(f.Stage, "bytes", b.Bytes, f.Bytes, o.AllocPct); v != nil {
				out = append(out, *v)
			}
		}
	}
	if requireAll {
		for _, b := range base {
			if _, ok := freshBy[b.Stage]; !ok {
				out = append(out, violation{b.Stage, "present in baseline but missing from this run"})
			}
		}
	}
	return out
}

// driftViolation applies the two-sided allocation bound to one metric.
func driftViolation(stage, metric string, base, fresh uint64, pct float64) *violation {
	if base == 0 {
		return nil
	}
	drift := (float64(fresh) - float64(base)) / float64(base) * 100
	if drift > pct {
		return &violation{stage, fmt.Sprintf("%s regressed %.1f%% (baseline %d, got %d)", metric, drift, base, fresh)}
	}
	if drift < -pct {
		return &violation{stage, fmt.Sprintf(
			"%s improved %.1f%% past the gate (baseline %d, got %d) — regenerate and commit BENCH_obs.json to ratchet the win",
			metric, -drift, base, fresh)}
	}
	return nil
}

// loadBaseline reads a committed stage-record array.
func loadBaseline(path string) ([]obs.StageRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []obs.StageRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// checkAgainst runs the comparison against the baseline file and reports
// the verdict on w. It returns false — the exit-4 path — when the gate
// fails, always naming the offending stages.
func checkAgainst(baselinePath string, fresh []obs.StageRecord, o checkOpts, requireAll bool, w io.Writer) bool {
	// Verdict writes are best-effort: a broken report writer must not mask
	// the boolean verdict, which is what gates the exit code.
	base, err := loadBaseline(baselinePath)
	if err != nil {
		_, _ = fmt.Fprintf(w, "benchtab -check: %v\n", err)
		return false
	}
	viols := compareBench(base, fresh, o, requireAll)
	if len(viols) == 0 {
		_, _ = fmt.Fprintf(w, "benchtab -check: %d stages within bounds (allocs and bytes ±%.0f%%)\n",
			len(fresh), o.AllocPct)
		return true
	}
	_, _ = fmt.Fprintf(w, "benchtab -check: %d violation(s) against %s:\n", len(viols), baselinePath)
	for _, v := range viols {
		_, _ = fmt.Fprintf(w, "  %s\n", v)
	}
	return false
}
