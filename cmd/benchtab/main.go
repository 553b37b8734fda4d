// Command benchtab regenerates the paper's tables and figures on the
// synthetic substrate and prints the same rows/series the paper reports.
//
// Usage:
//
//	benchtab -exp table4              # one experiment at full scale
//	benchtab -exp all -quick         # everything, reduced scale
//	benchtab -exp all -quick -json   # also write stage timings to BENCH_obs.json
//
// Experiments: table2 table3 table4 table5 fig1 fig4 fig6a fig6b fig6c
// fig6d fig6e fig6f fig8 dtw incremental deploy gateway lifecycle chaos
// fleetview coord summary all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"nodesentry/internal/analysis"
	"nodesentry/internal/experiments"
	"nodesentry/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table2..table5, fig1, fig4, fig6a-f, fig8, dtw, incremental, deploy, gateway, lifecycle, chaos, fleetview, coord, summary, all)")
	quick := flag.Bool("quick", false, "run at reduced scale")
	jsonOut := flag.Bool("json", false, "write per-experiment stage timings (wall, allocs, bytes) to BENCH_obs.json")
	check := flag.Bool("check", false, "compare this run's stage records against the committed BENCH_obs.json and exit 4 on drift (implies tracing; does not rewrite the baseline)")
	checkAlloc := flag.Float64("check-alloc-pct", 10, "with -check: allowed two-sided allocation drift in percent (counts and bytes)")
	flag.Parse()

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	w := os.Stdout

	// Each experiment runs under a tracer span; -json persists the records
	// (wall time, allocations, bytes) as the perf trajectory's seed file.
	// The lifecycle experiment additionally adds retrain/swap sub-spans.
	var tracer *obs.Tracer
	if *jsonOut || *check {
		tracer = obs.NewTracer(nil)
	}

	runners := map[string]func() error{
		"table2": func() error { _, err := experiments.Table2(w, scale); return err },
		"table3": func() error { _, err := experiments.Table3(w); return err },
		"table4": func() error { _, err := experiments.Table4(w, scale); return err },
		"table5": func() error { _, err := experiments.Table5(w, scale); return err },
		"fig1":   func() error { _, err := experiments.Fig1(w); return err },
		"fig4":   func() error { _, err := experiments.Fig4(w); return err },
		"fig6a":  func() error { _, err := experiments.Fig6a(w, scale); return err },
		"fig6b":  func() error { _, err := experiments.Fig6b(w, scale); return err },
		"fig6c":  func() error { _, err := experiments.Fig6c(w, scale); return err },
		"fig6d":  func() error { _, err := experiments.Fig6d(w, scale); return err },
		"fig6e":  func() error { _, err := experiments.Fig6e(w, scale); return err },
		"fig6f":  func() error { _, err := experiments.Fig6f(w, scale); return err },
		"fig8":   func() error { _, err := experiments.Fig8(w, scale); return err },
		"dtw":    func() error { _, err := experiments.DTWCost(w, scale); return err },
		"incremental": func() error {
			_, err := experiments.Incremental(w, scale)
			return err
		},
		"deploy":  func() error { _, err := experiments.Deploy(w, scale); return err },
		"gateway": func() error { _, err := experiments.Gateway(w, scale); return err },
		"lifecycle": func() error {
			_, err := experiments.Lifecycle(w, scale, tracer)
			return err
		},
		"gpu": func() error { _, err := experiments.GPUExtension(w, scale); return err },
		"linkage": func() error {
			_, err := experiments.LinkageAblation(w, scale)
			return err
		},
		"domains": func() error { _, err := experiments.FeatureDomainAblation(w, scale); return err },
		"pca": func() error {
			_, err := experiments.PCAAblation(w, scale)
			return err
		},
		"wmse": func() error {
			_, _, err := experiments.WMSEAblation(w, scale)
			return err
		},
		"faultrecall": func() error {
			_, err := experiments.FaultRecall(w, scale)
			return err
		},
		"chaos": func() error {
			_, err := experiments.Chaos(w, scale, tracer)
			return err
		},
		"fleetview": func() error {
			_, err := experiments.FleetView(w, scale, tracer)
			return err
		},
		"coord": func() error {
			_, err := experiments.Coord(w, scale, tracer)
			return err
		},
		"summary": func() error {
			_, err := experiments.Summary(w, scale, tracer)
			return err
		},
		"lint": func() error { return lintBench(w, tracer) },
	}
	order := []string{
		"table2", "table3", "fig1", "fig4", "table4", "table5",
		"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f",
		"fig8", "dtw", "incremental", "deploy", "gateway", "lifecycle",
		"gpu", "linkage", "domains", "pca", "wmse", "faultrecall",
		"chaos", "fleetview", "coord", "summary", "lint",
	}

	run := func(name string) {
		t0 := time.Now()
		fmt.Printf("--- %s ---\n", name)
		sp := tracer.Start(name)
		if err := runners[name](); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", name, err)
			os.Exit(1)
		}
		sp.End()
		fmt.Printf("    (%v)\n\n", time.Since(t0).Round(time.Millisecond))
	}
	// runCheck gates the run against the committed baseline (exit 4 on
	// drift). A partial -exp run compares only its own stages; -exp all
	// also demands no baseline stage went missing.
	runCheck := func() {
		if !*check {
			return
		}
		opts := defaultCheckOpts(*checkAlloc)
		if !checkAgainst("BENCH_obs.json", tracer.Records(), opts, *exp == "all", os.Stdout) {
			os.Exit(4)
		}
	}
	writeJSON := func() {
		// -check never rewrites the baseline it is about to compare against.
		if !*jsonOut || *check {
			return
		}
		f, err := os.Create("BENCH_obs.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: create BENCH_obs.json: %v\n", err)
			os.Exit(1)
		}
		if err := tracer.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: write BENCH_obs.json: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: close BENCH_obs.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("stage timings written to BENCH_obs.json (%d stages)\n", len(tracer.Records()))
	}

	if *exp == "all" {
		for _, name := range order {
			run(name)
		}
		writeJSON()
		runCheck()
		return
	}
	if _, ok := runners[*exp]; !ok {
		fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	run(*exp)
	writeJSON()
	runCheck()
}

// lintBench times the repo's own analyzer over the full module: a cold run
// (fresh loader, no cache) and a warm run against a pre-populated findings
// cache. The lint_cold/lint_warm spans land in BENCH_obs.json so analyzer
// performance is tracked alongside the paper experiments, matching the
// 2.5s cold budget scripts/verify.sh enforces.
func lintBench(w io.Writer, tracer *obs.Tracer) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}

	cold := tracer.Start("lint_cold")
	t0 := time.Now()
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return err
	}
	dirs, err := loader.Expand(root, []string{"./..."})
	if err != nil {
		return err
	}
	pkgs, err := loader.Load(dirs)
	if err != nil {
		return err
	}
	findings := analysis.Run(pkgs, analysis.Checks())
	coldDur := time.Since(t0)
	cold.End()

	cacheDir, err := os.MkdirTemp("", "sentrylint-bench")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(cacheDir) }() // scratch cache; best-effort cleanup
	cachePath := filepath.Join(cacheDir, "cache.json")
	warmup, err := analysis.NewLoader(root)
	if err != nil {
		return err
	}
	if _, _, err := analysis.RunCached(warmup, dirs, analysis.Checks(), cachePath); err != nil {
		return err
	}

	warm := tracer.Start("lint_warm")
	t1 := time.Now()
	cached, err := analysis.NewLoader(root)
	if err != nil {
		return err
	}
	warmFindings, stats, err := analysis.RunCached(cached, dirs, analysis.Checks(), cachePath)
	if err != nil {
		return err
	}
	warmDur := time.Since(t1)
	warm.End()

	_, err = fmt.Fprintf(w, "sentrylint over %d package(s): cold %v (%d finding(s)), warm %v (%d reused, %d analyzed, %d finding(s))\n",
		len(dirs), coldDur.Round(time.Millisecond), len(findings),
		warmDur.Round(time.Millisecond), stats.Hits, stats.Misses, len(warmFindings))
	return err
}
