// Command pathbench is the repository's benchmark: it stands up the real
// scoring path (daemon.New on a loopback listener), drives it over HTTP
// with a deterministic trace, and reports end-to-end metrics — or, with
// -trace 1, per-layer ones. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// options are the command line.
type options struct {
	workload     string
	seed         int64
	seconds      float64
	traced       int
	spoolDir     string
	spans        string
	specPath     string
	nCal, nAgree int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: steady_jsonl, wide_exposition or churn_alerts (-calibrate/-agree: empty or all = every workload)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated trace")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured phases in seconds (default: run_seconds of the benchmark spec)")
	flag.IntVar(&o.traced, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.spoolDir, "spool-dir", ".bench_build", "directory for the run's scratch files")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: span file to write (default <spool-dir>/pathbench-spans.jsonl)")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "benchmark spec: metric names, bounds and run length")
	flag.IntVar(&o.nCal, "calibrate", 0, "run each workload N (>= 10) times with seeds 1..N and print every metric's median, quartiles and range")
	flag.IntVar(&o.nAgree, "agree", 0, "run two interleaved sets of N (>= 5) runs per workload; exit non-zero when set medians differ by more than a bound")
	flag.Parse()

	if err := dispatch(o); err != nil {
		fmt.Fprintf(os.Stderr, "pathbench: %v\n", err)
		os.Exit(1)
	}
}

func dispatch(o options) error {
	multi := o.nCal > 0 || o.nAgree > 0
	if multi || o.seconds <= 0 {
		spec, err := loadBenchSpec(o.specPath)
		if err != nil {
			return err
		}
		if o.seconds <= 0 {
			o.seconds = float64(spec.RunSeconds)
		}
		if multi {
			ws, err := pickWorkloads(o.workload)
			if err != nil {
				return err
			}
			spec.RunSeconds = int(o.seconds)
			if o.nCal > 0 {
				return calibrate(spec, ws, o.nCal, o.traced != 0, o.spoolDir)
			}
			return agree(spec, ws, o.nAgree, o.spoolDir)
		}
	}

	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	cfg := runConfig{w: w, seed: o.seed, seconds: o.seconds, traced: o.traced != 0, spoolDir: o.spoolDir, spansPath: o.spans}
	if cfg.traced && cfg.spansPath == "" {
		cfg.spansPath = o.spoolDir + "/pathbench-spans.jsonl"
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	return report(res)
}

// report prints a run: the notes, every metric by name with its unit, and
// — as the last line of standard output — the result object.
func report(res *result) error {
	for _, n := range res.notes {
		fmt.Println("# " + n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}
