package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is BENCHMARK.json, as far as pathbench needs it.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("benchmark spec %s: %w", path, err)
	}
	return &s, nil
}

// worse is how much worse b is than a for metric m, as a share of a
// (negative when b is better).
func (m specMetric) worse(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// childRun runs one benchmark run in a fresh process — the same binary,
// the way the driver starts it — and parses the result off the last line
// of its output. Repeating runs in-process would let one run's heap and
// arenas shape the next one's rss_mb and GC behaviour.
func childRun(workload string, seed int64, seconds float64, traced bool, spoolDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tr, "-spool-dir", spoolDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct {
		return &res, fmt.Errorf("%s seed %d: run not correct (%d of %d operations failed)", workload, seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

// series collects one metric's values over runs.
type series map[string][]float64

func (s series) add(r *result) {
	for name, m := range r.Metrics {
		s[name] = append(s[name], m.Value)
	}
}

func (s series) names() []string {
	out := make([]string, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// pickWorkloads resolves the -workload flag for the multi-run modes: one
// name, or every workload when it is empty or "all".
func pickWorkloads(name string) ([]workload, error) {
	if name == "" || name == "all" {
		return workloads(), nil
	}
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return []workload{w}, nil
}

// calibrate runs every chosen workload n times, each with another seed,
// and prints per metric the median, quartiles, full range and the
// quartile spread as a share of the median — the figure a bound must
// clear three times over.
func calibrate(spec *benchSpec, ws []workload, n int, traced bool, spoolDir string) error {
	if n < 10 {
		return fmt.Errorf("calibrate: need at least 10 runs, asked for %d", n)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, w := range ws {
		s := series{}
		for seed := int64(1); seed <= int64(n); seed++ {
			res, err := childRun(w.name, seed, float64(spec.RunSeconds), traced, spoolDir)
			if err != nil {
				return err
			}
			s.add(res)
			fmt.Fprintf(os.Stderr, "calibrate: %s seed %d done\n", w.name, seed)
		}
		fmt.Printf("\n%s — %d runs, seeds 1..%d\n\n", w.name, n, n)
		fmt.Printf("| metric | median | q1 | q3 | min | max | spread | bound |\n|---|---|---|---|---|---|---|---|\n")
		for _, name := range s.names() {
			v := s[name]
			q1, q3, err := quartiles(v)
			if err != nil {
				return err
			}
			spread, err := spreadShare(v)
			if err != nil {
				return fmt.Errorf("%s %s: %w", w.name, name, err)
			}
			bound := "—"
			if b, ok := bounds[name]; ok {
				bound = fmt.Sprintf("%.1f %%", 100*b)
			}
			fmt.Printf("| %s | %.5g | %.5g | %.5g | %.5g | %.5g | %.2f %% | %s |\n",
				name, median(v), q1, q3, quantile(v, 0), quantile(v, 1), 100*spread, bound)
		}
	}
	return nil
}

// agree runs two interleaved sets of n runs of the same code (A, B, A, B
// … with the same seeds in both) and reports every workload × end-to-end
// metric whose set medians differ by more than the metric's bound.
func agree(spec *benchSpec, ws []workload, n int, spoolDir string) error {
	if n < 5 {
		return fmt.Errorf("agree: need at least 5 runs per set, asked for %d", n)
	}
	var disagreements []string
	for _, w := range ws {
		a, b := series{}, series{}
		for seed := int64(1); seed <= int64(n); seed++ {
			for _, set := range []series{a, b} {
				res, err := childRun(w.name, seed, float64(spec.RunSeconds), false, spoolDir)
				if err != nil {
					return err
				}
				set.add(res)
			}
			fmt.Fprintf(os.Stderr, "agree: %s seed %d done\n", w.name, seed)
		}
		fmt.Printf("\n%s — two sets of %d runs\n\n| metric | median A | median B | B worse by | bound |\n|---|---|---|---|---|\n", w.name, n)
		for _, m := range spec.EndToEnd {
			ma, mb := median(a[m.Name]), median(b[m.Name])
			d := m.worse(ma, mb)
			if back := m.worse(mb, ma); back > d {
				d = back // either order: the sets ran the same code
			}
			fmt.Printf("| %s | %.5g | %.5g | %.2f %% | %.1f %% |\n", m.Name, ma, mb, 100*d, 100*m.Bound)
			if d > m.Bound {
				disagreements = append(disagreements, fmt.Sprintf("%s/%s: medians %.5g vs %.5g differ by %.2f %% > bound %.1f %%",
					w.name, m.Name, ma, mb, 100*d, 100*m.Bound))
			}
		}
	}
	if len(disagreements) > 0 {
		return fmt.Errorf("agree: %d metric(s) outside their bound:\n  %s", len(disagreements), strings.Join(disagreements, "\n  "))
	}
	fmt.Println("\nagree: every set median within its bound")
	return nil
}
