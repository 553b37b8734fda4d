// Livemonitor demonstrates the deployment workflow of the paper's §5.1
// (Fig. 7): a trained detector behind a streaming monitor, telemetry
// replayed sample by sample in timestamp order across the fleet, job
// transitions arriving from the scheduler, and prioritized alerts with
// fault-level diagnoses coming out the other end — the loop a production
// operator would watch.
//
// With -serve-fleet it instead plays the fleet itself: the tiny
// dataset's test split is served as a Prometheus /metrics endpoint (one
// timestep per scrape, every node in one body), so cmd/sentryd in
// scrape mode has something real to poll:
//
//	go run ./examples/livemonitor -serve-fleet :9101
//	go run ./cmd/sentryd -data ./data/tiny -train \
//	    -scrape-targets http://localhost:9101/metrics -scrape-interval 2s
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"nodesentry"
	"nodesentry/internal/telemetry"
)

func main() {
	serveFleet := flag.String("serve-fleet", "",
		"serve the test split as a /metrics endpoint on this address instead of running the replay demo")
	flag.Parse()

	ds := nodesentry.BuildDataset(nodesentry.TinyDataset())
	fmt.Println("dataset:", ds.Summarize())

	if *serveFleet != "" {
		serveFleetTelemetry(*serveFleet, ds)
		return
	}

	// The observability loop: training stages trace into the registry, the
	// monitor records its hot-path series there, and an operator (or a
	// Prometheus collector) scrapes it all back out as /metrics.
	reg := nodesentry.NewMetricsRegistry()
	tracer := nodesentry.NewStageTracer(reg)

	in := nodesentry.TrainInputFromDataset(ds)
	in.Trace = tracer
	det, err := nodesentry.Train(in, nodesentry.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detector ready: %d clusters\n", det.NumClusters())
	for _, rec := range tracer.Records() {
		fmt.Printf("  stage %-12s %8v  %6d items  %.1f MB allocated\n",
			rec.Stage, rec.Wall().Round(time.Millisecond), rec.Items, float64(rec.Bytes)/1e6)
	}

	mon, err := nodesentry.NewMonitor(det, nodesentry.MonitorConfig{
		Step:           ds.Step,
		ScoringWorkers: 3,
		CooldownSec:    600,
		Metrics:        reg,
	})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	alerts := nodesentry.ReplayDataset(ds, mon, ds.SplitTime(), ds.Horizon)
	var samples int
	for _, f := range ds.TestFrames() {
		samples += f.Len()
	}
	fmt.Printf("replayed %d samples across %d nodes in %v (%v/sample)\n",
		samples, len(ds.Frames), time.Since(start).Round(time.Millisecond),
		(time.Since(start) / time.Duration(samples)).Round(time.Microsecond))

	fmt.Printf("\n%d alerts raised (%d dropped):\n", len(alerts), mon.Dropped())
	for _, a := range alerts {
		prio := "warning "
		if a.Priority == nodesentry.Critical {
			prio = "CRITICAL"
		}
		fmt.Printf("[%s] t=%-7d %s job=%-4d score=%6.1f -> %s-level fault\n",
			prio, a.Time, a.Node, a.Job, a.Score, a.Diagnosis.Level)
		if len(a.Diagnosis.Findings) > 0 {
			top := a.Diagnosis.Findings[0]
			fmt.Printf("           top metric: %s (dev %.2f, %s)\n", top.Metric, top.Deviation, top.Category)
		}
	}

	// How many alerts landed inside injected fault windows?
	hits := 0
	for _, a := range alerts {
		for _, iv := range ds.Labels[a.Node] {
			if iv.Contains(a.Time) {
				hits++
				break
			}
		}
	}
	fmt.Printf("\n%d/%d alerts fall inside injected fault windows\n", hits, len(alerts))

	// What a Prometheus scrape of this process would have collected.
	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nself-scrape (/metrics excerpt):")
	for _, line := range strings.Split(scrape.String(), "\n") {
		if strings.HasPrefix(line, "nodesentry_alerts_") ||
			strings.HasPrefix(line, "nodesentry_ingest_") ||
			strings.HasPrefix(line, "nodesentry_score_latency_seconds_sum") ||
			strings.HasPrefix(line, "nodesentry_score_latency_seconds_count") {
			fmt.Println("  " + line)
		}
	}
}

// serveFleetTelemetry plays the compute fleet: every GET /metrics
// returns one timestep of the test split for all nodes as a single
// node-labelled exposition body, then advances, wrapping at the end of
// the split. One sentryd scrape sweep therefore ingests one fleet-wide
// sample, exactly as a federation scrape of per-node exporters would.
func serveFleetTelemetry(addr string, ds *nodesentry.Dataset) {
	test := ds.TestFrames()
	nodes := ds.Nodes()
	maxLen := 0
	for _, f := range test {
		if f.Len() > maxLen {
			maxLen = f.Len()
		}
	}
	var mu sync.Mutex
	step := 0
	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		t := step
		step = (step + 1) % maxLen
		mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		for _, node := range nodes {
			if f := test[node]; t < f.Len() {
				if _, err := fmt.Fprint(w, telemetry.FormatScrape(f, t)); err != nil {
					return
				}
			}
		}
	})
	fmt.Printf("serving %d nodes × %d test samples at http://localhost%s/metrics (one timestep per scrape)\n",
		len(nodes), maxLen, addr)
	log.Fatal(http.ListenAndServe(addr, nil))
}
