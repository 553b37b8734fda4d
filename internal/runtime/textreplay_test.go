package runtime

import (
	"testing"

	"nodesentry/internal/ingest"
	"nodesentry/internal/slurmsim"
	"nodesentry/internal/telemetry"
)

// TestTextFormatsEndToEnd drives the monitor through the deployment's real
// interchange formats (Fig. 7): job transitions arrive as sacct text and
// samples arrive as Prometheus exposition bodies through ingest.Decoder,
// the text path the daemon itself runs — exactly what a production
// collector would hand us.
func TestTextFormatsEndToEnd(t *testing.T) {
	ds, det := fixture(t)
	m, err := NewMonitor(det, Config{Step: ds.Step, ScoringWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip the accounting table through sacct text.
	recs, err := slurmsim.ParseSacct(slurmsim.FormatSacct(ds.Records))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ds.Records) {
		t.Fatalf("sacct round trip lost jobs: %d vs %d", len(recs), len(ds.Records))
	}

	var collected []Alert
	done := make(chan struct{})
	go func() {
		for a := range m.Alerts() {
			collected = append(collected, a)
		}
		close(done)
	}()

	dec := ingest.NewDecoder(m, ingest.DecoderConfig{})
	from := ds.SplitTime()
	for _, node := range ds.Nodes()[:2] { // two nodes keep the test fast
		f := ds.Frames[node]
		view := f.Slice(f.IndexOf(from), f.Len())
		dec.Register(node, view.Metrics)
		spans := slurmsim.SpansForNode(recs, node, ds.Horizon)
		si := 0
		for t2 := 0; t2 < view.Len(); t2++ {
			ts := view.TimeAt(t2)
			for si < len(spans) && spans[si].Start <= ts {
				m.ObserveJob(node, spans[si].Job, spans[si].Start)
				si++
			}
			// Sample → exposition text → decoded into the registered
			// layout (NaN holes for missing samples) → ingest.
			if _, err := dec.PushExposition(telemetry.FormatScrape(view, t2)); err != nil {
				t.Fatalf("scrape decode at %s t=%d: %v", node, t2, err)
			}
		}
	}
	m.Close()
	<-done

	// The fault-injected test window must still raise alerts through the
	// text path.
	if len(collected) == 0 {
		t.Error("no alerts through the sacct+exposition path")
	}
	for _, a := range collected {
		if a.Diagnosis.Level == "" {
			t.Error("alert missing diagnosis")
		}
	}
	t.Logf("text-format replay raised %d alerts", len(collected))
}
