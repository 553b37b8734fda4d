package lifecycle

import (
	"fmt"
	"math"
	"testing"
)

var bufCfg = Config{Step: 60}

func TestBufferSegmentsOnJobChangeAndGap(t *testing.T) {
	b := NewBuffer(bufCfg, nil)
	b.RegisterNode("n", []string{"a", "b"})
	b.ObserveJob("n", 1, 0)
	b.Ingest("n", 0, []float64{1, 2})
	b.Ingest("n", 60, []float64{3, 4})
	b.Ingest("n", 120, []float64{5, 6})
	b.ObserveJob("n", 2, 180) // job transition closes the first segment
	b.Ingest("n", 180, []float64{7, 8})
	b.Ingest("n", 240, []float64{9, 10})
	b.Ingest("n", 420, []float64{11, 12}) // scrape gap opens a third segment

	in := b.TrainInput(nil)
	f := in.Frames["n"]
	if f == nil {
		t.Fatal("no frame for node n")
	}
	if f.Start != 0 || f.Step != 60 || f.Len() != 8 {
		t.Fatalf("frame start=%d step=%d len=%d, want 0/60/8", f.Start, f.Step, f.Len())
	}
	// Samples at indices 5 and 6 fall in the gap and must be NaN.
	for _, idx := range []int{5, 6} {
		if !math.IsNaN(f.Data[0][idx]) {
			t.Errorf("gap sample %d = %v, want NaN", idx, f.Data[0][idx])
		}
	}
	if f.Data[0][0] != 1 || f.Data[1][4] != 10 || f.Data[0][7] != 11 {
		t.Error("buffered values landed at wrong frame offsets")
	}

	spans := in.Spans["n"]
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	if spans[0].Job != 1 || spans[0].Start != 0 || spans[0].End != 180 {
		t.Errorf("span 0 = %+v, want job 1 over [0,180)", spans[0])
	}
	if spans[1].Job != 2 || spans[1].Start != 180 || spans[1].End != 300 {
		t.Errorf("span 1 = %+v, want job 2 over [180,300)", spans[1])
	}
	if spans[2].Job != 2 || spans[2].Start != 420 || spans[2].End != 480 {
		t.Errorf("span 2 = %+v, want job 2 over [420,480)", spans[2])
	}
}

func TestBufferByteBudgetEviction(t *testing.T) {
	// 4096 metrics -> 32 KiB per row; the budget holds budgetRows rows, and
	// the stream carries two and a half budgets in short job segments.
	const width = 4096
	const budgetRows = bufferBytes / (width * 8)
	const rows = budgetRows*5/2 + 1
	metrics := make([]string, width)
	for i := range metrics {
		metrics[i] = fmt.Sprintf("m%d", i)
	}
	b := NewBuffer(bufCfg, nil)
	b.RegisterNode("n", metrics)
	row := make([]float64, width)
	for i := 0; i < rows; i++ {
		ts := int64(i) * 60
		if i%(budgetRows/8) == 0 {
			b.ObserveJob("n", int64(i), ts)
		}
		row[0] = float64(i)
		b.Ingest("n", ts, row)
	}
	bytes, segs, _ := b.Stats()
	if bytes > bufferBytes {
		t.Fatalf("buffer holds %d bytes, budget is %d", bytes, bufferBytes)
	}
	if segs == 0 {
		t.Fatal("eviction must leave the newest data, not empty the buffer")
	}
	// The survivors are the newest rows: the frame must cover the last ts.
	in := b.TrainInput(nil)
	f := in.Frames["n"]
	if f == nil || f.Start+int64(f.Len()-1)*60 != (rows-1)*60 || f.Data[0][f.Len()-1] != rows-1 {
		t.Fatal("newest sample lost")
	}
}

func TestBufferPerNodeSegmentCap(t *testing.T) {
	b := NewBuffer(bufCfg, nil)
	b.RegisterNode("n", []string{"a"})
	for seg := 0; seg < maxSegmentsPerNode+2; seg++ {
		start := int64(seg) * 600
		b.ObserveJob("n", int64(seg), start)
		b.Ingest("n", start, []float64{1})
		b.Ingest("n", start+60, []float64{2})
	}
	b.ObserveJob("n", 99, 600*(maxSegmentsPerNode+2)) // close the last open segment
	_, segs, _ := b.Stats()
	if segs != maxSegmentsPerNode {
		t.Fatalf("per-node cap of %d left %d segments", maxSegmentsPerNode, segs)
	}
}

// TestBufferGapBoundCapsTrainInput pins TrainInput's memory contract: a node
// resuming after an outage far wider than maxGapSteps must not have the gap
// NaN-bridged into the frame (the fill is never charged to bufferBytes), so
// only the post-outage run is materialized.
func TestBufferGapBoundCapsTrainInput(t *testing.T) {
	b := NewBuffer(bufCfg, nil)
	b.RegisterNode("n", []string{"a"})
	b.ObserveJob("n", 1, 0)
	b.Ingest("n", 0, []float64{1})
	b.Ingest("n", 60, []float64{2})
	// The node goes dark for 10000 steps, far past the maxGapSteps bound.
	const resume = 600000
	b.Ingest("n", resume, []float64{3})
	b.Ingest("n", resume+60, []float64{4})

	in := b.TrainInput(nil)
	f := in.Frames["n"]
	if f == nil {
		t.Fatal("no frame for node n")
	}
	if f.Start != resume || f.Len() != 2 {
		t.Fatalf("frame start=%d len=%d, want %d/2: pre-outage segment must be dropped, not NaN-bridged",
			f.Start, f.Len(), resume)
	}
	if spans := in.Spans["n"]; len(spans) != 1 || spans[0].Start != resume {
		t.Fatalf("spans = %+v, want one span starting at %d", spans, resume)
	}
}

func TestBufferIgnoresUnregisteredNode(t *testing.T) {
	b := NewBuffer(bufCfg, nil)
	b.Ingest("ghost", 0, []float64{1, 2, 3})
	bytes, segs, _ := b.Stats()
	if bytes != 0 || segs != 0 {
		t.Fatal("samples without a registered layout must be dropped")
	}
	if _, ok := b.TrainInput(nil).Frames["ghost"]; ok {
		t.Fatal("unregistered node leaked into TrainInput")
	}
}

func TestBufferLayoutsAndJobs(t *testing.T) {
	b := NewBuffer(bufCfg, nil)
	b.RegisterNode("n", []string{"a", "b"})
	b.ObserveJob("n", 42, 600)
	lay := b.Layouts()
	if got := lay["n"]; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Layouts = %v", lay)
	}
	jobs := b.Jobs()
	if j := jobs["n"]; j[0] != 42 || j[1] != 600 {
		t.Fatalf("Jobs = %v", jobs)
	}
}
