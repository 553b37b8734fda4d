package eval

import (
	"testing"
	"time"
)

func TestDetectionLatencies(t *testing.T) {
	label := []bool{false, true, true, true, false, true, true, false}
	pred := []bool{false, false, false, true, false, false, false, false}
	rep := DetectionLatencies(pred, label, nil, 60)
	if rep.Detected != 1 || rep.Missed != 1 {
		t.Fatalf("detected/missed = %d/%d", rep.Detected, rep.Missed)
	}
	if len(rep.Latencies) != 1 || rep.Latencies[0] != 2*time.Minute {
		t.Errorf("latencies = %v, want [2m]", rep.Latencies)
	}
}

func TestDetectionLatenciesImmediateHit(t *testing.T) {
	label := []bool{true, true}
	pred := []bool{true, false}
	rep := DetectionLatencies(pred, label, nil, 15)
	if rep.Detected != 1 || rep.Latencies[0] != 0 {
		t.Errorf("rep = %+v", rep)
	}
}

func TestDetectionLatenciesIgnoreSplitsRuns(t *testing.T) {
	label := []bool{true, true, true}
	pred := []bool{false, false, true}
	ignore := []bool{false, true, false} // splits into two runs
	rep := DetectionLatencies(pred, label, ignore, 60)
	if rep.Detected != 1 || rep.Missed != 1 {
		t.Errorf("rep = %+v", rep)
	}
	// The hit run starts at index 2, hit at 2 → zero latency.
	if rep.Latencies[0] != 0 {
		t.Errorf("latency = %v", rep.Latencies[0])
	}
}

func TestDetectionLatenciesEmpty(t *testing.T) {
	rep := DetectionLatencies(nil, nil, nil, 60)
	if rep.Detected != 0 || rep.Missed != 0 || len(rep.Latencies) != 0 {
		t.Errorf("rep = %+v", rep)
	}
}
