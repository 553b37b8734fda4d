package summary

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

func ev(metric string, tags map[string]string) Event {
	return Event{Metric: metric, Tags: tags}
}

// fold runs events through a summarizer as one batch and returns the one
// incident it opens, so the tag partition under test is the one
// incState.snapshot hands operators.
func fold(t *testing.T, events []Event) Incident {
	t.Helper()
	var got []Incident
	s := New(Config{MinGroup: 1, OnIncident: func(inc Incident, tr Transition) {
		if tr != Opened {
			t.Fatalf("transition %s, want only %s", tr, Opened)
		}
		got = append(got, inc)
	}})
	for _, e := range events {
		s.Observe(e)
	}
	s.Flush(time.Unix(0, 0))
	if len(got) != 1 {
		t.Fatalf("%d incidents opened, want 1", len(got))
	}
	return got[0]
}

// Single-dimension variation: 6 disk events with different device values →
// VaryingTags{device: [6 values]}, host (present on all) constant.
func TestPartitionTags_SingleDimension(t *testing.T) {
	var events []Event
	for i := 0; i < 6; i++ {
		events = append(events, ev("Disk", map[string]string{
			"device": fmt.Sprintf("disk%d", i),
			"host":   "node-1",
		}))
	}
	p := fold(t, events)
	if want := map[string]string{"host": "node-1"}; !reflect.DeepEqual(p.ConstantTags, want) {
		t.Fatalf("constant = %v, want %v", p.ConstantTags, want)
	}
	if got := p.VaryingTags["device"]; len(got) != 6 {
		t.Fatalf("device values = %v, want 6 distinct", got)
	}
	if len(p.VaryingTags) != 1 {
		t.Fatalf("varying keys = %v, want only device", p.VaryingTags)
	}
	if dim := p.Dimension; dim != "device" {
		t.Fatalf("dimension = %q, want device", dim)
	}
}

// Multi-dimension variation: events varying by both device and host →
// both appear in VaryingTags.
func TestPartitionTags_MultiDimension(t *testing.T) {
	var events []Event
	for i := 0; i < 4; i++ {
		events = append(events, ev("Disk", map[string]string{
			"device": fmt.Sprintf("disk%d", i),
			"host":   fmt.Sprintf("node-%d", i%2),
			"env":    "prod",
		}))
	}
	p := fold(t, events)
	if _, ok := p.VaryingTags["device"]; !ok {
		t.Fatalf("device missing from varying: %v", p.VaryingTags)
	}
	if _, ok := p.VaryingTags["host"]; !ok {
		t.Fatalf("host missing from varying: %v", p.VaryingTags)
	}
	if p.ConstantTags["env"] != "prod" {
		t.Fatalf("env should stay constant: %v", p.ConstantTags)
	}
	// device has 4 distinct values vs host's 2: device is the dimension.
	if dim := p.Dimension; dim != "device" {
		t.Fatalf("dimension = %q, want device", dim)
	}
}

// Mixed constant/varying: all events share env:prod but differ in
// container_id.
func TestPartitionTags_MixedConstantVarying(t *testing.T) {
	var events []Event
	for i := 0; i < 5; i++ {
		events = append(events, ev("Memory", map[string]string{
			"env":          "prod",
			"container_id": fmt.Sprintf("c-%04d", i),
		}))
	}
	p := fold(t, events)
	if want := map[string]string{"env": "prod"}; !reflect.DeepEqual(p.ConstantTags, want) {
		t.Fatalf("constant = %v, want %v", p.ConstantTags, want)
	}
	if got := p.VaryingTags["container_id"]; len(got) != 5 {
		t.Fatalf("container_id values = %v, want 5", got)
	}
}

// No tags: both maps empty (and non-nil, so JSON encodes as {}).
func TestPartitionTags_NoTags(t *testing.T) {
	events := []Event{ev("CPU", nil), ev("CPU", map[string]string{})}
	p := fold(t, events)
	if p.ConstantTags == nil || p.VaryingTags == nil {
		t.Fatal("maps must be non-nil")
	}
	if len(p.ConstantTags) != 0 || len(p.VaryingTags) != 0 {
		t.Fatalf("want empty maps, got constant=%v varying=%v", p.ConstantTags, p.VaryingTags)
	}
	if dim := p.Dimension; dim != "" {
		t.Fatalf("dimension = %q, want empty", dim)
	}
}

// Single event: every tag is constant — the degenerate case.
func TestPartitionTags_SingleEvent(t *testing.T) {
	p := fold(t, []Event{ev("Memory", map[string]string{
		"node": "node-7", "job": "8812", "level": "Memory",
	})})
	want := map[string]string{"node": "node-7", "job": "8812", "level": "Memory"}
	if !reflect.DeepEqual(p.ConstantTags, want) {
		t.Fatalf("constant = %v, want %v", p.ConstantTags, want)
	}
	if len(p.VaryingTags) != 0 {
		t.Fatalf("varying = %v, want empty", p.VaryingTags)
	}
}

// Real fleet scenario: one job's nodes all alert on memory from two
// scorers — node varies (the dimension), scorer varies, job and level
// stay constant; a key missing from some events (gpu) is varying too.
func TestPartitionTags_RealFleetScenario(t *testing.T) {
	var events []Event
	for i := 0; i < 32; i++ {
		tags := map[string]string{
			"node":   fmt.Sprintf("cn%02d", i),
			"job":    "8812",
			"level":  "Memory",
			"scorer": fmt.Sprintf("scorer-%d", i%2),
		}
		if i%4 == 0 {
			tags["gpu"] = "0"
		}
		events = append(events, ev("Memory", tags))
	}
	p := fold(t, events)
	if p.ConstantTags["job"] != "8812" || p.ConstantTags["level"] != "Memory" {
		t.Fatalf("job/level should be constant: %v", p.ConstantTags)
	}
	if got := p.VaryingTags["node"]; len(got) != 32 {
		t.Fatalf("node values = %d, want 32", len(got))
	}
	if got := p.VaryingTags["scorer"]; len(got) != 2 {
		t.Fatalf("scorer values = %v, want 2", got)
	}
	// gpu appears on 8 of 32 events with one value: present-on-some is
	// varying, not constant — it does not describe the whole group.
	if _, constant := p.ConstantTags["gpu"]; constant {
		t.Fatalf("gpu must not be constant: %v", p.ConstantTags)
	}
	if _, ok := p.VaryingTags["gpu"]; !ok {
		t.Fatalf("gpu missing from varying: %v", p.VaryingTags)
	}
	if dim := p.Dimension; dim != "node" {
		t.Fatalf("dimension = %q, want node", dim)
	}
}

// Dimension tie-break: equal distinct counts prefer "node".
func TestPartitionDimensionPrefersNode(t *testing.T) {
	p := TagPartition{VaryingTags: map[string][]string{
		"zone": {"a", "b"},
		"node": {"n1", "n2"},
		"rack": {"r1", "r2"},
	}}
	if dim := p.Dimension(); dim != "node" {
		t.Fatalf("dimension = %q, want node", dim)
	}
}
