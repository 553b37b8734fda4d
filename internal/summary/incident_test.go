package summary

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nodesentry/internal/obs"
	"nodesentry/internal/testutil"
)

// recorder captures every transition and raw emission.
type recorder struct {
	mu    sync.Mutex
	trans []string // "open inc-000001", ...
	incs  map[string]Incident
	raw   []Event
}

func (r *recorder) hook(cfg *Config) {
	r.incs = map[string]Incident{}
	cfg.OnIncident = func(inc Incident, tr Transition) {
		r.mu.Lock()
		r.trans = append(r.trans, string(tr)+" "+inc.ID)
		r.incs[inc.ID] = inc
		r.mu.Unlock()
	}
	cfg.OnRaw = func(e Event) {
		r.mu.Lock()
		r.raw = append(r.raw, e)
		r.mu.Unlock()
	}
}

func memEvent(ts int64, node string) Event {
	return Event{
		Ts: ts, Metric: "Memory", Severity: 5, Priority: 1,
		Tags: map[string]string{"node": node, "job": "8812", "level": "Memory"},
	}
}

// A flood of same-family alerts across many nodes folds into exactly one
// incident with node as the dimension and job/level preserved as
// constant; later batches update it; quiet resolves it.
func TestIncidentLifecycle(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	var rec recorder
	now := time.Unix(1000, 0)
	cfg := Config{
		Window:       time.Second,
		ResolveAfter: 30 * time.Second,
		MinGroup:     3,
		Clock:        func() time.Time { return now },
	}
	rec.hook(&cfg)
	s := New(cfg)
	defer s.Close()

	for i := 0; i < 20; i++ {
		s.Observe(memEvent(1000, fmt.Sprintf("cn%02d", i)))
	}
	s.Flush(now)

	snap := s.Incidents()
	if len(snap.Open) != 1 {
		t.Fatalf("open incidents = %d, want 1", len(snap.Open))
	}
	inc := snap.Open[0]
	if inc.Dimension != "node" || len(inc.VaryingTags["node"]) != 20 {
		t.Fatalf("dimension %q members %v", inc.Dimension, inc.VaryingTags["node"])
	}
	if inc.ConstantTags["job"] != "8812" || inc.ConstantTags["level"] != "Memory" {
		t.Fatalf("constant tags lost: %v", inc.ConstantTags)
	}
	if inc.Count != 20 || inc.State != "open" {
		t.Fatalf("count=%d state=%s", inc.Count, inc.State)
	}
	if !strings.Contains(inc.Title, "Memory anomaly across 20 nodes") ||
		!strings.Contains(inc.Title, "job=8812") {
		t.Fatalf("title = %q", inc.Title)
	}

	// A follow-up burst folds into the same incident (update, not a new
	// open), even below MinGroup.
	now = now.Add(5 * time.Second)
	s.Observe(memEvent(1005, "cn99"))
	s.Flush(now)
	if got := s.Incidents(); len(got.Open) != 1 || got.Open[0].Count != 21 {
		t.Fatalf("after update: %+v", got.Open)
	}

	// Quiet past ResolveAfter resolves it.
	now = now.Add(31 * time.Second)
	s.Flush(now)
	snap = s.Incidents()
	if len(snap.Open) != 0 || len(snap.Resolved) != 1 {
		t.Fatalf("open=%d resolved=%d, want 0/1", len(snap.Open), len(snap.Resolved))
	}
	if snap.Resolved[0].State != "resolved" {
		t.Fatalf("state = %q", snap.Resolved[0].State)
	}

	rec.mu.Lock()
	trans := append([]string(nil), rec.trans...)
	rec.mu.Unlock()
	want := []string{"open inc-000001", "update inc-000001", "resolve inc-000001"}
	if len(trans) != len(want) {
		t.Fatalf("transitions = %v, want %v", trans, want)
	}
	for i := range want {
		if trans[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", trans, want)
		}
	}

	st := s.Stats()
	if st.Observed != 21 || st.Folded != 21 || st.Raw != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Emissions() != 2 { // open + resolve
		t.Fatalf("emissions = %d, want 2", st.Emissions())
	}
}

// Groups below MinGroup with no open incident emit raw — and the exact
// Raw payload comes back out.
func TestSmallGroupsEmitRaw(t *testing.T) {
	var rec recorder
	now := time.Unix(1000, 0)
	cfg := Config{MinGroup: 3, Clock: func() time.Time { return now }}
	rec.hook(&cfg)
	s := New(cfg)
	defer s.Close()

	e := memEvent(1000, "cn01")
	e.Raw = "payload-1"
	s.Observe(e)
	s.Observe(Event{Ts: 1000, Metric: "CPU", Tags: map[string]string{"node": "cn02"}})
	s.Flush(now)

	if n := s.OpenCount(); n != 0 {
		t.Fatalf("open = %d, want 0", n)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.raw) != 2 {
		t.Fatalf("raw = %d, want 2", len(rec.raw))
	}
	found := false
	for _, r := range rec.raw {
		if r.Raw == "payload-1" {
			found = true
		}
	}
	if !found {
		t.Fatal("raw payload not preserved")
	}
	st := s.Stats()
	if st.Observed != 2 || st.Raw != 2 || st.Folded != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Different metric families stay separate incidents.
func TestFamiliesClusterSeparately(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New(Config{MinGroup: 2, Clock: func() time.Time { return now }})
	defer s.Close()
	for i := 0; i < 3; i++ {
		s.Observe(memEvent(1000, fmt.Sprintf("m%d", i)))
		e := memEvent(1000, fmt.Sprintf("c%d", i))
		e.Metric = "CPU"
		e.Tags["level"] = "CPU"
		s.Observe(e)
	}
	s.Flush(now)
	snap := s.Incidents()
	if len(snap.Open) != 2 {
		t.Fatalf("open = %d, want 2 (CPU + Memory)", len(snap.Open))
	}
	// Family-sorted: CPU first.
	if snap.Open[0].Metric != "CPU" || snap.Open[1].Metric != "Memory" {
		t.Fatalf("families = %s,%s", snap.Open[0].Metric, snap.Open[1].Metric)
	}
}

// Member lists stay bounded: beyond memberCap distinct values the
// incident is marked truncated, and severity/priority roll up to maxima.
func TestMemberCapAndRollup(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New(Config{MinGroup: 3, Clock: func() time.Time { return now }})
	defer s.Close()
	const alerts = memberCap + 32
	for i := 0; i < alerts; i++ {
		e := memEvent(1000+int64(i), fmt.Sprintf("cn%03d", i))
		e.Severity = float64(i)
		if i == 17 {
			e.Priority = 2
		}
		s.Observe(e)
	}
	s.Flush(now)
	snap := s.Incidents()
	if len(snap.Open) != 1 {
		t.Fatalf("open = %d, want 1", len(snap.Open))
	}
	inc := snap.Open[0]
	if !inc.Truncated || len(inc.VaryingTags["node"]) != memberCap {
		t.Fatalf("truncated=%v members=%d, want true/%d", inc.Truncated, len(inc.VaryingTags["node"]), memberCap)
	}
	if inc.Severity != alerts-1 || inc.Priority != 2 {
		t.Fatalf("severity=%v priority=%d, want %d/2", inc.Severity, inc.Priority, alerts-1)
	}
	if inc.FirstTs != 1000 || inc.LastTs != 1000+alerts-1 {
		t.Fatalf("span = [%d,%d]", inc.FirstTs, inc.LastTs)
	}
}

// familyEvents returns n same-family events, one per node.
func familyEvents(family string, n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Ts: 1000, Metric: family, Severity: 1, Tags: map[string]string{"node": fmt.Sprintf("cn%02d", i)}}
	}
	return evs
}

// The live set is bounded: a flush whose groups would open incident number
// maxOpen+1 delivers that group raw, and the sink still sees exactly
// Emissions() deliveries.
func TestMaxOpenSpillsRaw(t *testing.T) {
	var rec recorder
	now := time.Unix(1000, 0)
	cfg := Config{MinGroup: 3, Clock: func() time.Time { return now }}
	rec.hook(&cfg)
	s := New(cfg)
	for f := 0; f <= maxOpen; f++ {
		for _, e := range familyEvents(fmt.Sprintf("F%03d", f), 3) {
			s.Observe(e)
		}
	}
	s.Flush(now)

	if n := s.OpenCount(); n != maxOpen {
		t.Fatalf("open = %d, want the cap %d", n, maxOpen)
	}
	st := s.Stats()
	if st.Opened != maxOpen || st.Raw != 3 || st.Folded != 3*maxOpen {
		t.Fatalf("stats = %+v, want %d opened, 3 raw", st, maxOpen)
	}
	last := fmt.Sprintf("F%03d", maxOpen)
	rec.mu.Lock()
	for _, e := range rec.raw {
		if e.Metric != last {
			t.Errorf("raw event of family %s, want only the group past the cap (%s)", e.Metric, last)
		}
	}
	deliveries := int64(len(rec.trans) + len(rec.raw))
	rec.mu.Unlock()
	if deliveries != st.Emissions() || st.Emissions() != st.Opened+st.Resolved+st.Raw {
		t.Fatalf("sink saw %d deliveries, Emissions() = %d, stats %+v", deliveries, st.Emissions(), st)
	}

	s.Close()
	st = s.Stats()
	rec.mu.Lock()
	deliveries = int64(len(rec.trans) + len(rec.raw))
	rec.mu.Unlock()
	if st.Resolved != maxOpen || deliveries != st.Emissions() {
		t.Fatalf("after Close: %d deliveries, stats %+v", deliveries, st)
	}
}

// The recently-resolved list keeps the newest resolvedKeep incidents.
func TestResolvedKeepsNewest(t *testing.T) {
	now := time.Unix(1000, 0)
	s := New(Config{MinGroup: 3, Clock: func() time.Time { return now }})
	const families = resolvedKeep + 6
	for f := 0; f < families; f++ {
		for _, e := range familyEvents(fmt.Sprintf("F%03d", f), 3) {
			s.Observe(e)
		}
	}
	s.Flush(now)
	s.Close() // resolves every family, in family order: inc-000001 first

	res := s.Incidents().Resolved
	if len(res) != resolvedKeep {
		t.Fatalf("resolved list holds %d, want %d", len(res), resolvedKeep)
	}
	first, newest := fmt.Sprintf("inc-%06d", families-resolvedKeep+1), fmt.Sprintf("inc-%06d", families)
	if res[0].ID != first || res[len(res)-1].ID != newest {
		t.Fatalf("resolved list spans %s..%s, want the newest %s..%s", res[0].ID, res[len(res)-1].ID, first, newest)
	}
	if st := s.Stats(); st.Resolved != families {
		t.Fatalf("resolved count = %d, want %d (the cut trims the list, not the accounting)", st.Resolved, families)
	}
}

// Ring overflow spills raw instead of blocking or dropping: accounting
// stays exact (Observed == Folded + Raw after Close).
func TestPendingOverflowSpillsRaw(t *testing.T) {
	var rec recorder
	now := time.Unix(1000, 0)
	cfg := Config{PendingCap: 16, MinGroup: 3, Clock: func() time.Time { return now }}
	rec.hook(&cfg)
	s := New(cfg)
	for i := 0; i < 50; i++ {
		s.Observe(memEvent(1000, fmt.Sprintf("cn%02d", i)))
	}
	s.Close()

	st := s.Stats()
	if st.Observed != 50 {
		t.Fatalf("observed = %d", st.Observed)
	}
	if st.Folded+st.Raw != st.Observed {
		t.Fatalf("folded(%d) + raw(%d) != observed(%d)", st.Folded, st.Raw, st.Observed)
	}
	if st.Overflow != 50-16 {
		t.Fatalf("overflow = %d, want %d", st.Overflow, 50-16)
	}
	if s.OpenCount() != 0 {
		t.Fatal("Close must resolve every incident")
	}
}

// Close is idempotent and final: pending tail folds, all incidents
// resolve, Run exits.
func TestRunAndClose(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	s := New(Config{Window: 5 * time.Millisecond, MinGroup: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx)
	}()
	for i := 0; i < 10; i++ {
		s.Observe(memEvent(time.Now().Unix(), fmt.Sprintf("cn%02d", i)))
	}
	testutil.Eventually(t, "flood folded", func() error {
		if st := s.Stats(); st.Folded != 10 {
			return fmt.Errorf("folded = %d", st.Folded)
		}
		return nil
	})
	s.Close()
	s.Close()
	<-done
	if s.OpenCount() != 0 {
		t.Fatal("open incidents survived Close")
	}
}

// The /metrics series reconcile with Stats, and the folded webhook body
// round-trips with the documented fields.
func TestMetricsAndWebhookJSON(t *testing.T) {
	reg := obs.NewRegistry()
	now := time.Unix(1000, 0)
	s := New(Config{MinGroup: 3, Metrics: reg, Clock: func() time.Time { return now }})
	for i := 0; i < 12; i++ {
		s.Observe(memEvent(1000, fmt.Sprintf("cn%02d", i)))
	}
	s.Flush(now)

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"nodesentry_summary_alerts_observed_total 12",
		"nodesentry_summary_alerts_folded_total 12",
		"nodesentry_summary_incidents_open 1",
		"nodesentry_summary_compression_ratio 12",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}

	inc := s.Incidents().Open[0]
	body, err := WebhookJSON(inc, Opened)
	if err != nil {
		t.Fatal(err)
	}
	var p map[string]any
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p["kind"] != "open" || p["dimension"] != "node" || p["count"] != float64(12) {
		t.Fatalf("payload = %v", p)
	}
	if members, ok := p["members"].([]any); !ok || len(members) != 12 {
		t.Fatalf("members = %v", p["members"])
	}
	s.Close()
}
