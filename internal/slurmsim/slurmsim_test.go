package slurmsim

import (
	"testing"

	"nodesentry/internal/mts"
)

func simSmall(t *testing.T) (Config, []Record) {
	t.Helper()
	cfg := Config{
		Nodes:   NodeNames(8),
		Horizon: 3 * 24 * 3600,
		Seed:    42,
	}
	recs := Simulate(cfg)
	if len(recs) == 0 {
		t.Fatal("Simulate produced no jobs")
	}
	return cfg, recs
}

func TestSimulateInvariants(t *testing.T) {
	cfg, recs := simSmall(t)
	nodeSet := map[string]bool{}
	for _, n := range cfg.Nodes {
		nodeSet[n] = true
	}
	ids := map[int64]bool{}
	for _, r := range recs {
		if r.Start < 0 || r.End > cfg.Horizon || r.End <= r.Start {
			t.Fatalf("job %d has bad interval [%d,%d)", r.ID, r.Start, r.End)
		}
		if len(r.Nodes) == 0 {
			t.Fatalf("job %d has no nodes", r.ID)
		}
		if ids[r.ID] {
			t.Fatalf("duplicate job id %d", r.ID)
		}
		ids[r.ID] = true
		for _, n := range r.Nodes {
			if !nodeSet[n] {
				t.Fatalf("job %d scheduled on unknown node %q", r.ID, n)
			}
		}
		if r.Kind == "" {
			t.Fatalf("job %d has no kind", r.ID)
		}
	}
}

func TestNoOverlapPerNode(t *testing.T) {
	cfg, recs := simSmall(t)
	for _, node := range cfg.Nodes {
		var prev mts.JobSpan
		first := true
		for _, s := range SpansForNode(recs, node, cfg.Horizon) {
			if s.Job == mts.IdleJobID {
				continue
			}
			if !first && s.Start < prev.End {
				t.Fatalf("node %s: job %d [%d,%d) overlaps job %d [%d,%d)",
					node, s.Job, s.Start, s.End, prev.Job, prev.Start, prev.End)
			}
			prev, first = s, false
		}
	}
}

func TestSpansCoverHorizon(t *testing.T) {
	cfg, recs := simSmall(t)
	for _, node := range cfg.Nodes {
		spans := SpansForNode(recs, node, cfg.Horizon)
		if len(spans) == 0 {
			t.Fatalf("node %s has no spans", node)
		}
		if spans[0].Start != 0 {
			t.Fatalf("node %s: first span starts at %d", node, spans[0].Start)
		}
		if spans[len(spans)-1].End != cfg.Horizon {
			t.Fatalf("node %s: last span ends at %d, want %d", node, spans[len(spans)-1].End, cfg.Horizon)
		}
		for i := 1; i < len(spans); i++ {
			if spans[i].Start != spans[i-1].End {
				t.Fatalf("node %s: gap between span %d and %d (%d != %d)",
					node, i-1, i, spans[i-1].End, spans[i].Start)
			}
		}
	}
}

func TestIdleSpansExist(t *testing.T) {
	cfg, recs := simSmall(t)
	idle := 0
	for _, node := range cfg.Nodes {
		for _, s := range SpansForNode(recs, node, cfg.Horizon) {
			if s.Job == mts.IdleJobID {
				idle++
			}
		}
	}
	if idle == 0 {
		t.Error("expected idle spans in the schedule (idle is a pattern the paper models)")
	}
}

func TestMultiNodeJobsExist(t *testing.T) {
	_, recs := simSmall(t)
	multi := 0
	for _, r := range recs {
		if len(r.Nodes) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("expected multi-node jobs (characteristic 2 of the paper)")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Nodes: NodeNames(4), Horizon: 24 * 3600, Seed: 7}
	a := Simulate(cfg)
	b := Simulate(cfg)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic job count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Start != b[i].Start || a[i].End != b[i].End || a[i].Kind != b[i].Kind {
			t.Fatalf("record %d differs between runs", i)
		}
	}
	c := Simulate(Config{Nodes: NodeNames(4), Horizon: 24 * 3600, Seed: 8})
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].Start != c[i].Start {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestFig4DurationShape(t *testing.T) {
	// The paper reports ~94.9% of job segments shorter than one day.
	recs := Simulate(Config{Nodes: NodeNames(32), Horizon: 7 * 24 * 3600, Seed: 1})
	fr := DurationStats(recs, []int64{24 * 3600})
	if fr[0] < 0.85 || fr[0] > 1.0 {
		t.Errorf("fraction of jobs < 1 day = %.3f, want around 0.95", fr[0])
	}
	// And some jobs must exceed a day (the tail exists).
	hist := DurationHistogram(recs, []int64{3600, 6 * 3600, 24 * 3600})
	if hist[len(hist)-1] == 0 {
		t.Error("no multi-day jobs in a week-long schedule")
	}
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != len(recs) {
		t.Errorf("histogram total %d != %d jobs", total, len(recs))
	}
}

func TestEmptyConfig(t *testing.T) {
	if Simulate(Config{}) != nil {
		t.Error("empty config should produce no jobs")
	}
	if Simulate(Config{Nodes: NodeNames(2), Horizon: 0}) != nil {
		t.Error("zero horizon should produce no jobs")
	}
}

func TestNodeNames(t *testing.T) {
	names := NodeNames(3)
	if len(names) != 3 || names[0] != "cn-0001" || names[2] != "cn-0003" {
		t.Errorf("NodeNames = %v", names)
	}
}

func TestDurationStatsEmpty(t *testing.T) {
	out := DurationStats(nil, []int64{100})
	if out[0] != 0 {
		t.Error("empty record list should give zero fractions")
	}
}
