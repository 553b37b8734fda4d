package coord

import (
	"fmt"
	"testing"

	"nodesentry/internal/ingest"
	"nodesentry/internal/obs"
)

// recordingSink counts what reaches the wrapped side of a ShardFilter.
type recordingSink struct {
	registered []string
	jobs       int
	samples    map[string]int
}

func newRecordingSink() *recordingSink { return &recordingSink{samples: map[string]int{}} }

func (s *recordingSink) RegisterNode(node string, metrics []string) {
	s.registered = append(s.registered, node)
}
func (s *recordingSink) ObserveJob(node string, job, start int64) { s.jobs++ }
func (s *recordingSink) Ingest(node string, ts int64, values []float64) {
	s.samples[node]++
}

func TestShardFilterTransparentBeforeAssignment(t *testing.T) {
	sink := newRecordingSink()
	f := NewShardFilter(sink, nil)
	var _ ingest.Sink = f // the filter slots in wherever a Sink goes

	for i := 0; i < 16; i++ {
		node := fmt.Sprintf("node-%d", i)
		f.RegisterNode(node, []string{"m"})
		f.Ingest(node, 100, []float64{1})
	}
	if len(sink.registered) != 16 || len(sink.samples) != 16 {
		t.Fatalf("standalone filter dropped traffic: %d registered, %d sampled",
			len(sink.registered), len(sink.samples))
	}
	if f.Dropped() != 0 || f.Epoch() != 0 {
		t.Fatalf("pre-assignment filter: dropped=%d epoch=%d", f.Dropped(), f.Epoch())
	}
	if !f.Owns("anything") {
		t.Fatal("pre-assignment filter must own every node")
	}
}

func TestShardFilterEnforcesAssignment(t *testing.T) {
	sink := newRecordingSink()
	reg := obs.NewRegistry()
	f := NewShardFilter(sink, reg)

	// Own shards 0 and 2 of 4.
	if err := f.SetAssignment(Assignment{Epoch: 5, Scorer: "s", Shards: []int{0, 2}, TotalShards: 4}); err != nil {
		t.Fatal(err)
	}
	if f.Epoch() != 5 {
		t.Fatalf("epoch = %d, want 5", f.Epoch())
	}

	var passed, dropped int
	for i := 0; i < 64; i++ {
		node := fmt.Sprintf("node-%d", i)
		f.RegisterNode(node, []string{"m"}) // registrations always pass
		f.ObserveJob(node, 1, 100)          // job transitions always pass
		f.Ingest(node, 100, []float64{1})
		shard := ingest.FNVShard(node, 4)
		owned := shard == 0 || shard == 2
		if owned {
			passed++
		} else {
			dropped++
		}
		if f.Owns(node) != owned {
			t.Fatalf("Owns(%s) = %v, shard %d", node, f.Owns(node), shard)
		}
		if got := sink.samples[node]; (got == 1) != owned {
			t.Fatalf("node %s (shard %d, owned=%v) saw %d samples", node, shard, owned, got)
		}
	}
	if dropped == 0 || passed == 0 {
		t.Fatalf("degenerate partition: %d passed, %d dropped", passed, dropped)
	}
	if len(sink.registered) != 64 || sink.jobs != 64 {
		t.Fatalf("registrations/jobs filtered: %d/%d, want 64/64", len(sink.registered), sink.jobs)
	}
	if f.Dropped() != int64(dropped) {
		t.Fatalf("Dropped() = %d, want %d", f.Dropped(), dropped)
	}

	// Reassignment flips ownership: a previously dropped node passes once
	// its shard is acquired.
	if err := f.SetAssignment(Assignment{Epoch: 6, Scorer: "s", Shards: []int{0, 1, 2, 3}, TotalShards: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		node := fmt.Sprintf("node-%d", i)
		f.Ingest(node, 200, []float64{1})
		if sink.samples[node] == 0 {
			t.Fatalf("node %s still filtered after owning all shards", node)
		}
	}
	if f.Dropped() != int64(dropped) {
		t.Fatalf("full ownership still dropping: %d", f.Dropped())
	}
}
