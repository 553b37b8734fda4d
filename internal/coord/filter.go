package coord

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nodesentry/internal/ingest"
	"nodesentry/internal/obs"
)

// ShardFilter is the scorer-side enforcement of the assignment table: an
// ingest.Sink that passes samples through only for nodes whose shard the
// scorer currently owns, counting the rest as drops. Registrations and
// job transitions always pass — a shard handed over mid-stream must not
// force re-registration of layouts the scorer already knows, and keeping
// cold state for unowned nodes costs nothing but lets a handover resume
// instantly.
//
// Before the first assignment arrives the filter is transparent
// (standalone behavior); SetAssignment flips it into enforcement.
type ShardFilter struct {
	sink ingest.Sink

	mu     sync.RWMutex
	active bool
	owned  []bool
	epoch  int64

	dropped atomic.Int64
	dropMet *obs.Counter
}

// NewShardFilter wraps sink. Metrics, when non-nil, receives
// nodesentry_coord_filtered_total.
func NewShardFilter(sink ingest.Sink, metrics *obs.Registry) *ShardFilter {
	return &ShardFilter{sink: sink, dropMet: metrics.Counter("nodesentry_coord_filtered_total")}
}

// maxTotalShards bounds the partition table an assignment may install, so
// a mangled total cannot make the filter allocate without limit.
const maxTotalShards = 1 << 16

// SetAssignment installs a new shard set; samples for unowned shards are
// filtered from this point on. An assignment without a positive
// TotalShards has no partition lines to place a node on (an empty or
// mangled coordinator response decodes to one), and one past
// maxTotalShards is mangled too: either is rejected and the previous
// assignment stays in force.
func (f *ShardFilter) SetAssignment(a Assignment) error {
	if a.TotalShards <= 0 || a.TotalShards > maxTotalShards {
		return fmt.Errorf("coord: assignment epoch %d has %d total shards", a.Epoch, a.TotalShards)
	}
	owned := make([]bool, a.TotalShards)
	for _, s := range a.Shards {
		if s >= 0 && s < len(owned) {
			owned[s] = true
		}
	}
	f.mu.Lock()
	f.active, f.owned, f.epoch = true, owned, a.Epoch
	f.mu.Unlock()
	return nil
}

// Epoch returns the epoch of the installed assignment (0 before any).
func (f *ShardFilter) Epoch() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.epoch
}

// Owns reports whether node's shard is currently owned (true before the
// first assignment).
func (f *ShardFilter) Owns(node string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.ownsLocked(node)
}

func (f *ShardFilter) ownsLocked(node string) bool {
	if !f.active {
		return true
	}
	return f.owned[ingest.FNVShard(node, len(f.owned))]
}

// Dropped reports samples filtered so far.
func (f *ShardFilter) Dropped() int64 { return f.dropped.Load() }

// RegisterNode always passes through (Sink).
func (f *ShardFilter) RegisterNode(node string, metrics []string) {
	f.sink.RegisterNode(node, metrics)
}

// ObserveJob always passes through (Sink).
func (f *ShardFilter) ObserveJob(node string, job int64, start int64) {
	f.sink.ObserveJob(node, job, start)
}

// Ingest delivers the sample iff the node's shard is owned (Sink).
func (f *ShardFilter) Ingest(node string, ts int64, values []float64) {
	f.mu.RLock()
	ok := f.ownsLocked(node)
	f.mu.RUnlock()
	if !ok {
		f.dropped.Add(1)
		f.dropMet.Inc()
		return
	}
	f.sink.Ingest(node, ts, values)
}
