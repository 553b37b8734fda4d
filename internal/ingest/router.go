package ingest

import (
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nodesentry/internal/obs"
)

// Policy selects what a full shard queue does to new work.
type Policy int

const (
	// Block applies backpressure to the producer: enqueue waits for
	// queue space. Intake HTTP handlers slow down; nothing is lost.
	Block Policy = iota
	// DropOldest evicts the oldest queued event to admit the new one,
	// counting the eviction. Fresh samples beat stale ones — the right
	// trade for live scoring, lossy by design (evictions can include
	// registration or job events if those are what is oldest).
	DropOldest
)

// RouterConfig parameterizes a ShardRouter.
type RouterConfig struct {
	// Shards is the number of worker queues (default 4).
	Shards int
	// QueueSize bounds each shard's queue (default 256 events).
	QueueSize int
	// Policy picks the backpressure behavior on a full queue.
	Policy Policy
	// Metrics, when non-nil, receives per-shard queue depth gauges and
	// processed/dropped counters plus the intake→score latency
	// histogram (see DESIGN.md's ingestion appendix).
	Metrics *obs.Registry
	// Logger, when non-nil, receives drop warnings (rate-limited to the
	// first occurrence per shard).
	Logger *slog.Logger
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	return c
}

// ShardRouter fans decoded telemetry out over N bounded worker queues,
// one drain goroutine each, keyed by a consistent hash of the node
// name — so per-node event order is preserved while one slow node can
// only stall its own shard. It implements Sink and delivers into the
// Sink it wraps (typically runtime.Monitor).
type ShardRouter struct {
	cfg  RouterConfig
	sink Sink

	queues []chan event
	wg     sync.WaitGroup

	// mu serializes enqueue against Drain so a send can never race the
	// queue close (the same discipline runtime.Monitor.Close uses).
	mu     sync.RWMutex
	closed bool

	dropped   atomic.Int64
	processed []atomic.Int64 // per-shard, for fan-out assertions

	obsOn    bool
	depth    []*obs.Gauge
	procMet  []*obs.Counter
	dropMet  []*obs.Counter
	latency  *obs.Histogram
	warnOnce []sync.Once
	log      *slog.Logger
}

// NewShardRouter builds the router and starts one drain goroutine per
// shard. Call Drain to stop.
func NewShardRouter(sink Sink, cfg RouterConfig) *ShardRouter {
	cfg = cfg.withDefaults()
	r := &ShardRouter{
		cfg:       cfg,
		sink:      sink,
		queues:    make([]chan event, cfg.Shards),
		processed: make([]atomic.Int64, cfg.Shards),
		obsOn:     cfg.Metrics != nil,
		depth:     make([]*obs.Gauge, cfg.Shards),
		procMet:   make([]*obs.Counter, cfg.Shards),
		dropMet:   make([]*obs.Counter, cfg.Shards),
		latency:   cfg.Metrics.Histogram("nodesentry_intake_to_score_seconds", obs.LatencyBuckets),
		warnOnce:  make([]sync.Once, cfg.Shards),
		log:       cfg.Logger,
	}
	for i := range r.queues {
		r.queues[i] = make(chan event, cfg.QueueSize)
		shard := strconv.Itoa(i)
		r.depth[i] = cfg.Metrics.Gauge("nodesentry_shard_queue_depth", "shard", shard)
		r.procMet[i] = cfg.Metrics.Counter("nodesentry_shard_processed_total", "shard", shard)
		r.dropMet[i] = cfg.Metrics.Counter("nodesentry_shard_dropped_total", "shard", shard)
		r.wg.Add(1)
		go r.drain(i, r.queues[i])
	}
	return r
}

// FNVShard consistently hashes a node name onto one of n shards (FNV-1a
// mod n). These are the partition lines the whole topology shares: the
// ShardRouter's worker queues, the coordinator's shard-assignment table
// (internal/coord), and the chaos topology feeder all place a node with
// this exact function, so "who owns node X" has one answer at every tier.
func FNVShard(node string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(node); i++ {
		h ^= uint32(node[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// shardOf consistently hashes a node name onto a shard (FNV-1a).
func (r *ShardRouter) shardOf(node string) int {
	return FNVShard(node, len(r.queues))
}

// RegisterNode queues a layout declaration (Sink).
func (r *ShardRouter) RegisterNode(node string, metrics []string) {
	r.enqueue(event{kind: evRegister, node: node, metrics: append([]string(nil), metrics...)})
}

// ObserveJob queues a job transition (Sink).
func (r *ShardRouter) ObserveJob(node string, job int64, start int64) {
	r.enqueue(event{kind: evJob, node: node, job: job, ts: start})
}

// Ingest queues one sample (Sink). The queue outlives the call, so the
// vector is copied — the Decoder reuses its buffer for the next sample.
func (r *ShardRouter) Ingest(node string, ts int64, values []float64) {
	ev := event{kind: evSample, node: node, ts: ts, values: append([]float64(nil), values...)}
	if r.obsOn {
		ev.at = time.Now()
	}
	r.enqueue(ev)
}

func (r *ShardRouter) enqueue(ev event) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i := r.shardOf(ev.node)
	if r.closed {
		// Arrived after Drain began: counted, never delivered.
		r.dropped.Add(1)
		r.dropMet[i].Inc()
		return
	}
	q := r.queues[i]
	if r.cfg.Policy == Block {
		q <- ev
	} else {
		for {
			select {
			case q <- ev:
				r.depth[i].Set(float64(len(q)))
				return
			default:
			}
			// Full: evict the oldest event (unless the drainer beat us
			// to it) and retry.
			select {
			case <-q:
				r.dropped.Add(1)
				r.dropMet[i].Inc()
				if r.log != nil {
					r.warnOnce[i].Do(func() {
						r.log.Warn("shard queue full: dropping oldest", "shard", i, "queue", r.cfg.QueueSize)
					})
				}
			default:
			}
		}
	}
	r.depth[i].Set(float64(len(q)))
}

// drain applies one shard's events to the wrapped sink in order.
func (r *ShardRouter) drain(i int, q chan event) {
	defer r.wg.Done()
	for ev := range q {
		switch ev.kind {
		case evRegister:
			r.sink.RegisterNode(ev.node, ev.metrics)
		case evJob:
			r.sink.ObserveJob(ev.node, ev.job, ev.ts)
		case evSample:
			r.sink.Ingest(ev.node, ev.ts, ev.values)
			if r.obsOn && !ev.at.IsZero() {
				r.latency.Observe(time.Since(ev.at).Seconds())
			}
		}
		r.processed[i].Add(1)
		r.procMet[i].Inc()
		r.depth[i].Set(float64(len(q)))
	}
}

// Drain stops intake, waits until every queued event has been applied,
// and returns the total number of events dropped by backpressure (or
// by arriving after Drain). Safe to call more than once.
func (r *ShardRouter) Drain() int64 {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		for _, q := range r.queues {
			close(q)
		}
	}
	r.mu.Unlock()
	r.wg.Wait()
	return r.dropped.Load()
}

// Dropped reports events discarded so far.
func (r *ShardRouter) Dropped() int64 { return r.dropped.Load() }

// ShardLoads reports how many events each shard has applied — the
// fan-out a test or operator can assert on.
func (r *ShardRouter) ShardLoads() []int64 {
	out := make([]int64, len(r.processed))
	for i := range r.processed {
		out[i] = r.processed[i].Load()
	}
	return out
}
