package lifecycle

import (
	"math"
	"sort"
	"sync"

	"nodesentry/internal/core"
	"nodesentry/internal/mts"
	"nodesentry/internal/obs"
)

// segment is one contiguous run of samples under a single job on one node.
type segment struct {
	job     int64
	firstTs int64
	lastTs  int64
	rows    [][]float64
}

func (s *segment) bytes() int64 {
	if len(s.rows) == 0 {
		return 0
	}
	return int64(len(s.rows)) * int64(len(s.rows[0])) * 8
}

// nodeBuf is one node's buffered stream state.
type nodeBuf struct {
	metrics  []string
	job      int64
	jobStart int64
	open     *segment
	done     []*segment
}

// Buffer is the rolling retrain corpus: an ingest.Sink that retains the
// most recent job-segmented sample runs per node within a global byte
// budget. A segment closes on a job transition or a timestamp discontinuity
// (a scrape gap); when the budget or the per-node segment cap is exceeded,
// the globally oldest closed segment is evicted first. TrainInput rebuilds
// per-node frames (gaps NaN-filled, which core's preprocessing interpolates
// and whose spans exclude anyway) plus the covering job spans, so the
// background retrainer re-runs the exact offline pipeline on recent data.
type Buffer struct {
	mu     sync.Mutex
	step   int64
	maxGap int64 // widest inter-segment gap TrainInput bridges, in seconds
	bytes  int64
	nodes  map[string]*nodeBuf

	bytesG  *obs.Gauge
	segsG   *obs.Gauge
	evicted *obs.Counter
	samples *obs.Counter
	gapSkip *obs.Counter
}

// NewBuffer builds a buffer with the config's sampling step, under the
// bufferBytes budget and the maxSegmentsPerNode cap.
func NewBuffer(cfg Config, reg *obs.Registry) *Buffer {
	cfg = cfg.withDefaults()
	return &Buffer{
		step:    cfg.Step,
		maxGap:  maxGapSteps * cfg.Step,
		nodes:   map[string]*nodeBuf{},
		bytesG:  reg.Gauge("nodesentry_lifecycle_buffer_bytes"),
		segsG:   reg.Gauge("nodesentry_lifecycle_buffer_segments"),
		evicted: reg.Counter("nodesentry_lifecycle_buffer_evicted_total"),
		samples: reg.Counter("nodesentry_lifecycle_buffer_samples_total"),
		gapSkip: reg.Counter("nodesentry_lifecycle_buffer_gap_skipped_total"),
	}
}

func (b *Buffer) node(name string) *nodeBuf {
	nb, ok := b.nodes[name]
	if !ok {
		nb = &nodeBuf{job: mts.IdleJobID}
		b.nodes[name] = nb
	}
	return nb
}

// RegisterNode implements ingest.Sink.
func (b *Buffer) RegisterNode(node string, metrics []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.node(node).metrics = append([]string(nil), metrics...)
}

// ObserveJob implements ingest.Sink: a transition closes the node's open
// segment.
func (b *Buffer) ObserveJob(node string, job int64, start int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	nb := b.node(node)
	b.closeOpen(nb)
	nb.job = job
	nb.jobStart = start
}

// Ingest implements ingest.Sink.
func (b *Buffer) Ingest(node string, ts int64, values []float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	nb := b.node(node)
	if nb.metrics == nil {
		return // layout unknown: rows would be uninterpretable
	}
	if nb.open != nil && ts != nb.open.lastTs+b.step {
		// Scrape gap or replayed past: never stitch discontinuous samples
		// into one training segment.
		b.closeOpen(nb)
	}
	if nb.open == nil {
		nb.open = &segment{job: nb.job, firstTs: ts, lastTs: ts - b.step}
	}
	row := append([]float64(nil), values...)
	nb.open.rows = append(nb.open.rows, row)
	nb.open.lastTs = ts
	b.bytes += int64(len(row)) * 8
	b.samples.Inc()
	b.enforceBudget()
	b.refreshGauges()
}

// closeOpen moves the node's open segment to its done list, enforcing the
// per-node cap. Callers hold b.mu.
func (b *Buffer) closeOpen(nb *nodeBuf) {
	if nb.open == nil {
		return
	}
	nb.done = append(nb.done, nb.open)
	nb.open = nil
	for len(nb.done) > maxSegmentsPerNode {
		b.bytes -= nb.done[0].bytes()
		nb.done = nb.done[1:]
		b.evicted.Inc()
	}
}

// enforceBudget evicts globally oldest closed segments (then oldest open
// ones) until the byte budget holds. Callers hold b.mu.
func (b *Buffer) enforceBudget() {
	for b.bytes > bufferBytes {
		var victim *nodeBuf
		oldest := int64(math.MaxInt64)
		closedAvail := false
		for _, nb := range b.nodes {
			if len(nb.done) > 0 && nb.done[0].firstTs < oldest {
				victim, oldest, closedAvail = nb, nb.done[0].firstTs, true
			}
		}
		if !closedAvail {
			// Only open segments remain: close and evict the oldest.
			for _, nb := range b.nodes {
				if nb.open != nil && nb.open.firstTs < oldest {
					victim, oldest = nb, nb.open.firstTs
				}
			}
			if victim == nil {
				return
			}
			b.closeOpen(victim)
			if len(victim.done) == 0 {
				return // the per-node cap already evicted it
			}
		}
		b.bytes -= victim.done[0].bytes()
		victim.done = victim.done[1:]
		b.evicted.Inc()
	}
}

func (b *Buffer) refreshGauges() {
	segs := 0
	for _, nb := range b.nodes {
		segs += len(nb.done)
		if nb.open != nil {
			segs++
		}
	}
	b.bytesG.Set(float64(b.bytes))
	b.segsG.Set(float64(segs))
}

// Stats reports the buffer's current footprint.
func (b *Buffer) Stats() (bytes int64, segments int, nodes int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, nb := range b.nodes {
		segments += len(nb.done)
		if nb.open != nil {
			segments++
		}
	}
	return b.bytes, segments, len(b.nodes)
}

// Layouts returns every node's registered metric layout — what a freshly
// started shadow monitor must be told before it can ingest.
func (b *Buffer) Layouts() map[string][]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string][]string, len(b.nodes))
	for name, nb := range b.nodes {
		if nb.metrics != nil {
			out[name] = append([]string(nil), nb.metrics...)
		}
	}
	return out
}

// Jobs returns every node's current job and its start time, for priming a
// shadow monitor's segmentation state.
func (b *Buffer) Jobs() map[string][2]int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string][2]int64, len(b.nodes))
	for name, nb := range b.nodes {
		out[name] = [2]int64{nb.job, nb.jobStart}
	}
	return out
}

// TrainInput materializes the buffered corpus as a core.TrainInput: one
// frame per node spanning its buffered range (inter-segment gaps NaN-filled)
// and one job span per buffered segment. Nodes with no samples are omitted.
func (b *Buffer) TrainInput(groups map[string][]int) core.TrainInput {
	b.mu.Lock()
	defer b.mu.Unlock()
	in := core.TrainInput{
		Frames:         map[string]*mts.NodeFrame{},
		Spans:          map[string][]mts.JobSpan{},
		SemanticGroups: groups,
	}
	for name, nb := range b.nodes {
		segs := make([]*segment, 0, len(nb.done)+1)
		segs = append(segs, nb.done...)
		if nb.open != nil && len(nb.open.rows) > 0 {
			segs = append(segs, nb.open)
		}
		if len(segs) == 0 || nb.metrics == nil {
			continue
		}
		// Replay of past timestamps can leave the done list out of order;
		// sort so the gap walk below sees chronological neighbours.
		sort.Slice(segs, func(i, j int) bool { return segs[i].firstTs < segs[j].firstTs })
		// Keep only the newest run of segments whose pairwise gaps fit
		// maxGapSteps: gap cells are NaN-filled into the frame at full metric
		// width but never charged to bufferBytes, so an unbounded gap (a node
		// returning after a long outage) would materialize a frame far past
		// the budget.
		cut := 0
		for i := len(segs) - 1; i > 0; i-- {
			if segs[i].firstTs-segs[i-1].lastTs > b.maxGap {
				cut = i
				break
			}
		}
		if cut > 0 {
			b.gapSkip.Add(int64(cut))
			segs = segs[cut:]
		}
		first, last := segs[0].firstTs, segs[0].lastTs
		for _, s := range segs[1:] {
			if s.firstTs < first {
				first = s.firstTs
			}
			if s.lastTs > last {
				last = s.lastTs
			}
		}
		n := int((last-first)/b.step) + 1
		f := &mts.NodeFrame{
			Node:    name,
			Metrics: append([]string(nil), nb.metrics...),
			Data:    make([][]float64, len(nb.metrics)),
			Start:   first,
			Step:    b.step,
		}
		for m := range f.Data {
			col := make([]float64, n)
			for t := range col {
				col[t] = math.NaN()
			}
			f.Data[m] = col
		}
		var spans []mts.JobSpan
		for _, s := range segs {
			base := int((s.firstTs - first) / b.step)
			for r, row := range s.rows {
				for m := range f.Data {
					if m < len(row) {
						f.Data[m][base+r] = row[m]
					}
				}
			}
			spans = append(spans, mts.JobSpan{
				Job:   s.job,
				Node:  name,
				Start: s.firstTs,
				End:   s.lastTs + b.step,
			})
		}
		in.Frames[name] = f
		in.Spans[name] = spans
	}
	return in
}
