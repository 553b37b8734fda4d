package runtime

import (
	"sync"
	"time"

	"nodesentry/internal/core"
	"nodesentry/internal/mat"
	"nodesentry/internal/mts"
)

// window is one queue slot: a lane-owned, metric-major copy of a node's
// window, so the node's ring advances as soon as the window is queued. A
// slot keeps its matrix when the queue is recycled, so a steady stream of
// windows reuses a handful of frames instead of allocating one per window.
type window struct {
	st      *nodeState
	cluster int
	offset  int
	scores  []float64 // nil until the flush has scored the window

	f    mts.NodeFrame
	mat  *mat.Matrix
	rows [][]float64
}

// fill transposes T row-major samples (len(metrics) values each) into the
// slot's frame, reusing its storage when the shape fits.
func (w *window) fill(node string, metrics []string, vals []float64, T int, start, step int64) {
	M := len(metrics)
	if w.mat == nil || w.mat.Rows < M || w.mat.Cols < T {
		w.mat = mat.New(M, T)
	}
	w.rows = w.mat.RowViews(w.rows[:0], T)
	data := w.rows[:M]
	for t := 0; t < T; t++ {
		row := vals[t*M : (t+1)*M]
		for m, v := range row {
			data[m][t] = v
		}
	}
	w.f = mts.NodeFrame{Node: node, Metrics: metrics, Data: data, Start: start, Step: step}
}

// lane is one of the monitor's ScoringWorkers scoring lanes: a detector
// clone (a Detector is not safe for concurrent use) with the queue of
// windows waiting for it. A node is bound to one lane for life, so its
// windows are queued, scored and absorbed in order whatever the goroutine
// interleaving, and lanes never wait for each other.
//
// Lock order: lane.mu → nodeState.mu → lane.qmu.
type lane struct {
	// mu is the scoring lock, held for the whole of a pattern match or a
	// flush. It guards the detector, its epoch, and the scratch below.
	mu      sync.Mutex
	det     *core.Detector
	epoch   int64
	probe   window           // the frame a pattern match runs on
	spare   []window         // the drained half of the queue's double buffer
	frames  []*mts.NodeFrame // one cluster group's ScoreFrameBatch arguments
	offsets []int

	// qmu guards the queue. It is a leaf: nothing is acquired under it.
	qmu    sync.Mutex
	queue  []window
	oldest time.Time // when the queue last went from empty to non-empty
}

// enqueue moves every complete window of st's ring into the lane's queue
// and returns the queue length right after the last one (0 when the ring
// held no complete window). Called with st.mu held.
func (ln *lane) enqueue(st *nodeState, win int, step int64) (queued int) {
	r := &st.ring
	if win <= 0 || r.n < win {
		return 0
	}
	lo := 0
	ln.qmu.Lock()
	if len(ln.queue) == 0 {
		ln.oldest = time.Now()
	}
	for ; r.n-lo >= win; lo += win {
		n := len(ln.queue)
		if n < cap(ln.queue) {
			ln.queue = ln.queue[:n+1] // a recycled slot: its frame storage is reused
		} else {
			//lint:ignore hotalloc grow-once lane scratch: queue and spare stop growing at the peak batch size
			ln.queue = append(ln.queue, window{})
		}
		w := &ln.queue[n]
		w.st, w.cluster, w.offset, w.scores = st, st.cluster, st.consumed, nil
		w.fill(st.node, st.metrics, r.vals[lo*r.width:(lo+win)*r.width], win, r.ts[lo], step)
		st.consumed += win
	}
	queued = len(ln.queue)
	ln.qmu.Unlock()
	r.drop(lo)
	return queued
}

// due reports whether the lane should be flushed now: the caller's enqueue
// left at least a batch in the queue, or the oldest queued window has
// waited past BatchMaxDelay. Judging the size from the length the caller's
// own enqueue returned (not a fresh read) means that at a batch of one
// every enqueue is followed by a flush that takes the scoring lock, so the
// window is scored before Ingest returns even when a concurrent flush of
// the same lane picked it up first.
func (ln *lane) due(m *Monitor, queued int) bool {
	if queued >= m.batch {
		return true
	}
	ln.qmu.Lock()
	defer ln.qmu.Unlock()
	return len(ln.queue) > 0 && time.Since(ln.oldest) >= m.cfg.BatchMaxDelay
}

// match runs the pattern match for a node whose probe has filled, then
// queues the probe samples as the job's first windows. The caller holds no
// lock, so the state is re-checked under the lane and node locks.
func (ln *lane) match(m *Monitor, st *nodeState) (queued int) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	r := &st.ring
	if !st.matched && r.n >= int(m.probeLen.Load()) {
		ln.probe.fill(st.node, st.metrics, r.vals[:r.n*r.width], r.n, r.ts[0], m.cfg.Step)
		var t0 time.Time
		if m.obsOn {
			t0 = time.Now()
		}
		asg := ln.det.MatchPattern(&ln.probe.f)
		if m.obsOn {
			m.met.matchLat.Observe(time.Since(t0).Seconds())
			if asg.Matched {
				m.met.matchedOK.Inc()
			} else {
				m.met.matchedMiss.Inc()
			}
		}
		if h := m.hooks.Load(); h != nil && h.OnMatch != nil {
			h.OnMatch(st.node, asg.Cluster, asg.Distance, asg.Matched)
		}
		st.matched = true
		st.cluster = asg.Cluster
	}
	if st.matched {
		queued = ln.enqueue(st, int(m.win.Load()), m.cfg.Step)
	}
	st.bufGauge.Set(float64(r.n))
	return queued
}

// flush scores and absorbs everything queued on the lane.
func (ln *lane) flush(m *Monitor) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.flushLocked(m)
}

// flushLocked drains the queue with ln.mu held. Windows are grouped by
// cluster in queue order, at most a batch per group; each group goes
// through the model as one stacked forward pass (a group of one is a plain
// single-window pass), and the results are absorbed per window in queue
// order, so one node's windows stay in order. This is the only place the
// runtime invokes the model.
func (ln *lane) flushLocked(m *Monitor) {
	ln.qmu.Lock()
	batch := ln.queue
	ln.queue = ln.spare[:0]
	ln.qmu.Unlock()
	ln.spare = batch
	n := len(batch)
	if n == 0 {
		return
	}
	if cap(ln.frames) < n {
		//lint:ignore hotalloc grow-once lane scratch: reallocated only when a flush exceeds every previous batch size
		ln.frames = make([]*mts.NodeFrame, n)
	}
	ln.offsets = mat.GrowInts(ln.offsets, n)
	for i := range batch {
		if batch[i].scores != nil {
			continue
		}
		// Gather the next group: up to a batch of not-yet-scored windows
		// sharing this one's cluster.
		cluster := batch[i].cluster
		k := 0
		for j := i; j < n && k < m.batch; j++ {
			if batch[j].scores == nil && batch[j].cluster == cluster {
				ln.frames[k], ln.offsets[k] = &batch[j].f, batch[j].offset
				k++
			}
		}
		var t0 time.Time
		if m.obsOn {
			t0 = time.Now()
		}
		group := ln.det.ScoreFrameBatch(ln.frames[:k], cluster, ln.offsets[:k])
		if m.obsOn {
			m.met.scoreLat.Observe(time.Since(t0).Seconds())
		}
		m.met.windows.Add(int64(k))
		// Hand the scores out by walking the members again: the predicate
		// above still picks exactly them, in the same order.
		for j, g := i, 0; g < k; j++ {
			if batch[j].scores == nil && batch[j].cluster == cluster {
				batch[j].scores = group[g]
				m.met.samples.Add(int64(len(group[g])))
				g++
			}
		}
	}

	for i := range batch {
		w := &batch[i]
		st := w.st
		st.mu.Lock()
		if h := m.hooks.Load(); h != nil && h.OnScores != nil {
			h.OnScores(st.node, w.cluster, w.f.Start, w.scores)
		}
		if last := w.f.TimeAt(w.f.Len() - 1); last > st.lastScored {
			st.lastScored = last
		}
		emit := m.absorbScores(ln.det, st, &w.f, w.scores)
		st.mu.Unlock()
		for k := range emit {
			emit[k].Epoch = ln.epoch
			m.deliver(st, emit[k])
		}
	}
}

// Flush scores every queued window now, lane by lane. A job transition
// flushes the node's own lane, and SwapDetector and Close flush every lane,
// so explicit calls are only for callers that run with BatchWindows > 1 and
// need a deterministic drain (tests, shutdown paths).
func (m *Monitor) Flush() {
	for _, ln := range m.lanes {
		ln.flush(m)
	}
}
