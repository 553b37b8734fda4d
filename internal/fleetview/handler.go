package fleetview

import (
	"embed"
	"encoding/json"
	"fmt"
	"html/template"
	"math"
	"net/http"
	"strconv"
	"time"

	"nodesentry/internal/obs"
)

//go:embed assets
var assetsFS embed.FS

var dashboardTmpl = template.Must(template.ParseFS(assetsFS, "assets/dashboard.html"))

// FleetState is the /fleet/state response: one consistent monitor
// snapshot (Epoch/Seq match the nodesentry_snapshot_epoch/_seq gauges on
// /metrics, so the two surfaces can be reconciled) plus the aggregator's
// per-node rings and vicinity residuals.
type FleetState struct {
	Now     int64  `json:"now"`
	Epoch   int64  `json:"epoch"`
	Seq     uint64 `json:"seq"`
	Dropped int64  `json:"dropped"`
	// JournalSeq is the newest event sequence number; SSE clients use it
	// as the `since` cursor when re-syncing.
	JournalSeq uint64      `json:"journal_seq"`
	Nodes      []NodeState `json:"nodes"`
}

// NodeState is one node's row in FleetState. NaN-valued signals (before
// the first window or match) are serialized as 0 with the corresponding
// Ready flag false, keeping the JSON standard-compliant.
type NodeState struct {
	Node    string `json:"node"`
	Job     int64  `json:"job"`
	Cluster int    `json:"cluster"`
	Matched bool   `json:"matched"`
	Ready   bool   `json:"ready"`
	// Score is the recent mean window score; Distance the last centroid
	// match distance; Threshold the node's current dynamic alert bound.
	Score     float64 `json:"score"`
	Distance  float64 `json:"distance"`
	Threshold float64 `json:"threshold"`
	// VicScore/VicDist are the latest vicinity residuals (robust z vs
	// job peers) for the two signals; Peers the group size they were
	// computed against.
	VicScore float64 `json:"vic_score"`
	VicDist  float64 `json:"vic_dist"`
	Peers    int     `json:"peers"`
	Dropped  int64   `json:"dropped"`
	Spark    []Point `json:"spark,omitempty"`
}

// finite maps NaN (and infinities) to 0 for JSON encoding.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// State assembles the current fleet state. sparkN bounds the inline ring
// points per node (0 = none; capped at sparkPoints).
func (a *Aggregator) State(sparkN int) FleetState {
	sparkN = min(sparkN, sparkPoints)
	view := a.mon.SnapshotConsistent()
	st := FleetState{
		Now:        time.Now().Unix(),
		Epoch:      view.Epoch,
		Seq:        view.Seq,
		Dropped:    view.Dropped,
		JournalSeq: a.journal.Seq(),
		Nodes:      make([]NodeState, 0, len(view.Nodes)),
	}
	a.mu.Lock()
	for _, ns := range view.Nodes {
		row := NodeState{
			Node:      ns.Node,
			Job:       ns.Job,
			Cluster:   ns.Cluster,
			Matched:   ns.Matched,
			Threshold: finite(ns.Threshold),
			Dropped:   ns.Dropped,
		}
		if h, ok := a.nodes[ns.Node]; ok {
			row.Ready = h.n > 0
			row.Score = finite(h.recent(recentWindows))
			row.Distance = finite(h.lastDist)
			row.VicScore = finite(h.vicScore)
			row.VicDist = finite(h.vicDist)
			row.Peers = h.peers
			if sparkN > 0 {
				row.Spark = h.last(sparkN)
			}
		}
		st.Nodes = append(st.Nodes, row)
	}
	a.mu.Unlock()
	return st
}

// NodeDetail is the /fleet/nodes/{node} response: the node's full
// retained ring plus its latest status row and the last R vicinity
// residual evaluations (sustained divergence, not just the latest value).
type NodeDetail struct {
	NodeState
	History   []Point         `json:"history"`
	Residuals []ResidualPoint `json:"residuals,omitempty"`
}

// nodeDetail returns the detail view, or false if the aggregator has
// never seen the node.
func (a *Aggregator) nodeDetail(node string) (NodeDetail, bool) {
	st := a.State(0)
	var row NodeState
	found := false
	for _, r := range st.Nodes {
		if r.Node == node {
			row, found = r, true
			break
		}
	}
	a.mu.Lock()
	h, ok := a.nodes[node]
	var hist []Point
	var res []ResidualPoint
	if ok {
		hist = h.last(h.n)
		res = h.residuals()
		if !found {
			// Seen by the tap but already gone from the monitor snapshot;
			// serve what the ring remembers.
			row = NodeState{Node: node, Ready: h.n > 0, Score: finite(h.recent(recentWindows)),
				Distance: finite(h.lastDist), VicScore: finite(h.vicScore), VicDist: finite(h.vicDist),
				Peers: h.peers, Cluster: h.cluster, Matched: h.matched}
			found = true
		}
	}
	a.mu.Unlock()
	if !found {
		return NodeDetail{}, false
	}
	return NodeDetail{NodeState: row, History: hist, Residuals: res}, true
}

// Handler returns the /fleet/ HTTP handler tree:
//
//	GET /fleet/             embedded d3 dashboard (html/template)
//	GET /fleet/assets/...   static assets (go:embed)
//	GET /fleet/state        fleet state JSON (?spark=N trailing points)
//	GET /fleet/nodes/{node} one node's full history JSON
//	GET /fleet/events       event journal JSON (?since=seq), or a live
//	                        Server-Sent-Events stream when the client
//	                        sends Accept: text/event-stream (or ?stream=1)
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet/{$}", a.serveDashboard)
	mux.Handle("GET /fleet/assets/", http.StripPrefix("/fleet/", http.FileServerFS(assetsFS)))
	mux.HandleFunc("GET /fleet/state", a.serveState)
	mux.HandleFunc("GET /fleet/nodes/{node}", a.serveNode)
	mux.HandleFunc("GET /fleet/events", a.serveEvents)
	mux.HandleFunc("GET /fleet/incidents", a.serveIncidents)
	return mux
}

// Mounts adapts Handler to obs.Handler's mount seam.
func (a *Aggregator) Mounts() []obs.Mount {
	return []obs.Mount{{Pattern: "/fleet/", Handler: a.Handler()}}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	// The header is out; an encode/write error has no channel left but the
	// client's own truncated read.
	_ = enc.Encode(v)
}

func (a *Aggregator) serveState(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	a.met.stateReqs.Inc()
	sparkN := sparkPoints
	if s := r.URL.Query().Get("spark"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "bad spark", http.StatusBadRequest)
			return
		}
		sparkN = n
	}
	st := a.State(sparkN)
	writeJSON(w, st)
	// The snapshot seq doubles as the exemplar trace id: it names the
	// exact fleet state this latency sample measured.
	a.met.stateLat.ObserveExemplar(time.Since(start).Seconds(),
		fmt.Sprintf("state-seq-%d", st.Seq), start.Unix())
}

func (a *Aggregator) serveNode(w http.ResponseWriter, r *http.Request) {
	d, ok := a.nodeDetail(r.PathValue("node"))
	if !ok {
		http.Error(w, "unknown node", http.StatusNotFound)
		return
	}
	writeJSON(w, d)
}

// serveIncidents reports the attached summarizer's live and recently
// resolved incident sets; without a summarizer it serves an empty
// snapshot so the dashboard's incident lane degrades gracefully.
func (a *Aggregator) serveIncidents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, a.sum.Load().Incidents())
}

func (a *Aggregator) serveEvents(w http.ResponseWriter, r *http.Request) {
	EventsServer{
		Journal:   a.journal,
		Bus:       a.bus,
		Done:      a.done,
		OnClients: func(delta int) { a.met.sseClients.Add(float64(delta)) },
	}.ServeHTTP(w, r)
}

// EventsServer serves a journal+bus pair as the /fleet/events endpoint:
// JSON replay (?since=seq) by default, a live Server-Sent-Events stream
// when the client asks (Accept: text/event-stream or ?stream=1). The
// aggregator's own endpoint and the coordinator's merged feed are both
// this handler over different journals; each stream queues up to
// sseBuffer events and pings every sseKeepAlive.
type EventsServer struct {
	Journal *Journal
	Bus     *Bus
	// Done, when non-nil, ends every open stream when closed.
	Done <-chan struct{}
	// OnClients, when non-nil, observes stream open(+1)/close(-1) — the
	// gauge hook.
	OnClients func(delta int)
}

func (s EventsServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	since := uint64(0)
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "bad since", http.StatusBadRequest)
			return
		}
		since = n
	}
	stream := r.URL.Query().Get("stream") == "1"
	for _, accept := range r.Header.Values("Accept") {
		if accept == "text/event-stream" {
			stream = true
		}
	}
	if !stream {
		writeJSON(w, s.Journal.Since(since))
		return
	}
	s.stream(w, r, since)
}

// stream serves the SSE live feed. The whole stream runs on this
// request's own goroutine — no per-client goroutines exist anywhere in
// the path (Bus.Publish fans out inline), so a disconnect unwinds
// everything via defer and nothing can leak. Subscribe happens *before*
// the journal replay and replayed sequence numbers are deduplicated, so
// no event falls in the gap between replay and live.
func (s EventsServer) stream(w http.ResponseWriter, r *http.Request, since uint64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	ch := s.Bus.Subscribe(sseBuffer)
	defer s.Bus.Unsubscribe(ch)
	if s.OnClients != nil {
		s.OnClients(1)
		defer s.OnClients(-1)
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)

	seen := since
	send := func(e Event) bool {
		if e.Seq <= seen {
			return true // replay overlap
		}
		seen = e.Seq
		data, err := json.Marshal(e)
		if err != nil {
			return true // unmarshalable event: skip, keep the stream up
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, e := range s.Journal.Since(since) {
		if !send(e) {
			return
		}
	}
	fl.Flush()

	keep := time.NewTicker(sseKeepAlive)
	defer keep.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.Done:
			return
		case e := <-ch:
			if !send(e) {
				return
			}
		case <-keep.C:
			// SSE comment line: holds idle connections open and surfaces
			// dead clients as write errors.
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func (a *Aggregator) serveDashboard(w http.ResponseWriter, r *http.Request) {
	renderDashboard(w, "nodesentry fleet", a.cfg.VicinityThreshold)
}

func renderDashboard(w http.ResponseWriter, title string, threshold float64) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	err := dashboardTmpl.Execute(w, struct {
		Title             string
		VicinityThreshold float64
	}{
		Title:             title,
		VicinityThreshold: threshold,
	})
	if err != nil {
		// Template data is static and the template parses at init; an
		// error here means the client went away mid-write.
		return
	}
}

// DashboardHandler serves the embedded d3 dashboard standalone — the
// coordinator mounts it over its *merged* fleet surface, so one binary
// renders both the per-daemon and the fleet-wide view from the same
// template. The page only talks to /fleet/state, /fleet/nodes/{id} and
// /fleet/events, whatever serves them.
func DashboardHandler(title string, vicinityThreshold float64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		renderDashboard(w, title, vicinityThreshold)
	})
}

// AssetsHandler serves the embedded /fleet/assets/ tree standalone
// (companion to DashboardHandler for non-Aggregator mounts).
func AssetsHandler() http.Handler {
	return http.StripPrefix("/fleet/", http.FileServerFS(assetsFS))
}
