package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io/fs"
	"net/http"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"sync"

	"nodesentry/internal/core"
	"nodesentry/internal/dataset"
	"nodesentry/internal/features"
	"nodesentry/internal/labeling"
	"nodesentry/internal/mts"
	"nodesentry/internal/preprocess"
)

// tool bundles the dataset, labeling session and (lazily built) cluster
// session behind both front ends. labeling.Store and
// labeling.ClusterSession lock internally, so handlers call them
// directly; t.mu only guards the lazy cluster-session build (and the
// dataset is read-only after startup).
type tool struct {
	mu      sync.Mutex // guards cs initialization only
	ds      *dataset.Dataset
	store   *labeling.Store
	workdir string
	cs      *labeling.ClusterSession
	// fleet, when non-nil, is a running sentryd observability endpoint;
	// its /fleet/ dashboard is reverse-proxied into this UI so the
	// labeling workflow gains the live fleet view it historically lacked.
	fleet *url.URL
}

func newTool(ds *dataset.Dataset, store *labeling.Store, workdir string) *tool {
	return &tool{ds: ds, store: store, workdir: workdir}
}

func (t *tool) save() error {
	return t.store.Save(t.workdir)
}

// clusters lazily builds the cluster session from the dataset's training
// split (cleaned frames, job segmentation, feature extraction, HAC) and
// applies the workdir's cluster_adjust.txt, so moves saved by an earlier
// run persist; a missing file means a fresh session. A malformed file is
// an error, and the session is not cached until it loads. t.mu
// serializes the build; the returned session locks internally.
func (t *tool) clusters() (*labeling.ClusterSession, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cs != nil {
		return t.cs, nil
	}
	frames := map[string]*mts.NodeFrame{}
	var segs []mts.Segment
	for _, node := range t.ds.Nodes() {
		f := t.ds.TrainFrames()[node].Clone()
		preprocess.Clean(f)
		frames[node] = f
		segs = append(segs, preprocess.Segment(f, t.ds.SpansForNode(node, 0, t.ds.SplitTime()), 16)...)
	}
	F := features.Matrix(frames, segs)
	features.NormalizeColumns(F)
	cs := labeling.NewClusterSession(F, segs, 2, 12)
	err := cs.LoadAdjustments(filepath.Join(t.workdir, "cluster_adjust.txt"))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	t.cs = cs
	return cs, nil
}

// suggest runs the built-in statistical detector (per-metric z-score
// magnitude + dynamic k-sigma threshold) over a node's full frame and
// returns interval suggestions.
func (t *tool) suggest(node string) []labeling.Suggestion {
	frame, ok := t.ds.Frames[node]
	if !ok {
		return nil
	}
	f := frame.Clone()
	preprocess.Clean(f)
	std := preprocess.FitStandardizer(map[string]*mts.NodeFrame{node: f.Clone()}, 0.05, 5)
	std.Apply(f)
	scores := make([]float64, f.Len())
	for t2 := 0; t2 < f.Len(); t2++ {
		s := 0.0
		for m := range f.Data {
			v := f.Data[m][t2]
			s += v * v
		}
		scores[t2] = s / float64(f.NumMetrics())
	}
	preds := core.KSigmaThreshold(scores, f.Step, 1200, 3)
	return labeling.Suggest(f, scores, preds, "statistical-ksigma")
}

// ---- HTTP layer ----

func (t *tool) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", t.handleIndex)
	mux.HandleFunc("/api/nodes", t.handleNodes)
	mux.HandleFunc("/api/series", t.handleSeries)
	mux.HandleFunc("/api/labels", t.handleLabels)
	mux.HandleFunc("/api/label", t.handleLabel)
	mux.HandleFunc("/api/cancel", t.handleCancel)
	mux.HandleFunc("/api/suggest", t.handleSuggest)
	mux.HandleFunc("/api/clusters", t.handleClusters)
	mux.HandleFunc("/api/move", t.handleMove)
	mux.HandleFunc("/api/save", t.handleSave)
	if t.fleet != nil {
		mux.Handle("/fleet/", httputil.NewSingleHostReverseProxy(t.fleet))
	}
	return mux
}

func (t *tool) serve(addr string) error {
	return http.ListenAndServe(addr, t.handler())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (t *tool) handleNodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, t.ds.Nodes())
}

type seriesResponse struct {
	Node    string    `json:"node"`
	Metric  string    `json:"metric"`
	Times   []int64   `json:"times"`
	Values  []float64 `json:"values"`
	Metrics []string  `json:"metrics"`
}

func (t *tool) handleSeries(w http.ResponseWriter, r *http.Request) {
	node := r.URL.Query().Get("node")
	metric := r.URL.Query().Get("metric")
	frame, ok := t.ds.Frames[node]
	if !ok {
		http.Error(w, "unknown node", http.StatusNotFound)
		return
	}
	mi := 0
	for i, m := range frame.Metrics {
		if m == metric {
			mi = i
			break
		}
	}
	const maxPoints = 2000
	stride := 1
	if frame.Len() > maxPoints {
		stride = frame.Len() / maxPoints
	}
	resp := seriesResponse{Node: node, Metric: frame.Metrics[mi], Metrics: frame.Metrics}
	for i := 0; i < frame.Len(); i += stride {
		resp.Times = append(resp.Times, frame.TimeAt(i))
		resp.Values = append(resp.Values, frame.Data[mi][i])
	}
	writeJSON(w, resp)
}

func (t *tool) handleLabels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, t.store.NodeLabels(r.URL.Query().Get("node")))
}

type intervalRequest struct {
	Node  string `json:"node"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

func (t *tool) handleLabel(w http.ResponseWriter, r *http.Request) {
	var req intervalRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := t.store.Label(req.Node, mts.Interval{Start: req.Start, End: req.End}); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, t.store.NodeLabels(req.Node))
}

func (t *tool) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req intervalRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	t.store.Cancel(req.Node, mts.Interval{Start: req.Start, End: req.End})
	writeJSON(w, t.store.NodeLabels(req.Node))
}

func (t *tool) handleSuggest(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, t.suggest(r.URL.Query().Get("node")))
}

type clustersResponse struct {
	K          int     `json:"k"`
	Silhouette float64 `json:"silhouette"`
	Adjusted   int     `json:"adjusted"`
	Segments   []struct {
		Index   int    `json:"index"`
		Node    string `json:"node"`
		Job     int64  `json:"job"`
		Len     int    `json:"len"`
		Cluster int    `json:"cluster"`
	} `json:"segments"`
}

func (t *tool) handleClusters(w http.ResponseWriter, r *http.Request) {
	cs, err := t.clusters()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	labels := cs.Labels()
	resp := clustersResponse{K: cs.NumClusters(), Silhouette: cs.Silhouette(), Adjusted: cs.Adjusted()}
	for i, seg := range cs.Segments {
		resp.Segments = append(resp.Segments, struct {
			Index   int    `json:"index"`
			Node    string `json:"node"`
			Job     int64  `json:"job"`
			Len     int    `json:"len"`
			Cluster int    `json:"cluster"`
		}{i, seg.Node, seg.Job, seg.Len(), labels[i]})
	}
	writeJSON(w, resp)
}

func (t *tool) handleMove(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Segment int `json:"segment"`
		Cluster int `json:"cluster"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cs, err := t.clusters()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := cs.Move(req.Segment, req.Cluster); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := cs.Save(t.workdir); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{"ok": true, "silhouette": cs.Silhouette()})
}

func (t *tool) handleSave(w http.ResponseWriter, r *http.Request) {
	if err := t.save(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{"ok": true})
}

var indexTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>NodeSentry labeltool</title>
<style>
body { font-family: sans-serif; margin: 1.5em; }
svg { border: 1px solid #ccc; background: #fafafa; }
.label { fill: rgba(220, 60, 60, 0.25); }
.suggestion { fill: rgba(60, 60, 220, 0.18); }
table { border-collapse: collapse; } td, th { padding: 2px 8px; border: 1px solid #ddd; }
</style></head>
<body>
<h2>NodeSentry labeling &amp; cluster-adjustment tool — {{.Dataset}}</h2>
{{if .Fleet}}<p><a href="{{.Fleet}}" target="_blank">live fleet dashboard ↗</a> (proxied from sentryd)</p>{{end}}
<p>
 node <select id="node"></select>
 metric <select id="metric"></select>
 <button onclick="loadSeries()">plot</button>
 <button onclick="suggest()">suggest anomalies</button>
 <button onclick="save()">save session</button>
</p>
<svg id="chart" width="1100" height="320"></svg>
<p>drag on the chart to label an interval; shift-drag to cancel labels.</p>
<h3>clusters</h3>
<div id="clusters"></div>
<script>
let series = null, labels = [], suggestions = [];
async function getJSON(u){ const r = await fetch(u); return r.json(); }
async function postJSON(u, body){ const r = await fetch(u, {method:'POST', body: JSON.stringify(body)}); return r.json(); }
async function init(){
  const nodes = await getJSON('/api/nodes');
  const sel = document.getElementById('node');
  nodes.forEach(n => sel.add(new Option(n, n)));
  await loadSeries();
  await loadClusters();
}
async function loadSeries(){
  const node = document.getElementById('node').value;
  const metric = document.getElementById('metric').value || '';
  series = await getJSON('/api/series?node='+node+'&metric='+encodeURIComponent(metric));
  const msel = document.getElementById('metric');
  if (msel.options.length === 0) series.metrics.forEach(m => msel.add(new Option(m, m)));
  labels = await getJSON('/api/labels?node='+node) || [];
  draw();
}
function xScale(t){ const t0 = series.times[0], t1 = series.times[series.times.length-1];
  return 40 + (t - t0) / (t1 - t0) * 1040; }
function draw(){
  const svg = document.getElementById('chart');
  svg.innerHTML = '';
  if (!series || series.values.length === 0) return;
  let lo = Math.min(...series.values), hi = Math.max(...series.values);
  if (hi === lo) hi = lo + 1;
  const y = v => 300 - (v - lo) / (hi - lo) * 280;
  const rect = (iv, cls) => {
    const r = document.createElementNS('http://www.w3.org/2000/svg','rect');
    r.setAttribute('x', xScale(iv.Start)); r.setAttribute('width', Math.max(2, xScale(iv.End)-xScale(iv.Start)));
    r.setAttribute('y', 10); r.setAttribute('height', 300); r.setAttribute('class', cls);
    svg.appendChild(r);
  };
  (labels||[]).forEach(l => rect(l, 'label'));
  suggestions.forEach(s => rect(s.Span, 'suggestion'));
  const pts = series.times.map((t,i) => xScale(t)+','+y(series.values[i])).join(' ');
  const pl = document.createElementNS('http://www.w3.org/2000/svg','polyline');
  pl.setAttribute('points', pts); pl.setAttribute('fill','none'); pl.setAttribute('stroke','#333');
  svg.appendChild(pl);
}
let dragStart = null;
document.getElementById('chart').addEventListener('mousedown', e => { dragStart = {x: e.offsetX, shift: e.shiftKey}; });
document.getElementById('chart').addEventListener('mouseup', async e => {
  if (!dragStart || !series) return;
  const t0 = series.times[0], t1 = series.times[series.times.length-1];
  const toT = x => Math.round(t0 + (x - 40) / 1040 * (t1 - t0));
  const a = Math.min(dragStart.x, e.offsetX), b = Math.max(dragStart.x, e.offsetX);
  const node = document.getElementById('node').value;
  const url = dragStart.shift ? '/api/cancel' : '/api/label';
  labels = await postJSON(url, {node: node, start: toT(a), end: toT(b)});
  dragStart = null; draw();
});
async function suggest(){
  const node = document.getElementById('node').value;
  suggestions = await getJSON('/api/suggest?node='+node) || [];
  draw();
}
async function save(){ await postJSON('/api/save', {}); alert('saved'); }
async function loadClusters(){
  const c = await getJSON('/api/clusters');
  let html = '<p>k='+c.k+' silhouette='+c.silhouette.toFixed(3)+' adjusted='+c.adjusted+'</p>';
  html += '<table><tr><th>#</th><th>node</th><th>job</th><th>len</th><th>cluster</th><th>move to</th></tr>';
  c.segments.forEach(s => {
    html += '<tr><td>'+s.index+'</td><td>'+s.node+'</td><td>'+s.job+'</td><td>'+s.len+'</td><td>'+s.cluster+'</td>';
    html += '<td><input size=2 id="mv'+s.index+'"><button onclick="move('+s.index+')">go</button></td></tr>';
  });
  html += '</table>';
  document.getElementById('clusters').innerHTML = html;
}
async function move(i){
  const c = parseInt(document.getElementById('mv'+i).value);
  await postJSON('/api/move', {segment: i, cluster: c});
  await loadClusters();
}
init();
</script>
</body></html>`))

func (t *tool) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fleet := ""
	if t.fleet != nil {
		fleet = "/fleet/"
	}
	err := indexTemplate.Execute(w, map[string]string{"Dataset": t.ds.Name, "Fleet": fleet})
	if err != nil {
		fmt.Println("labeltool: render:", err)
	}
}
