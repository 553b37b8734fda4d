package coord

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"nodesentry/internal/fleetview"
	"nodesentry/internal/lifecycle"
	"nodesentry/internal/obs"
)

// Handler returns the coordinator's full HTTP surface:
//
//	POST /coord/register     ScorerInfo JSON → Assignment
//	POST /coord/heartbeat    {"id": ...} → Assignment (410 Gone → re-register)
//	POST /coord/leave        {"id": ...} → immediate deregistration
//	POST /coord/alerts       AlertEnvelope → AlertVerdict (always 200)
//	GET  /coord/scorers      live membership
//	GET  /coord/assignments  the shard table under one epoch
//	GET  /coord/ledger       alert accounting totals
//	GET  /coord/owner/{node} the node's owning scorer (feeder routing)
//
//	GET  /registry/manifest     model registry manifest (active + lineage)
//	GET  /registry/model/{id}   checksummed payload bytes
//
//	GET  /fleet/...          merged fleet surface (dashboard, state,
//	                         events, node proxy, summed scorer metrics)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /coord/register", c.serveRegister)
	mux.HandleFunc("POST /coord/heartbeat", c.serveHeartbeat)
	mux.HandleFunc("POST /coord/leave", c.serveLeave)
	mux.HandleFunc("POST /coord/alerts", c.serveAlerts)
	mux.HandleFunc("GET /coord/scorers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Scorers())
	})
	mux.HandleFunc("GET /coord/assignments", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Assignments())
	})
	mux.HandleFunc("GET /coord/ledger", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.LedgerSnapshot())
	})
	mux.HandleFunc("GET /coord/owner/{node}", c.serveOwner)

	mux.HandleFunc("GET /registry/manifest", c.serveManifest)
	mux.HandleFunc("GET /registry/model/{id}", c.serveModel)

	mux.Handle("GET /fleet/{$}", fleetview.DashboardHandler("nodesentry fleet — coordinator", c.cfg.VicinityThreshold))
	mux.Handle("GET /fleet/assets/", fleetview.AssetsHandler())
	mux.HandleFunc("GET /fleet/state", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.MergedState())
	})
	mux.HandleFunc("GET /fleet/nodes/{node}", c.serveNodeProxy)
	mux.Handle("GET /fleet/events", fleetview.EventsServer{
		Journal: c.journal,
		Bus:     c.bus,
		Done:    c.done,
	})
	mux.HandleFunc("GET /fleet/incidents", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.egress.Summarizer().Incidents())
	})
	mux.HandleFunc("GET /fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = fmt.Fprint(w, c.MergedMetricsText()) // header sent; nothing left to do on error
	})
	return mux
}

// Mounts adapts Handler to obs.Handler's mount seam, so the coordinator
// serves its control plane, registry and merged fleet view from the same
// listener as its own /metrics.
func (c *Coordinator) Mounts() []obs.Mount {
	h := c.Handler()
	return []obs.Mount{
		{Pattern: "/coord/", Handler: h},
		{Pattern: "/registry/", Handler: h},
		{Pattern: "/fleet/", Handler: h},
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	// Header is out; an encode error has no channel left but the client's
	// truncated read.
	_ = enc.Encode(v)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func (c *Coordinator) serveRegister(w http.ResponseWriter, r *http.Request) {
	var info ScorerInfo
	if !decodeJSON(w, r, &info) {
		return
	}
	if info.ID == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	writeJSON(w, c.Register(info))
}

func (c *Coordinator) serveHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID string `json:"id"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	a, ok := c.Heartbeat(req.ID)
	if !ok {
		// Gone: the lease lapsed (or the coordinator restarted) — the
		// scorer must re-register to rejoin.
		http.Error(w, "unknown scorer: re-register", http.StatusGone)
		return
	}
	writeJSON(w, a)
}

func (c *Coordinator) serveLeave(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID string `json:"id"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	c.Leave(req.ID)
	w.WriteHeader(http.StatusNoContent)
}

// serveAlerts always answers 200: delivery is at-least-once, so a
// non-2xx would make the sender retry an alert the ledger has already
// classified — the verdict in the body is the real answer.
func (c *Coordinator) serveAlerts(w http.ResponseWriter, r *http.Request) {
	var env AlertEnvelope
	if !decodeJSON(w, r, &env) {
		return
	}
	writeJSON(w, c.Accept(env))
}

func (c *Coordinator) serveOwner(w http.ResponseWriter, r *http.Request) {
	info, ok := c.Owner(r.PathValue("node"))
	if !ok {
		http.Error(w, "no owner (empty fleet)", http.StatusNotFound)
		return
	}
	writeJSON(w, info)
}

// ---- model registry ----

// Manifest is the /registry/manifest response.
type Manifest struct {
	// Active is the version scorers should converge on (zero when no
	// version has been activated yet).
	Active    lifecycle.Version   `json:"active"`
	HasActive bool                `json:"has_active"`
	Versions  []lifecycle.Version `json:"versions"`
}

func (c *Coordinator) serveManifest(w http.ResponseWriter, r *http.Request) {
	if c.cfg.Store == nil {
		http.Error(w, "no model registry", http.StatusNotFound)
		return
	}
	var m Manifest
	if act, ok := c.cfg.Store.Active(); ok {
		m.Active, m.HasActive = act, true
	}
	m.Versions = c.cfg.Store.Versions()
	writeJSON(w, m)
}

func (c *Coordinator) serveModel(w http.ResponseWriter, r *http.Request) {
	if c.cfg.Store == nil {
		http.Error(w, "no model registry", http.StatusNotFound)
		return
	}
	raw, v, err := c.cfg.Store.ReadPayload(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Model-ID", v.ID)
	w.Header().Set("X-Model-SHA256", v.SHA256)
	_, _ = w.Write(raw) // header sent; a broken client read has no channel left
}

// serveNodeProxy relays /fleet/nodes/{node} to the node's owning scorer —
// the only per-node surface too heavy (full history rings) to cache
// fleet-wide on every sweep.
func (c *Coordinator) serveNodeProxy(w http.ResponseWriter, r *http.Request) {
	node := r.PathValue("node")
	info, ok := c.Owner(node)
	if !ok || info.ObsURL == "" {
		http.Error(w, "no owner for node", http.StatusNotFound)
		return
	}
	body, err := c.get(info.ObsURL + "/fleet/nodes/" + node)
	if err != nil {
		http.Error(w, fmt.Sprintf("owner %s: %v", info.ID, err), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, body) // relayed verbatim; write errors mean the client left
}
