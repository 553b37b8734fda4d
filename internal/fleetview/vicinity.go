package fleetview

import (
	"fmt"
	"math"
	"time"

	"nodesentry/internal/stats"
)

var nan = math.NaN()

// VicinityAlert reports a node diverging from its job-peer group: its
// recent score or centroid distance sits more than VicinityThreshold
// robust standard deviations above the peer median. It is the fleet-level
// alert reason — fired from peer statistics, not the node's own dynamic
// threshold, so it catches a node that looks normal against its own
// history but abnormal against the machines running the same job
// (Ghiasvand & Ciorba's vicinity argument).
type VicinityAlert struct {
	Node string `json:"node"`
	Job  int64  `json:"job"`
	Ts   int64  `json:"ts"`
	// Signal names which measurement diverged: "score" or "distance".
	Signal string `json:"signal"`
	// Residual is the robust z: 0.6745·(x−median)/MAD against the peers.
	Residual float64 `json:"residual"`
	Value    float64 `json:"value"`
	Median   float64 `json:"median"`
	Peers    int     `json:"peers"`
}

// robustZ is the one-sided robust z-score of x against its peer sample:
// 0.6745·(x−median)/MAD, the standard consistency scaling that makes MAD
// comparable to a Gaussian σ. The MAD is floored at 5 % of |median| (plus
// an absolute epsilon) so a freakishly tight peer group — every node
// scoring 0.0101 vs 0.0100 — cannot manufacture huge residuals out of
// noise. Divergence below the median returns 0: a node *healthier* than
// its peers is not an anomaly.
func robustZ(x, med, mad float64) float64 {
	if x <= med {
		return 0
	}
	floor := 0.05*math.Abs(med) + 1e-9
	if mad < floor {
		mad = floor
	}
	return 0.6745 * (x - med) / mad
}

// madAround is the median absolute deviation of xs around med.
func madAround(xs []float64, med float64) float64 {
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return stats.Median(dev)
}

// peerSample is one node's contribution to its job group's distributions.
type peerSample struct {
	node  string
	score float64 // recent mean window score (NaN before first window)
	dist  float64 // last match distance (NaN before first match)
}

// Evaluate recomputes every node's vicinity residuals against its current
// job-peer group and journals/announces alerts for nodes beyond the
// threshold. It is called by Run on a ticker and directly by tests; it is
// safe concurrently with ingestion. Returns the alerts fired this pass.
func (a *Aggregator) Evaluate() []VicinityAlert {
	now := time.Now().Unix()
	view := a.mon.SnapshotConsistent()

	// Group live nodes by job. The monitor's Job assignment is the
	// vicinity: nodes running the same job are expected to behave alike.
	groups := map[int64][]peerSample{}
	a.mu.Lock()
	for _, ns := range view.Nodes {
		h, ok := a.nodes[ns.Node]
		if !ok {
			continue
		}
		groups[ns.Job] = append(groups[ns.Job], peerSample{
			node:  ns.Node,
			score: h.recent(recentWindows),
			dist:  h.lastDist,
		})
	}
	a.mu.Unlock()

	type residual struct {
		sample            peerSample
		job               int64
		zScore, zDist     float64
		medScore, medDist float64
		peers             int
	}
	var res []residual
	evaluated := 0
	for job, peers := range groups {
		scores := make([]float64, 0, len(peers))
		dists := make([]float64, 0, len(peers))
		for _, p := range peers {
			if !math.IsNaN(p.score) {
				scores = append(scores, p.score)
			}
			if !math.IsNaN(p.dist) {
				dists = append(dists, p.dist)
			}
		}
		scoreOK := len(scores) >= minPeers
		distOK := len(dists) >= minPeers
		if !scoreOK && !distOK {
			continue
		}
		evaluated++
		var medS, madS, medD, madD float64
		if scoreOK {
			medS = stats.Median(scores)
			madS = madAround(scores, medS)
		}
		if distOK {
			medD = stats.Median(dists)
			madD = madAround(dists, medD)
		}
		for _, p := range peers {
			r := residual{sample: p, job: job, zScore: nan, zDist: nan, peers: len(peers)}
			if scoreOK && !math.IsNaN(p.score) {
				r.zScore, r.medScore = robustZ(p.score, medS, madS), medS
			}
			if distOK && !math.IsNaN(p.dist) {
				r.zDist, r.medDist = robustZ(p.dist, medD, madD), medD
			}
			res = append(res, r)
		}
	}

	// Publish residuals into node state + gauges, collect alerts under
	// cooldown. Gauges report 0 (not NaN) before a node is evaluable so
	// the exposition stays parseable.
	var alerts []VicinityAlert
	a.mu.Lock()
	for _, r := range res {
		h, ok := a.nodes[r.sample.node]
		if !ok {
			continue
		}
		h.vicScore, h.vicDist, h.peers = r.zScore, r.zDist, r.peers
		gz := func(z float64) float64 {
			if math.IsNaN(z) {
				return 0
			}
			return z
		}
		h.resScoreG.Set(gz(r.zScore))
		h.resDistG.Set(gz(r.zDist))
		h.pushResidual(ResidualPoint{Ts: now, Score: gz(r.zScore), Dist: gz(r.zDist), Peers: r.peers})

		// A signal fires only on sustained divergence: the current
		// residual is over the threshold AND at least sustainK of the
		// last sustainN evaluations (the residual ring, current pass
		// included) were too. One elevated sample is a blip; k of n is a
		// diverging node.
		thr := a.cfg.VicinityThreshold
		overNow := func(z float64) bool { return !math.IsNaN(z) && z >= thr }
		held := func(dist bool) bool {
			return h.sustained(sustainN, thr, dist) >= sustainK
		}
		signal, z, val, med := "", 0.0, 0.0, 0.0
		switch {
		case overNow(r.zScore) && held(false):
			signal, z, val, med = "score", r.zScore, r.sample.score, r.medScore
		case overNow(r.zDist) && held(true):
			signal, z, val, med = "distance", r.zDist, r.sample.dist, r.medDist
		default:
			continue
		}
		if now-h.lastVicAlert < vicinityCooldownSec {
			continue
		}
		h.lastVicAlert = now
		alerts = append(alerts, VicinityAlert{
			Node: r.sample.node, Job: r.job, Ts: now,
			Signal: signal, Residual: z, Value: val, Median: med, Peers: r.peers,
		})
	}
	a.mu.Unlock()

	a.met.evals.Inc()
	a.met.vicGroups.Set(float64(evaluated))
	for _, al := range alerts {
		a.met.vicAlerts.Inc()
		a.emit(Event{
			Ts:   al.Ts,
			Kind: EventVicinity,
			Node: al.Node,
			Detail: fmt.Sprintf("signal=%s residual=%.2f value=%.4f peer_median=%.4f peers=%d job=%d",
				al.Signal, al.Residual, al.Value, al.Median, al.Peers, al.Job),
			Value: al.Residual,
		})
		if a.log != nil {
			a.log.Info("vicinity alert", "node", al.Node, "job", al.Job,
				"signal", al.Signal, "residual", al.Residual, "peers", al.Peers)
		}
	}
	return alerts
}
