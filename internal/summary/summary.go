// Package summary is NodeSentry's semantic alert summarization tier: the
// layer between the raw alert stream and the operator. The paper's §5.1
// workflow deliberately alerts per node, so a correlated infrastructure
// fault — a dead switch, a failing PDU, one job OOMing every rank — fans
// out into hundreds of simultaneous webhooks. This package folds that
// flood back into meaning: it partitions alert labels into constant vs
// varying dimensions (the datadog-agent anomaly-summary staging's tag
// relationship discovery), clusters alerts by time proximity and metric
// family into bounded live Incident objects ("Memory anomaly across 24
// nodes (job=8812)") with an open/update/resolve lifecycle, and emits one
// semantic event instead of N deliveries.
//
// The partitioning contract follows the staged blueprint exactly: given a
// group of alert-derived events, a label key whose single value appears on
// every event is constant (shared context: the job, the metric family);
// a key with several values — or missing from some events — is varying,
// and the varying key with the most distinct values is the dimension the
// incident spans (usually the node list). Everything is stdlib-only, like
// the rest of the module.
package summary

import (
	"sort"
	"strconv"
	"strings"
)

// Event is one alert-derived observation entering the summarizer: the
// alert's timestamp, the metric family that drove it, its label set, and
// severity. Raw carries the original payload (a runtime.Alert, a
// coordinator envelope) so events that do not fold into an incident can be
// re-emitted on the raw path byte-identically.
type Event struct {
	// Ts is the alert's Unix timestamp.
	Ts int64
	// Metric is the metric family being clustered over ("Memory", "CPU",
	// …) — the diagnosis category of the alert's dominant finding.
	Metric string
	// Tags are the alert's labels: node, job, level, scorer of origin.
	Tags map[string]string
	// Severity is the alert's score; Priority its alert priority.
	Severity float64
	Priority int
	// Direction records whether the dominant metric deviated above
	// ("increase") or below ("decrease") its typical level.
	Direction string
	// Raw is the original alert payload for raw re-emission.
	Raw any
}

// TagPartition is the outcome of tag relationship discovery over one
// group of events: which label keys are shared context and which are the
// dimensions the group varies over.
type TagPartition struct {
	// ConstantTags maps each key present on every event with a single
	// value to that value.
	ConstantTags map[string]string
	// VaryingTags maps every other observed key to its distinct values,
	// sorted. A key missing from some events is varying: it does not
	// describe the whole group.
	VaryingTags map[string][]string
}

// Dimension returns the varying key the partition clusters over: the key
// with the most distinct values, preferring "node" on ties (the fleet's
// natural spread dimension), then the lexicographically smallest key.
// Empty when nothing varies.
func (p TagPartition) Dimension() string {
	best, bestN := "", 0
	for k, vs := range p.VaryingTags {
		switch {
		case len(vs) > bestN:
			best, bestN = k, len(vs)
		case len(vs) == bestN && best != "node" && (k == "node" || k < best):
			best = k
		}
	}
	return best
}

// title renders the operator-facing one-liner for an incident over the
// partition: "Memory anomaly across 24 nodes (job=8812)".
func title(metric string, p TagPartition, count int) string {
	var b strings.Builder
	if metric == "" {
		metric = "Unknown"
	}
	b.WriteString(metric)
	b.WriteString(" anomaly")
	if dim := p.Dimension(); dim != "" {
		b.WriteString(" across ")
		b.WriteString(strconv.Itoa(len(p.VaryingTags[dim])))
		b.WriteString(" ")
		b.WriteString(dim)
		b.WriteString("s")
	} else if node, ok := p.ConstantTags["node"]; ok {
		b.WriteString(" on ")
		b.WriteString(node)
	}
	if extras := constantSummary(p.ConstantTags); extras != "" {
		b.WriteString(" (")
		b.WriteString(extras)
		b.WriteString(")")
	}
	if count > 1 {
		b.WriteString(" — ")
		b.WriteString(strconv.Itoa(count))
		b.WriteString(" alerts")
	}
	return b.String()
}

// constantSummary renders the shared context tags, key-sorted, skipping
// the ones the title already spends ("node" when constant is the "on X"
// clause; "level" duplicates the metric family for single-family groups).
func constantSummary(constant map[string]string) string {
	keys := make([]string, 0, len(constant))
	for k := range constant {
		if k == "node" || k == "level" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(constant[k])
	}
	return b.String()
}
