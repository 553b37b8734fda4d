package summary

import (
	"encoding/json"
	"strconv"

	"nodesentry/internal/runtime"
)

// FamilyOf is the metric family an alert clusters on: the Table 3
// category of the diagnosis' dominant finding, falling back to the
// Table 1 fault level, then "Unknown".
func FamilyOf(a runtime.Alert) string {
	if len(a.Diagnosis.Findings) > 0 && a.Diagnosis.Findings[0].Category != "" {
		return a.Diagnosis.Findings[0].Category
	}
	if a.Diagnosis.Level != "" {
		return a.Diagnosis.Level
	}
	return "Unknown"
}

// FromAlert converts a monitor alert into a summarizer event: the family
// from the diagnosis, the node/job/level labels, and the original alert
// retained in Raw so the raw path re-emits it byte-identically.
func FromAlert(a runtime.Alert) Event {
	e := Event{
		Ts:       a.Time,
		Metric:   FamilyOf(a),
		Severity: a.Score,
		Priority: int(a.Priority),
		Raw:      a,
		Tags: map[string]string{
			"node": a.Node,
			"job":  strconv.FormatInt(a.Job, 10),
		},
	}
	if a.Diagnosis.Level != "" {
		e.Tags["level"] = a.Diagnosis.Level
	}
	if len(a.Diagnosis.Findings) > 0 {
		if a.Diagnosis.Findings[0].Direction < 0 {
			e.Direction = "decrease"
		} else {
			e.Direction = "increase"
		}
	}
	return e
}

// incidentPayload is the folded webhook wire format: one semantic event
// standing in for Count raw deliveries. Kind distinguishes it from the
// per-alert payload on a shared receiver.
type incidentPayload struct {
	Kind      Transition          `json:"kind"`
	ID        string              `json:"id"`
	Title     string              `json:"title"`
	State     string              `json:"state"`
	Metric    string              `json:"metric"`
	FirstTs   int64               `json:"first_ts"`
	LastTs    int64               `json:"last_ts"`
	Count     int                 `json:"count"`
	Severity  float64             `json:"severity"`
	Priority  string              `json:"priority"`
	Constant  map[string]string   `json:"constant_tags"`
	Varying   map[string][]string `json:"varying_tags"`
	Dimension string              `json:"dimension"`
	Members   []string            `json:"members,omitempty"`
	Truncated bool                `json:"truncated,omitempty"`
}

// WebhookJSON renders the folded webhook body for one incident
// transition — the single POST that replaces Count per-alert deliveries.
func WebhookJSON(inc Incident, trans Transition) ([]byte, error) {
	p := incidentPayload{
		Kind:      trans,
		ID:        inc.ID,
		Title:     inc.Title,
		State:     inc.State,
		Metric:    inc.Metric,
		FirstTs:   inc.FirstTs,
		LastTs:    inc.LastTs,
		Count:     inc.Count,
		Severity:  inc.Severity,
		Priority:  runtime.Priority(inc.Priority).String(),
		Constant:  inc.ConstantTags,
		Varying:   inc.VaryingTags,
		Dimension: inc.Dimension,
		Members:   inc.VaryingTags[inc.Dimension],
		Truncated: inc.Truncated,
	}
	return json.Marshal(p)
}
