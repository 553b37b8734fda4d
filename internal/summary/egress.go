package summary

import (
	"context"
	"log/slog"
	"time"

	"nodesentry/internal/obs"
	"nodesentry/internal/runtime"
)

// EgressConfig parameterizes an Egress over items of type T — a
// runtime.Alert on a daemon, a forwarded envelope on the coordinator.
type EgressConfig[T any] struct {
	// Summary, when non-nil, folds correlated items into incidents; nil
	// delivers every item raw, one body each.
	Summary *Config
	// Sink receives the deliveries. Nil posts nothing: incidents are still
	// journaled and the accounting still holds.
	Sink *runtime.WebhookSink
	// Event adapts an item to the clusterer's input. Its Raw field must
	// carry the item itself, so one that does not fold is delivered as it
	// arrived.
	Event func(T) Event
	// SendRaw encodes one item that did not fold and delivers it through
	// the sink as one body.
	SendRaw func(*runtime.WebhookSink, T) error
	// Journal, when non-nil, records every incident transition, updates
	// included, before any webhook delivery for it.
	Journal func(Incident, Transition)
	// Metrics and Logger, when non-nil, are the summarizer's (replacing
	// what Summary carries); Logger also receives delivery failures.
	Metrics *obs.Registry
	Logger  *slog.Logger
}

// Egress is the last hop of the alert line, written once for every tier
// that has one: an item that does not fold is delivered as one raw body; a
// folded group is delivered as one WebhookJSON body when its incident
// opens and one when it resolves; updates reach the journal, not the
// webhook. So the sink sees exactly Stats.Emissions() bodies — one per
// item with Summary nil.
//
// Observe runs on the alert consumer; Run (or Flush, for an owner with its
// own cadence) drives the fold; Close, called after the consumer has
// drained, folds the tail and resolves every open incident while the sink
// is still usable — nothing is delivered after it returns.
type Egress[T any] struct {
	cfg EgressConfig[T]
	sum *Summarizer
}

// NewEgress builds the egress. The Summary config's own OnRaw/OnIncident
// hooks keep firing, ahead of journaling and delivery.
func NewEgress[T any](cfg EgressConfig[T]) *Egress[T] {
	g := &Egress[T]{cfg: cfg}
	if cfg.Summary == nil {
		return g
	}
	scfg := *cfg.Summary
	scfg.Metrics, scfg.Logger = cfg.Metrics, cfg.Logger
	prevRaw, prevInc := scfg.OnRaw, scfg.OnIncident
	scfg.OnRaw = func(e Event) {
		if prevRaw != nil {
			prevRaw(e)
		}
		if item, ok := e.Raw.(T); ok {
			g.sendRaw(item)
		}
	}
	scfg.OnIncident = func(inc Incident, tr Transition) {
		if prevInc != nil {
			prevInc(inc, tr)
		}
		if cfg.Journal != nil {
			cfg.Journal(inc, tr)
		}
		// Updates amend the journaled incident only; webhooks fire on the
		// open and resolve edges — the N→1 delivery reduction.
		if cfg.Sink == nil || (tr != Opened && tr != Resolved) {
			return
		}
		body, err := WebhookJSON(inc, tr)
		if err != nil {
			return
		}
		if err := cfg.Sink.SendRaw(body); err != nil && cfg.Logger != nil {
			cfg.Logger.Warn("incident webhook delivery failed", "incident", inc.ID, "err", err)
		}
	}
	g.sum = New(scfg)
	return g
}

// Observe takes one item off the alert consumer: into the clusterer when
// folding, straight to the sink otherwise.
func (g *Egress[T]) Observe(item T) {
	if g.sum != nil {
		g.sum.Observe(g.cfg.Event(item))
		return
	}
	g.sendRaw(item)
}

func (g *Egress[T]) sendRaw(item T) {
	if g.cfg.Sink == nil {
		return
	}
	if err := g.cfg.SendRaw(g.cfg.Sink, item); err != nil && g.cfg.Logger != nil {
		g.cfg.Logger.Warn("webhook delivery failed", "err", err)
	}
}

// Summarizer returns the folding tier (nil with Summary nil): its Stats
// and Incidents are what /fleet/incidents and the ledgers read.
func (g *Egress[T]) Summarizer() *Summarizer { return g.sum }

// Run flushes on the summarizer's Window until ctx is canceled or Close is
// called; with Summary nil there is nothing to flush and it returns at
// once.
func (g *Egress[T]) Run(ctx context.Context) {
	if g.sum != nil {
		g.sum.Run(ctx)
	}
}

// Flush runs one fold pass at now, for an owner that flushes on its own
// cadence (the coordinator's sweep) instead of Run.
func (g *Egress[T]) Flush(now time.Time) {
	if g.sum != nil {
		g.sum.Flush(now)
	}
}

// Close folds the pending tail, resolves every open incident and delivers
// those last transitions. Idempotent.
func (g *Egress[T]) Close() {
	if g.sum != nil {
		g.sum.Close()
	}
}
