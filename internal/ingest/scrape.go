package ingest

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"nodesentry/internal/obs"
)

// ScrapeConfig parameterizes the pull half of the gateway.
type ScrapeConfig struct {
	// Targets are /metrics URLs polled every Interval.
	Targets []string
	// Interval between sweeps (default 15 s).
	Interval time.Duration
	// Timeout bounds one target fetch (default 5 s).
	Timeout time.Duration
	// MaxBodyBytes caps one scrape body (default DefaultMaxBodyBytes). A
	// larger body fails the scrape; its prefix is never decoded.
	MaxBodyBytes int64
	// Client defaults to http.DefaultClient with Timeout applied per
	// request via context.
	Client *http.Client
	// Metrics, when non-nil, receives scrape counters.
	Metrics *obs.Registry
	// Logger, when non-nil, receives scrape failures.
	Logger *slog.Logger
}

func (c ScrapeConfig) withDefaults() ScrapeConfig {
	if c.Interval <= 0 {
		c.Interval = 15 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	return c
}

// Scraper polls exposition endpoints — the Prometheus-shaped pull loop
// of §5.1 — and pushes every body through the shared Decoder. One
// Scraper serves many targets; a failing target is counted and retried
// next sweep, never wedging the loop.
type Scraper struct {
	dec *Decoder
	cfg ScrapeConfig

	scrapes  *obs.Counter
	failures *obs.Counter
}

// NewScraper builds a scraper around a decoder.
func NewScraper(dec *Decoder, cfg ScrapeConfig) *Scraper {
	cfg = cfg.withDefaults()
	r := cfg.Metrics
	return &Scraper{
		dec:      dec,
		cfg:      cfg,
		scrapes:  r.Counter("nodesentry_scrape_total"),
		failures: r.Counter("nodesentry_scrape_failures_total"),
	}
}

// Run sweeps immediately, then every Interval, until ctx is canceled.
// Run it on its own goroutine; ctx is the stop signal.
func (s *Scraper) Run(ctx context.Context) {
	s.Sweep(ctx)
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.Sweep(ctx)
		}
	}
}

// Sweep scrapes every target once, returning the number of samples
// ingested across all of them.
func (s *Scraper) Sweep(ctx context.Context) int {
	total := 0
	for _, target := range s.cfg.Targets {
		if ctx.Err() != nil {
			return total
		}
		n, err := s.scrape(ctx, target)
		total += n
		if err != nil {
			s.failures.Inc()
			if s.cfg.Logger != nil {
				s.cfg.Logger.Warn("scrape failed", "target", target, "err", err)
			}
			continue
		}
		s.scrapes.Inc()
	}
	return total
}

// scrape fetches one target and decodes its body.
func (s *Scraper) scrape(ctx context.Context, target string) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }() // body fully consumed; close error is inert
	if resp.StatusCode >= 300 {
		return 0, fmt.Errorf("ingest: scrape %s returned %s", target, resp.Status)
	}
	body, err := ReadLimited(resp.Body, s.cfg.MaxBodyBytes)
	if err != nil {
		return 0, err
	}
	return s.dec.PushExposition(body)
}
