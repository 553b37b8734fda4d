package main

import (
	"log/slog"
	"strings"
	"testing"
	"time"

	"nodesentry/internal/ingest"
	"nodesentry/internal/summary"
)

func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"bad role", []string{"-data", "d", "-role", "leader"}, `bad -role "leader"`},
		{"bad policy", []string{"-data", "d", "-policy", "drop-newest"}, `bad -policy "drop-newest"`},
		{"bad log level", []string{"-data", "d", "-log-level", "loud"}, `bad -log-level "loud"`},
		{"bad log level on the coordinator", []string{"-role", "coordinator", "-log-level", "loud"}, `bad -log-level "loud"`},
		{"scorer without coordinator", []string{"-data", "d", "-role", "scorer"}, "-role scorer requires -coordinator"},
		{"standalone without data", nil, "-data is required"},
		{"scorer without data", []string{"-role", "scorer", "-coordinator", "http://c"}, "-data is required"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("parseFlags(%q) error = %v, want one containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestParseFlagsSummaryWindow pins where each role's clustering window
// comes from: -summary-window on a daemon, -sweep-interval on the
// coordinator (it flushes on its sweep), and no summarizer without
// -summary.
func TestParseFlagsSummaryWindow(t *testing.T) {
	summaryFlags := []string{"-summary", "-summary-window", "7s", "-summary-resolve", "90s", "-summary-min", "5", "-sweep-interval", "3s"}
	for _, tc := range []struct {
		role   string
		extra  []string
		window time.Duration
	}{
		{"standalone", []string{"-data", "d"}, 7 * time.Second},
		{"scorer", []string{"-data", "d", "-coordinator", "http://c/"}, 7 * time.Second},
		{"coordinator", nil, 3 * time.Second},
	} {
		t.Run(tc.role, func(t *testing.T) {
			base := append([]string{"-role", tc.role}, tc.extra...)
			o, err := parseFlags(base)
			if err != nil {
				t.Fatal(err)
			}
			if o.daemon.Summary != nil || o.coord.Summary != nil {
				t.Fatalf("summarizer configured without -summary: %+v / %+v", o.daemon.Summary, o.coord.Summary)
			}

			o, err = parseFlags(append(base, summaryFlags...))
			if err != nil {
				t.Fatal(err)
			}
			got, other := o.daemon.Summary, o.coord.Summary
			if tc.role == "coordinator" {
				got, other = other, got
			}
			if other != nil {
				t.Fatalf("-summary configured the other tier too: %+v", other)
			}
			want := summary.Config{Window: tc.window, ResolveAfter: 90 * time.Second, MinGroup: 5}
			if got == nil || got.Window != want.Window || got.ResolveAfter != want.ResolveAfter || got.MinGroup != want.MinGroup {
				t.Fatalf("summary config = %+v, want %+v", got, want)
			}
		})
	}
}

func TestParseFlagsRoles(t *testing.T) {
	// The coordinator needs no dataset, and its flags land in coord.Config.
	o, err := parseFlags([]string{"-role", "coordinator", "-shards", "16", "-lease-ttl", "30s",
		"-webhook", "http://hook", "-lifecycle", "-registry-dir", "/r", "-log-level", "warn"})
	if err != nil {
		t.Fatalf("coordinator without -data: %v", err)
	}
	if c := o.coord; c.TotalShards != 16 || c.LeaseTTL != 30*time.Second || c.SweepInterval != 2*time.Second ||
		c.WebhookURL != "http://hook" || c.VicinityThreshold != 4 {
		t.Errorf("coord config = %+v", c)
	}
	if !o.lifecycle || o.registryDir != "/r" || o.logLevel != slog.LevelWarn || o.listen != ":9100" {
		t.Errorf("options = %+v", o)
	}

	// A scorer: the daemon config plus the agent's.
	o, err = parseFlags([]string{"-data", "d", "-role", "scorer", "-coordinator", "http://c:9/", "-id", "s1",
		"-heartbeat", "1s", "-policy", "drop-oldest", "-queue", "64", "-fleet=false",
		"-scrape-targets", "http://a/metrics,http://b/metrics", "-lifecycle", "-drift-threshold", "3"})
	if err != nil {
		t.Fatal(err)
	}
	d := o.daemon
	if d.Policy != ingest.DropOldest || d.QueueSize != 64 || d.Shards != 4 || d.ScoringWorkers != 3 ||
		d.FleetView != nil || len(d.ScrapeTargets) != 2 || d.ScrapeInterval != 15*time.Second {
		t.Errorf("daemon config = %+v", d)
	}
	if a := d.Coord; a == nil || a.ID != "s1" || a.CoordinatorURL != "http://c:9" || a.HeartbeatInterval != time.Second {
		t.Errorf("agent config = %+v", d.Coord)
	}
	if d.Lifecycle == nil || d.Lifecycle.DriftThreshold != 3 {
		t.Errorf("lifecycle config = %+v", d.Lifecycle)
	}

	// Standalone defaults: fleet tier on, no agent, no lifecycle.
	o, err = parseFlags([]string{"-data", "d"})
	if err != nil {
		t.Fatal(err)
	}
	if d := o.daemon; o.role != "standalone" || d.Coord != nil || d.Lifecycle != nil || d.FleetView == nil ||
		d.Policy != ingest.Block || d.WebhookRetries != 2 {
		t.Errorf("standalone defaults: role %q, daemon config %+v", o.role, d)
	}
}
