package main

import (
	"os"
	"path/filepath"
	"testing"

	"nodesentry"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfigOverlays(t *testing.T) {
	path := writeConfig(t, `{
		"epochs": 7,
		"k_sigma": 3.5,
		"pca_dims": 8,
		"model": {"experts": 5, "top_k": 2}
	}`)
	opts, err := loadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Epochs != 7 || opts.KSigma != 3.5 || opts.PCADims != 8 {
		t.Errorf("overlay wrong: %+v", opts)
	}
	if opts.Model.Experts != 5 || opts.Model.TopK != 2 {
		t.Errorf("model overlay wrong: %+v", opts.Model)
	}
	// Untouched fields keep their defaults.
	def := nodesentry.DefaultOptions()
	if opts.WindowLen != def.WindowLen || opts.LR != def.LR {
		t.Error("defaults disturbed")
	}
}

func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	path := writeConfig(t, `{"epochz": 3}`)
	if _, err := loadConfig(path); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestLoadConfigRejectsGarbage(t *testing.T) {
	path := writeConfig(t, `{]`)
	if _, err := loadConfig(path); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := loadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadConfigEmptyObjectKeepsDefaults(t *testing.T) {
	path := writeConfig(t, `{}`)
	opts, err := loadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	def := nodesentry.DefaultOptions()
	if opts.Epochs != def.Epochs || opts.KSigma != def.KSigma || opts.Model != def.Model {
		t.Error("empty config changed defaults")
	}
}

// TestLoadConfigKeys pins the file format: each of the 23 accepted keys
// lands in its Options field, and a field the file never accepted (an
// ablation switch, the linkage, the model's input width or seed) is an
// unknown key.
func TestLoadConfigKeys(t *testing.T) {
	def := nodesentry.DefaultOptions()
	cases := []struct {
		key  string
		body string
		got  func(nodesentry.Options) any
		want any
	}{
		{"corr_threshold", `{"corr_threshold": 0.5}`, func(o nodesentry.Options) any { return o.CorrThreshold }, 0.5},
		{"trim", `{"trim": 0.125}`, func(o nodesentry.Options) any { return o.Trim }, 0.125},
		{"clip", `{"clip": 7.5}`, func(o nodesentry.Options) any { return o.Clip }, 7.5},
		{"min_segment_len", `{"min_segment_len": 33}`, func(o nodesentry.Options) any { return o.MinSegmentLen }, 33},
		{"pca_dims", `{"pca_dims": 9}`, func(o nodesentry.Options) any { return o.PCADims }, 9},
		{"k_min", `{"k_min": 3}`, func(o nodesentry.Options) any { return o.KMin }, 3},
		{"k_max", `{"k_max": 17}`, func(o nodesentry.Options) any { return o.KMax }, 17},
		{"window_len", `{"window_len": 31}`, func(o nodesentry.Options) any { return o.WindowLen }, 31},
		{"rep_segments", `{"rep_segments": 5}`, func(o nodesentry.Options) any { return o.RepSegments }, 5},
		{"epochs", `{"epochs": 11}`, func(o nodesentry.Options) any { return o.Epochs }, 11},
		{"lr", `{"lr": 0.25}`, func(o nodesentry.Options) any { return o.LR }, 0.25},
		{"max_windows_per_cluster", `{"max_windows_per_cluster": 77}`, func(o nodesentry.Options) any { return o.MaxWindowsPerCluster }, 77},
		{"match_period_sec", `{"match_period_sec": 1800}`, func(o nodesentry.Options) any { return o.MatchPeriodSec }, int64(1800)},
		{"threshold_window_sec", `{"threshold_window_sec": 900}`, func(o nodesentry.Options) any { return o.ThresholdWindowSec }, int64(900)},
		{"k_sigma", `{"k_sigma": 2.5}`, func(o nodesentry.Options) any { return o.KSigma }, 2.5},
		{"min_consecutive", `{"min_consecutive": 4}`, func(o nodesentry.Options) any { return o.MinConsecutive }, 4},
		{"seed", `{"seed": 99}`, func(o nodesentry.Options) any { return o.Seed }, int64(99)},
		{"model.model_dim", `{"model": {"model_dim": 24}}`, func(o nodesentry.Options) any { return o.Model.ModelDim }, 24},
		{"model.heads", `{"model": {"heads": 4}}`, func(o nodesentry.Options) any { return o.Model.Heads }, 4},
		{"model.hidden", `{"model": {"hidden": 40}}`, func(o nodesentry.Options) any { return o.Model.Hidden }, 40},
		{"model.blocks", `{"model": {"blocks": 3}}`, func(o nodesentry.Options) any { return o.Model.Blocks }, 3},
		{"model.experts", `{"model": {"experts": 6}}`, func(o nodesentry.Options) any { return o.Model.Experts }, 6},
		{"model.top_k", `{"model": {"top_k": 2}}`, func(o nodesentry.Options) any { return o.Model.TopK }, 2},
	}
	if len(cases) != 23 {
		t.Fatalf("%d keys tabled, want 23", len(cases))
	}
	for _, c := range cases {
		opts, err := loadConfig(writeConfig(t, c.body))
		if err != nil {
			t.Errorf("%s: %v", c.key, err)
			continue
		}
		if got := c.got(opts); got != c.want {
			t.Errorf("%s = %v, want %v", c.key, got, c.want)
		}
		if c.got(def) == c.want {
			t.Errorf("%s: test value %v is the default and proves nothing", c.key, c.want)
		}
	}
	for _, hidden := range []string{
		`{"dense_ffn": true}`,
		`{"disable_clustering": true}`,
		`{"linkage": 1}`,
		`{"cluster_override": 4}`,
		`{"model": {"input_dim": 3}}`,
		`{"model": {"seed": 1}}`,
		`{"model": {"UseMoE": false}}`,
		`{"DenseFFN": true}`,
	} {
		if _, err := loadConfig(writeConfig(t, hidden)); err == nil {
			t.Errorf("%s accepted", hidden)
		}
	}
}
