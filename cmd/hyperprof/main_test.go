package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hyperprof"
)

func TestCheckOnlyModifiesPartitionAndPipeline(t *testing.T) {
	for _, study := range []string{"", "char", "safety", "resilience", "obs", "overload", "fleet"} {
		if checkModifiers(study, true) == nil {
			t.Errorf("-check with -study=%q accepted", study)
		}
		if err := checkModifiers(study, false); err != nil {
			t.Errorf("-study=%q without -check rejected: %v", study, err)
		}
	}
	for _, study := range []string{"partition", "pipeline"} {
		if err := checkModifiers(study, true); err != nil {
			t.Errorf("-check with -study=%s rejected: %v", study, err)
		}
	}
}

// TestOverloadJSONWritesObsSeries runs -study=overload -json -obs on a small
// load: stdout must stay one valid JSON document and the metric series must
// still reach -obs-out.
func TestOverloadJSONWritesObsSeries(t *testing.T) {
	cfg := hyperprof.DefaultOverloadStudyConfig()
	cfg.Load.Duration = 300 * time.Millisecond
	cfg.Load.TriggerAt = 100 * time.Millisecond
	cfg.Load.TriggerDur = 50 * time.Millisecond
	cfg.Load.SpannerRate = 200
	cfg.Load.BigTableRate = 300
	cfg.Load.BigQueryRate = 20
	cfg.Obs.Enabled = true

	dir := t.TempDir()
	obsOut := filepath.Join(dir, "obs-series.json")
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = stdout
	runOverload(cfg, true, obsOut)
	os.Stdout = saved
	if err := stdout.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(bytes.TrimSpace(out)) {
		t.Fatalf("stdout is not one JSON document:\n%s", out)
	}
	series, err := os.ReadFile(obsOut)
	if err != nil {
		t.Fatalf("-obs-out not written in JSON mode: %v", err)
	}
	if !json.Valid(series) || !bytes.Contains(series, []byte(`"rpc.calls"`)) {
		t.Fatalf("obs series file holds no rpc series (%d bytes)", len(series))
	}
}
