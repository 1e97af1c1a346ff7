package experiments

import (
	"fmt"
	"strings"
	"testing"

	"hyperprof/internal/taxonomy"
)

// pipelineTestConfig shrinks the pipeline study to test scale while keeping
// every moving part live: multiple batches, an iterative analytics stage,
// fault injection over the faulted seeds, and (for the tests that want it)
// the broken-handoff demonstration arm.
func pipelineTestConfig() StudyConfig {
	cfg := DefaultPipelineStudyConfig()
	cfg.Pipe = PipelineConfig{Records: 24, Batches: 3, Iterations: 2}
	cfg.Check.Seeds = 2
	if testing.Short() {
		cfg.Pipe.Records = 12
		cfg.Check.Seeds = 1
	}
	return cfg
}

// TestPipelineEndToEndSpans pins the tentpole guarantee: every logical
// record owns exactly one trace ID whose spans cross all three platform
// stages, so the Chrome export shows one end-to-end request per row.
func TestPipelineEndToEndSpans(t *testing.T) {
	cfg := pipelineTestConfig()
	s, err := cfg.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	perID := map[uint64]map[taxonomy.Platform]int{}
	for _, tr := range s.Traces {
		if perID[tr.ID] == nil {
			perID[tr.ID] = map[taxonomy.Platform]int{}
		}
		perID[tr.ID][tr.Platform]++
	}
	if len(perID) != cfg.Pipe.Records {
		t.Fatalf("got %d distinct trace IDs, want one per record (%d)", len(perID), cfg.Pipe.Records)
	}
	for id, stages := range perID {
		for _, p := range []taxonomy.Platform{taxonomy.BigTable, taxonomy.BigQuery, taxonomy.Spanner} {
			if stages[p] != 1 {
				t.Fatalf("trace %d: %d %s spans, want exactly 1 (stages: %v)", id, stages[p], p, stages)
			}
		}
	}
}

// TestPipelineStageCrashExactlyOnce is the stage-crash regression: the
// faulted arms kill the middle (analytics) stage mid-iteration and force a
// replay of the BigQuery→Spanner handoff, and the exactly-once invariant
// must hold via dedup — any double-serve would surface as a violation and
// fail the study.
func TestPipelineStageCrashExactlyOnce(t *testing.T) {
	cfg := pipelineTestConfig()
	s, err := cfg.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Ok() {
		t.Fatalf("honest arms must hold exactly-once, got violations: %v", s.Violations)
	}
	if base := s.Row(armBaseline); base == nil || base.Replays != 0 || base.Deduped != 0 {
		t.Fatalf("baseline arm must not replay, got %+v", base)
	}
	crashed := false
	for _, row := range s.Rows {
		if row.Arm != armFaulted {
			continue
		}
		if row.Replays < 1 {
			t.Fatalf("faulted arm seed %d: no handoff replay was forced, got %+v", row.Seed, row)
		}
		if row.Deduped < 1 {
			t.Fatalf("faulted arm seed %d: replayed handoff was not deduplicated, got %+v", row.Seed, row)
		}
		if row.Violations != 0 {
			t.Fatalf("faulted arm seed %d: %d violations", row.Seed, row.Violations)
		}
		if row.FaultsApplied > 0 {
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("no faulted arm applied any faults; the stage-crash schedule never fired")
	}
}

// TestPipelineBrokenHandoffConvicted pins the checker's teeth: with the
// handoff dedup latch disabled, the broken demonstration arm must be
// convicted by the pipeline-handoff invariant while the honest arms stay
// clean.
func TestPipelineBrokenHandoffConvicted(t *testing.T) {
	cfg := pipelineTestConfig()
	cfg.Check.IncludeBroken = true
	s, err := cfg.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Ok() {
		t.Fatalf("honest arms must stay clean, got: %v", s.Violations)
	}
	if len(s.BrokenViolations) == 0 {
		t.Fatal("broken-handoff arm produced no violations; the exactly-once checker failed to convict")
	}
	for _, v := range s.BrokenViolations {
		if !strings.Contains(v.Detail, "pipeline-handoff") && v.Key != "pipeline-handoff" {
			t.Fatalf("unexpected violation kind in broken arm: %+v", v)
		}
	}
	if row := s.Row(armBroken); row == nil || row.Violations != len(s.BrokenViolations) {
		t.Fatalf("broken row does not account for its violations: %+v vs %d", row, len(s.BrokenViolations))
	}
	if err := s.verdict("pipeline"); err != nil {
		t.Errorf("verdict: %v", err)
	}
}

// TestPipelineStageBreakdowns checks each stage contributes a §4.1 overlap
// breakdown over the baseline spans.
func TestPipelineStageBreakdowns(t *testing.T) {
	cfg := pipelineTestConfig()
	s, err := cfg.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	groups := s.StageBreakdowns()
	for _, p := range []taxonomy.Platform{taxonomy.BigTable, taxonomy.BigQuery, taxonomy.Spanner} {
		if len(groups[p]) == 0 {
			t.Fatalf("stage %s: no overlap breakdown", p)
		}
	}
}

func TestPipelineRejectsInvalidConfig(t *testing.T) {
	for _, breakCfg := range []func(*StudyConfig){
		func(c *StudyConfig) { c.Pipe.Records = 0 },
		func(c *StudyConfig) { c.Pipe.Batches = 0 },
		func(c *StudyConfig) { c.Clients = 0 },
		func(c *StudyConfig) { c.Check.Seeds = 0 },
	} {
		cfg := pipelineTestConfig()
		breakCfg(&cfg)
		if _, err := cfg.Pipeline(); err == nil {
			t.Fatalf("config %+v: want validation error, got success", cfg)
		}
	}
}

// TestPipelineObsCounters checks the observability plane wires into the
// pipeline simulation: with Obs enabled the baseline arm exports per-stage
// counter tracks for the Chrome document.
func TestPipelineObsCounters(t *testing.T) {
	cfg := pipelineTestConfig()
	cfg.Obs.Enabled = true
	s, err := cfg.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	byStage := map[string]int{}
	for _, ct := range s.Counters {
		byStage[ct.Process]++
	}
	for _, p := range []taxonomy.Platform{taxonomy.BigTable, taxonomy.BigQuery, taxonomy.Spanner} {
		if byStage[string(p)] == 0 {
			t.Fatalf("stage %s: no counter tracks (got %v)", p, byStage)
		}
	}
	if s.Row(armBaseline) == nil {
		t.Fatal("missing baseline row")
	}
	if got := fmt.Sprintf("%d", len(s.Rows)); got == "0" {
		t.Fatal("no rows")
	}
}
