package experiments

import (
	"strings"
	"testing"

	"hyperprof/internal/taxonomy"
)

// smallSafetyConfig shrinks the torture study to a fast smoke: two seeds per
// platform with the full fault rates.
func smallSafetyConfig() StudyConfig {
	cfg := DefaultSafetyStudyConfig()
	cfg.Check.Seeds = 2
	cfg.Ops = PlatformOps{Spanner: 120, BigTable: 120, BigQuery: 8}
	cfg.Clients = 4
	return cfg
}

func TestSafetyStudyFindsNoViolations(t *testing.T) {
	s, err := smallSafetyConfig().Safety()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Ok() {
		t.Fatalf("safety study found violations:\n%s", RenderSafety(s))
	}
	// One calibration row plus Seeds faulted rows per platform.
	wantRows := len(taxonomy.Platforms()) * (1 + s.Cfg.Check.Seeds)
	if len(s.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(s.Rows), wantRows)
	}
	faultedWithFaults := 0
	for _, row := range s.Rows {
		if row.Ops == 0 {
			t.Errorf("%s seed %d: zero ops issued", row.Platform, row.Seed)
		}
		if !row.Faulted && row.Errors > 0 {
			t.Errorf("%s calibration run had %d errors", row.Platform, row.Errors)
		}
		if row.Faulted && row.FaultsApplied > 0 {
			faultedWithFaults++
		}
	}
	if faultedWithFaults == 0 {
		t.Fatal("no faulted run applied any faults — the torture arm is inert")
	}
	out := RenderSafety(s)
	if !strings.Contains(out, "PASS: no safety violations") {
		t.Fatalf("render missing PASS line:\n%s", out)
	}
}

func TestSafetyStudyRejectsInvalidConfig(t *testing.T) {
	cfg := smallSafetyConfig()
	cfg.Clients = 0
	if _, err := cfg.Safety(); err == nil {
		t.Fatal("want error for zero clients")
	}
}
