package experiments

import (
	"strings"
	"testing"

	"hyperprof/internal/taxonomy"
)

// smallPartitionConfig shrinks the partition study to a fast smoke with the
// full nemesis rates.
func smallPartitionConfig() StudyConfig {
	cfg := DefaultPartitionStudyConfig()
	cfg.Check.Seeds = 2
	cfg.Clients = 4
	cfg.Ops = PlatformOps{Spanner: 160, BigTable: 160, BigQuery: 12}
	return cfg
}

// TestPartitionStudySafeUnderNemesis is the headline acceptance gate: with
// recovery enabled (and also in the safe-but-unavailable naive arms), the
// checkers must report zero violations and zero stale reads across many
// nemesis seeds on all three platforms.
func TestPartitionStudySafeUnderNemesis(t *testing.T) {
	cfg := smallPartitionConfig()
	cfg.Check.Seeds = 8
	if testing.Short() {
		cfg.Check.Seeds = 3
	}
	s, err := cfg.Partition()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Ok() {
		t.Fatalf("partition study found violations:\n%s", RenderPartition(s))
	}
	// One calibration row plus (naive, hardened) per seed per platform.
	wantRows := len(taxonomy.Platforms()) * (1 + 2*cfg.Check.Seeds)
	if len(s.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(s.Rows), wantRows)
	}
	faulted := 0
	for _, row := range s.Rows {
		if row.Ops == 0 {
			t.Errorf("%s/%s seed %d: zero ops issued", row.Platform, row.Arm, row.Seed)
		}
		if row.Arm == armBaseline && row.Errors > 0 {
			t.Errorf("%s calibration run had %d errors", row.Platform, row.Errors)
		}
		if row.StaleReads != 0 || row.MaxStaleness != 0 {
			t.Errorf("%s/%s seed %d: %d stale reads (max %v) — a safe arm leaked staleness",
				row.Platform, row.Arm, row.Seed, row.StaleReads, row.MaxStaleness)
		}
		if row.Arm != armBaseline && row.FaultsApplied > 0 {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("no arm applied any faults — the nemesis is inert")
	}
	// The hardened arm's whole point is availability under the same nemesis.
	// The gate compares the dimension recovery defends: write availability on
	// Spanner (a correct CP system must fail reads while cut from every
	// quorum, so total availability is not the hardened arm's to win), total
	// availability on BigTable and BigQuery. Summed over seeds; per-seed runs
	// are deterministic, so this is a stable regression gate, not a
	// statistical one.
	for _, p := range taxonomy.Platforms() {
		good := map[string]int{}
		for _, row := range s.Rows {
			if row.Platform != p {
				continue
			}
			if p == taxonomy.Spanner {
				good[row.Arm] += row.Writes - row.WriteErrors
			} else {
				good[row.Arm] += row.Ops - row.Errors
			}
		}
		if good[armHardened] < good[armNaive] {
			t.Errorf("%s: hardened arm completed %d ops vs naive %d — recovery is hurting availability\n%s",
				p, good[armHardened], good[armNaive], RenderPartition(s))
		}
		if len(s.Marks[p]) == 0 {
			t.Errorf("%s: no fault marks exported from the hardened arm", p)
		}
	}
}

// TestPartitionStudyBrokenKnobsCaught plants the two broken safety knobs —
// Spanner committing without its commit-wait under a fast clock, BigTable
// acking partitioned writes outside the commit log — and requires the
// checkers to convict both, Spanner's with a minimal two-operation
// external-consistency subhistory. The safe arms must stay clean in the same
// run.
func TestPartitionStudyBrokenKnobsCaught(t *testing.T) {
	cfg := smallPartitionConfig()
	cfg.Check.Seeds = 1
	cfg.Part.IncludeBroken = true
	s, err := cfg.Partition()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Ok() {
		t.Fatalf("safe arms violated alongside the broken ones:\n%s", RenderPartition(s))
	}
	if len(s.BrokenViolations) == 0 {
		t.Fatalf("broken arms produced no violations — the checkers missed both planted bugs:\n%s",
			RenderPartition(s))
	}
	externals, bigtables := 0, 0
	for _, v := range s.BrokenViolations {
		if v.Kind == "external-consistency" {
			externals++
			if len(v.History) != 2 {
				t.Errorf("external-consistency witness has %d ops, want minimal 2", len(v.History))
			}
		}
		if v.Platform == string(taxonomy.BigTable) {
			bigtables++
		}
	}
	if externals == 0 {
		t.Errorf("no external-consistency violation from the commit-wait-disabled Spanner arm:\n%s",
			RenderPartition(s))
	}
	if bigtables == 0 {
		t.Errorf("no violation from the BigTable broken-partition-writes arm:\n%s", RenderPartition(s))
	}
	for _, row := range s.Rows {
		if row.Arm == armBroken && row.Platform == taxonomy.Spanner && row.Violations == 0 {
			t.Errorf("spanner broken-arm row reports zero violations")
		}
	}
}

func TestPartitionStudyRejectsInvalidConfig(t *testing.T) {
	cfg := smallPartitionConfig()
	cfg.Part.MTBFFrac = 0
	if _, err := cfg.Partition(); err == nil {
		t.Fatal("want error for zero partition MTBF")
	}
}

func TestRenderPartitionShowsVerdict(t *testing.T) {
	cfg := smallPartitionConfig()
	cfg.Check.Seeds = 1
	s, err := cfg.Partition()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderPartition(s)
	for _, want := range []string{"baseline", "naive", "hardened", "PASS: no safety violations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
