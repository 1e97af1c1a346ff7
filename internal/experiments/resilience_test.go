package experiments

import (
	"strings"
	"testing"

	"hyperprof/internal/taxonomy"
)

// smallResilienceConfig keeps the study quick while still applying faults on
// every platform.
func smallResilienceConfig() StudyConfig {
	cfg := DefaultResilienceStudyConfig()
	cfg.Ops = PlatformOps{Spanner: 400, BigTable: 400, BigQuery: 32}
	// Shorter runs need denser faults to guarantee some fire on each arm.
	cfg.Faults.MTBFFrac = 0.3
	return cfg
}

func TestResilienceStudyAvailabilityAndFaults(t *testing.T) {
	r, err := smallResilienceConfig().Resilience()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2*len(taxonomy.Platforms()) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, p := range taxonomy.Platforms() {
		base, faulted := r.Row(p, false), r.Row(p, true)
		if base == nil || faulted == nil {
			t.Fatalf("%s: missing arm", p)
		}
		if base.Errors != 0 {
			t.Errorf("%s baseline: %d errors", p, base.Errors)
		}
		if base.FaultsApplied != 0 {
			t.Errorf("%s baseline applied %d faults", p, base.FaultsApplied)
		}
		if faulted.FaultsApplied == 0 {
			t.Errorf("%s faulted arm applied no faults", p)
		}
		// The acceptance bar: at the documented default fault rates every
		// platform completes its workload above 99% availability.
		if faulted.Availability < 0.99 {
			t.Errorf("%s availability = %.4f, want >= 0.99", p, faulted.Availability)
		}
		if faulted.Ops != base.Ops {
			t.Errorf("%s: faulted arm completed %d ops, baseline %d", p, faulted.Ops, base.Ops)
		}
		if len(r.Marks[p]) != faulted.FaultsApplied {
			t.Errorf("%s: %d marks for %d applied faults", p, len(r.Marks[p]), faulted.FaultsApplied)
		}
		if len(r.Traces[p]) == 0 {
			t.Errorf("%s: no faulted-arm traces", p)
		}
	}
}

func TestResilienceStudyValidation(t *testing.T) {
	cfg := smallResilienceConfig()
	cfg.Clients = 0
	if _, err := cfg.Resilience(); err == nil {
		t.Fatal("zero clients accepted")
	}
}

func TestRenderResilienceShape(t *testing.T) {
	r, err := smallResilienceConfig().Resilience()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderResilience(r)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + one line per row.
	if len(lines) != 2+len(r.Rows) {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	for _, want := range []string{"baseline", "faulted", "Spanner", "BigTable", "BigQuery"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestBrownoutOnlyOnRPCPlatforms: with a brown-out certain to draw, the
// Spanner and BigQuery faulted arms apply its two events on their networks,
// while BigTable's — whose data path sends no RPCs — applies none, so its
// FaultsApplied counts only tablet-server and chunkserver events.
func TestBrownoutOnlyOnRPCPlatforms(t *testing.T) {
	cfg := smallResilienceConfig()
	cfg.Faults.NetDegradeProb = 1
	for _, p := range taxonomy.Platforms() {
		pair, err := (&Resilience{Cfg: cfg}).runPair(p)
		if err != nil {
			t.Fatal(err)
		}
		row := pair[1].Row
		if len(row.FaultEvents) != row.FaultsApplied {
			t.Fatalf("%s: %d fault events for FaultsApplied %d", p, len(row.FaultEvents), row.FaultsApplied)
		}
		brownouts := 0
		for _, ev := range row.FaultEvents {
			switch {
			case strings.HasPrefix(ev.Target, "brownout"):
				brownouts++
			case p == taxonomy.BigTable && !strings.HasPrefix(ev.Target, "bigtable/ts") && !strings.HasPrefix(ev.Target, "bigtable/cs"):
				t.Errorf("%s: applied fault %q is neither a tablet server nor a chunkserver event", p, ev.Label())
			}
		}
		want := 2
		if p == taxonomy.BigTable {
			want = 0
		}
		if brownouts != want {
			t.Errorf("%s: %d brown-out events applied, want %d", p, brownouts, want)
		}
	}
}
