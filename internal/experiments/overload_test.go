package experiments

import (
	"testing"
	"time"

	"hyperprof/internal/taxonomy"
)

// overloadTestConfig downsizes the overload defaults so the study fits in a
// unit-test budget while still driving the trigger through every mechanism.
func overloadTestConfig() StudyConfig {
	cfg := DefaultOverloadStudyConfig()
	cfg.Load.Duration = time.Second
	cfg.Load.TriggerAt = 250 * time.Millisecond
	cfg.Load.TriggerDur = 200 * time.Millisecond
	cfg.Load.SpannerRate = 1200
	cfg.Load.BigTableRate = 2000
	cfg.Load.BigQueryRate = 24
	if testing.Short() {
		cfg.Load.Duration = 600 * time.Millisecond
		cfg.Load.TriggerAt = 200 * time.Millisecond
		cfg.Load.TriggerDur = 120 * time.Millisecond
		cfg.Load.SpannerRate = 800
		cfg.Load.BigTableRate = 1200
		// BigQuery queries run tens of virtual milliseconds each, so the
		// pre-trigger window needs a rate high enough that some queries
		// finish inside it.
		cfg.Load.BigQueryRate = 40
	}
	return cfg
}

// overloadBytes renders every artifact a byte comparison can cover: the JSON
// export and the fixed-width table.
func overloadBytes(t *testing.T, o *Overload) []byte {
	t.Helper()
	data, err := o.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return append(data, RenderOverload(o)...)
}

func TestOverloadStudyShape(t *testing.T) {
	cfg := overloadTestConfig()
	o, err := cfg.Overload()
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Rows) != 2*len(taxonomy.Platforms()) {
		t.Fatalf("want %d rows, got %d", 2*len(taxonomy.Platforms()), len(o.Rows))
	}
	for _, p := range taxonomy.Platforms() {
		for _, protected := range []bool{false, true} {
			row := o.Row(p, protected)
			if row == nil {
				t.Fatalf("%s protected=%v: missing row", p, protected)
			}
			if row.Offered <= 0 || row.Done <= 0 {
				t.Errorf("%s protected=%v: no load served: %+v", p, protected, row)
			}
			if row.PreGoodput <= 0 {
				t.Errorf("%s protected=%v: zero pre-trigger goodput", p, protected)
			}
			if row.Fairness <= 0 || row.Fairness > 1.0001 {
				t.Errorf("%s protected=%v: fairness %v out of range", p, protected, row.Fairness)
			}
			if row.FaultsApplied == 0 {
				t.Errorf("%s protected=%v: trigger never fired", p, protected)
			}
			if len(row.Tenants) != 3 {
				t.Fatalf("%s protected=%v: want 3 tenants, got %d", p, protected, len(row.Tenants))
			}
			for i := 1; i < len(row.Tenants); i++ {
				if row.Tenants[i-1].Name >= row.Tenants[i].Name {
					t.Errorf("%s protected=%v: tenants not name-sorted: %q >= %q",
						p, protected, row.Tenants[i-1].Name, row.Tenants[i].Name)
				}
			}
			// Control-plane accounting only ever appears on the protected arm.
			if !protected && (row.Throttled > 0 || row.BudgetExhausted > 0 || row.BreakerOpens > 0) {
				t.Errorf("%s naive arm shows protections: %+v", p, row)
			}
		}
	}
	// The storm must engage at least one client-side protection somewhere:
	// the RPC-fronted platforms meter their retries under the brownout.
	var engaged bool
	for _, p := range []taxonomy.Platform{taxonomy.Spanner, taxonomy.BigQuery} {
		row := o.Row(p, true)
		if row.BudgetExhausted > 0 || row.BreakerOpens > 0 || row.Sheds > 0 || row.Expired > 0 {
			engaged = true
		}
		naive := o.Row(p, false)
		if naive.Retries < row.Retries {
			t.Errorf("%s: naive arm retried less (%d) than protected (%d)", p, naive.Retries, row.Retries)
		}
	}
	if !engaged {
		t.Error("no protected arm engaged any overload control mechanism")
	}
}
