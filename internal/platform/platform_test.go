package platform

import (
	"math"
	"testing"
	"time"

	"hyperprof/internal/profile"
	"hyperprof/internal/sim"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// totalMean returns the sum of the recipe's mean step durations.
func totalMean(r Recipe) time.Duration {
	var t time.Duration
	for _, s := range r {
		t += s.Mean
	}
	return t
}

// profiledCPU returns the CPU time env's profiler recorded for a platform.
func profiledCPU(env *Env, p taxonomy.Platform) time.Duration {
	var total time.Duration
	env.Prof.EachCategoryCPU(p, func(_ taxonomy.Category, cpu time.Duration) { total += cpu })
	return total
}

func TestBuildRecipeNormalizesAndOrders(t *testing.T) {
	r := BuildRecipe(100*time.Millisecond, Split{"b": 3, "a": 1}, nil)
	if len(r) != 2 || r[0].Function != "a" || r[1].Function != "b" {
		t.Fatalf("recipe = %+v", r)
	}
	if r[0].Mean != 25*time.Millisecond || r[1].Mean != 75*time.Millisecond {
		t.Fatalf("means = %v %v", r[0].Mean, r[1].Mean)
	}
	if got := totalMean(r); got != 100*time.Millisecond {
		t.Fatalf("total = %v", got)
	}
}

func TestBuildRecipeSkipsZeroWeights(t *testing.T) {
	r := BuildRecipe(time.Second, Split{"a": 1, "zero": 0}, nil)
	if len(r) != 1 || r[0].Function != "a" {
		t.Fatalf("recipe = %+v", r)
	}
}

func TestExecStepRecordsAndAnnotates(t *testing.T) {
	env := NewEnv(1, 1)
	env.Jitter = 0 // exact durations for assertion
	node := env.Net.NewNode("n", 0, 0, 1)
	tr := env.Tracer.Start(taxonomy.Spanner, 0)
	env.K.Go("op", func(p *sim.Proc) {
		env.ExecStep(p, taxonomy.Spanner, node, tr, Step{Function: "snappy.X", Mean: 5 * time.Millisecond, Micro: profile.Micro{IPC: 1}})
		env.Tracer.Finish(tr, p.Now())
	})
	env.K.Run()
	if got := profiledCPU(env, taxonomy.Spanner); got != 5*time.Millisecond {
		t.Fatalf("profiled = %v", got)
	}
	b := tr.ComputeBreakdown()
	if b.CPU != 5*time.Millisecond || b.Total != 5*time.Millisecond {
		t.Fatalf("breakdown = %+v", b)
	}
}

func TestExecStepQueueingCountsAsCPU(t *testing.T) {
	env := NewEnv(2, 1)
	env.Jitter = 0
	node := env.Net.NewNode("n", 0, 0, 1) // single core forces queueing
	traces := make([]*trace.Trace, 2)
	for i := 0; i < 2; i++ {
		i := i
		tr := env.Tracer.Start(taxonomy.BigTable, 0)
		traces[i] = tr
		env.K.Go("op", func(p *sim.Proc) {
			env.ExecStep(p, taxonomy.BigTable, node, tr, Step{Function: "f", Mean: 10 * time.Millisecond})
			env.Tracer.Finish(tr, p.Now())
		})
	}
	env.K.Run()
	// The second op queued 10ms then ran 10ms; its CPU interval is 20ms.
	b := traces[1].ComputeBreakdown()
	if b.CPU != 20*time.Millisecond {
		t.Fatalf("queued op CPU = %v, want 20ms", b.CPU)
	}
	// But profiled CPU time (actual execution) is 10ms each.
	if got := profiledCPU(env, taxonomy.BigTable); got != 20*time.Millisecond {
		t.Fatalf("profiled total = %v, want 20ms", got)
	}
}

func TestExecRecipeRunsAllSteps(t *testing.T) {
	env := NewEnv(3, 1)
	env.Jitter = 0
	node := env.Net.NewNode("n", 0, 0, 2)
	r := BuildRecipe(30*time.Millisecond, Split{"a": 1, "b": 2}, nil)
	env.K.Go("op", func(p *sim.Proc) {
		env.ExecRecipe(p, taxonomy.BigQuery, node, nil, r)
	})
	end := env.K.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("end = %v", end)
	}
	if got := profiledCPU(env, taxonomy.BigQuery); got != 30*time.Millisecond {
		t.Fatalf("profiled = %v", got)
	}
}

func TestCategoryFunctionsClassifyCorrectly(t *testing.T) {
	c := taxonomy.NewClassifier()
	for cat, fn := range CategoryFunction {
		if got := c.Classify(fn); got != cat {
			t.Errorf("CategoryFunction[%q] = %q classifies as %q", cat, fn, got)
		}
	}
}

func TestPaperTablesCoverPlatforms(t *testing.T) {
	for _, p := range taxonomy.Platforms() {
		bs := PaperBroadSplit(p)
		if s := bs.CoreCompute + bs.DatacenterTax + bs.SystemTax; math.Abs(s-1) > 1e-9 {
			t.Errorf("%s broad split sums to %v", p, s)
		}
		for name, m := range map[string]map[taxonomy.Category]float64{
			"dct": PaperDCTSplit(p), "st": PaperSTSplit(p), "core": PaperCoreSplit(p),
		} {
			var sum float64
			for cat, f := range m {
				if taxonomy.Descriptions[cat] == "" {
					t.Errorf("%s %s split has unknown category %q", p, name, cat)
				}
				sum += f
			}
			if math.Abs(sum-1) > 0.011 {
				t.Errorf("%s %s split sums to %v", p, name, sum)
			}
		}
		for _, b := range taxonomy.Broads() {
			if PaperMicro(p, b).IPC == 0 {
				t.Errorf("missing micro for %s/%v", p, b)
			}
		}
		ram, ssd, hdd := PaperStorageRatio(p)
		if ram != 1 || ssd <= 0 || hdd <= ssd {
			t.Errorf("%s storage ratio %d:%d:%d", p, ram, ssd, hdd)
		}
	}
}

func TestPaperMicroMatchesTable7SpotChecks(t *testing.T) {
	if m := PaperMicro(taxonomy.BigQuery, taxonomy.CoreCompute); m.IPC != 1.4 || m.L1I != 1.1 {
		t.Errorf("BigQuery CC micro = %+v", m)
	}
	if m := PaperMicro(taxonomy.Spanner, taxonomy.SystemTax); m.L2I != 11.8 {
		t.Errorf("Spanner ST micro = %+v", m)
	}
}

func TestTaxTablesFor(t *testing.T) {
	tt := TaxTablesFor(taxonomy.BigTable)
	r := tt.TaxRecipe(40*time.Millisecond, 34*time.Millisecond)
	if got := totalMean(r); got < 73*time.Millisecond || got > 75*time.Millisecond {
		t.Fatalf("tax recipe total = %v", got)
	}
	// RPC should be the biggest DCT step for BigTable (37%).
	var rpcMean, protoMean time.Duration
	for _, s := range r {
		switch s.Function {
		case CategoryFunction[taxonomy.RPC]:
			rpcMean = s.Mean
		case CategoryFunction[taxonomy.Protobuf]:
			protoMean = s.Mean
		}
	}
	if rpcMean <= protoMean {
		t.Fatalf("rpc %v <= proto %v for BigTable", rpcMean, protoMean)
	}
}

func TestTaxBudgets(t *testing.T) {
	dct, st := TaxBudgets(taxonomy.Spanner, 36)
	if math.Abs(dct-32) > 1e-9 || math.Abs(st-32) > 1e-9 {
		t.Fatalf("budgets = %v %v", dct, st)
	}
}

func TestAnnotateHelpersNilSafe(t *testing.T) {
	AnnotateIO(nil, 0, time.Second)
	AnnotateRemote(nil, 0, time.Second)
}
