package bigquery

import (
	"reflect"
	"testing"
	"time"

	"hyperprof/internal/check"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.FactPartitions = 8
	cfg.RowsPerPartition = 500
	cfg.Workers = 4
	cfg.PartitionFileBytes = 8 << 20 // keep scans much larger than the caches
	return cfg
}

func newEngine(t *testing.T, seed uint64) (*platform.Env, *Engine) {
	t.Helper()
	env := platform.NewEnv(seed, 1)
	e, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return env, e
}

func TestNewValidation(t *testing.T) {
	env := platform.NewEnv(1, 1)
	bad := DefaultConfig()
	bad.Workers = 0
	if _, err := New(env, bad); err == nil {
		t.Fatal("zero workers accepted")
	}
	bad = DefaultConfig()
	bad.Chunkservers = 1
	if _, err := New(env, bad); err == nil {
		t.Fatal("one chunkserver accepted")
	}
}

func TestScanAggExactResult(t *testing.T) {
	env, e := newEngine(t, 2)
	want := e.Reference(500)
	var got *Result
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		got, err = e.Run(p, nil, Query{Kind: ScanAgg, Threshold: 500})
		e.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != len(want) {
		t.Fatalf("groups = %d, want %d", len(got.Groups), len(want))
	}
	for k, v := range want {
		if got.Groups[k] != v {
			t.Fatalf("group %d = %d, want %d", k, got.Groups[k], v)
		}
	}
	if got.RowsScanned != 8*500 {
		t.Fatalf("rows scanned = %d", got.RowsScanned)
	}
}

func TestJoinQueryLabelsAndOrder(t *testing.T) {
	env, e := newEngine(t, 3)
	var got *Result
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		got, err = e.Run(p, nil, Query{Kind: JoinQuery, Threshold: 0})
		e.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Labeled) == 0 {
		t.Fatal("join produced no labels")
	}
	// Labeled sums must equal group sums re-labeled through the dimension,
	// over the pruned partition set join queries scan.
	want := map[string]int64{}
	for k, v := range e.ReferenceOver(0, e.scanPartitions(Query{Kind: JoinQuery})) {
		want[e.dim[k]] += v
	}
	for label, v := range want {
		if got.Labeled[label] != v {
			t.Fatalf("label %q = %d, want %d", label, got.Labeled[label], v)
		}
	}
	// SortedKeys must be in descending sum order.
	for i := 1; i < len(got.SortedKeys); i++ {
		if got.Groups[got.SortedKeys[i-1]] < got.Groups[got.SortedKeys[i]] {
			t.Fatal("sorted keys not descending")
		}
	}
}

func TestReportQuery(t *testing.T) {
	env, e := newEngine(t, 4)
	var got *Result
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		got, err = e.Run(p, nil, Query{Kind: Report, Threshold: 900})
		e.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Exact over partition 0 only.
	want := map[int64]int64{}
	for i, v := range e.fact[0].vals {
		if v >= 900 {
			want[e.fact[0].keys[i]] += v
		}
	}
	if len(got.Groups) != len(want) {
		t.Fatalf("groups = %d, want %d", len(got.Groups), len(want))
	}
	for k, v := range want {
		if got.Groups[k] != v {
			t.Fatalf("group %d mismatch", k)
		}
	}
}

func TestScanAggTraceShape(t *testing.T) {
	env, e := newEngine(t, 5)
	var tr *trace.Trace
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		tr = env.Tracer.Start(taxonomy.BigQuery, p.Now())
		_, err = e.Run(p, tr, Query{Kind: ScanAgg, Threshold: 100})
		env.Tracer.Finish(tr, p.Now())
		e.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	b := tr.ComputeBreakdown()
	if b.CPU <= 0 || b.IO <= 0 || b.Remote <= 0 {
		t.Fatalf("breakdown = %+v, want all three classes", b)
	}
	// Scans dominate: IO should exceed CPU for a big scan query.
	if b.IO <= b.CPU {
		t.Fatalf("IO %v <= CPU %v; scans should dominate", b.IO, b.CPU)
	}
}

func TestProfiledCategoriesCoverTable5(t *testing.T) {
	env, e := newEngine(t, 6)
	env.K.Go("client", func(p *sim.Proc) {
		// The calibrated workload mix: half scans, a third joins, a tail of
		// reports.
		for i := 0; i < 12; i++ {
			e.Run(p, nil, Query{Kind: ScanAgg, Threshold: 300})
			if i%3 != 0 {
				e.Run(p, nil, Query{Kind: JoinQuery, Threshold: 200})
			}
			if i%4 == 0 {
				e.Run(p, nil, Query{Kind: Report, Threshold: 100})
			}
		}
		e.Stop()
	})
	env.K.Run()
	cb := env.Prof.CategoryBreakdown(taxonomy.BigQuery, taxonomy.CoreCompute)
	for _, cat := range taxonomy.BigQueryCoreCompute() {
		if cb[cat] <= 0 {
			t.Errorf("category %q has no cycles: %v", cat, cb)
		}
	}
	// Filter should be the largest core category under the default mix.
	for cat, f := range cb {
		if cat != taxonomy.Filter && f > cb[taxonomy.Filter]+0.03 {
			t.Errorf("category %q (%.3f) exceeds Filter (%.3f)", cat, f, cb[taxonomy.Filter])
		}
	}
	bb := env.Prof.BroadBreakdown(taxonomy.BigQuery)
	if bb[taxonomy.CoreCompute] > 0.3 {
		t.Errorf("core compute fraction %.2f too high for BigQuery", bb[taxonomy.CoreCompute])
	}
}

func TestShuffleBytesAccounted(t *testing.T) {
	env, e := newEngine(t, 7)
	env.K.Go("client", func(p *sim.Proc) {
		e.Run(p, nil, Query{Kind: ScanAgg, Threshold: 0})
		e.Stop()
	})
	env.K.Run()
	if e.ShuffleBytes <= 0 {
		t.Fatal("no shuffle bytes recorded")
	}
	if e.Queries[ScanAgg] != 1 {
		t.Fatalf("queries = %v", e.Queries)
	}
}

func TestConcurrentQueriesShareWorkers(t *testing.T) {
	env, e := newEngine(t, 8)
	done := 0
	for i := 0; i < 3; i++ {
		env.K.Go("client", func(p *sim.Proc) {
			if _, err := e.Run(p, nil, Query{Kind: ScanAgg, Threshold: 400}); err != nil {
				t.Errorf("query failed: %v", err)
			}
			done++
			if done == 3 {
				e.Stop()
			}
		})
	}
	env.K.Run()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		env := platform.NewEnv(42, 1)
		e, err := New(env, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		env.K.Go("client", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				e.Run(p, nil, Query{Kind: Kind(i % 3), Threshold: int64(i * 100)})
			}
			e.Stop()
		})
		return env.K.Run()
	}
	if run() != run() {
		t.Fatal("nondeterministic end time")
	}
}

func TestKindString(t *testing.T) {
	if ScanAgg.String() != "ScanAgg" || JoinQuery.String() != "Join" || Report.String() != "Report" || Kind(9).String() != "Unknown" {
		t.Fatal("kind strings")
	}
}

func TestNewRejectsEmptyKeyDomain(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.Groups = 0 },
		func(c *Config) { c.Groups = -3 },
		func(c *Config) { c.DimRows = -1 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(platform.NewEnv(1, 1), cfg); err == nil {
			t.Errorf("config with Groups=%d DimRows=%d accepted", cfg.Groups, cfg.DimRows)
		}
	}
	cfg := DefaultConfig()
	cfg.DimRows = 0
	if _, err := New(platform.NewEnv(1, 1), cfg); err != nil {
		t.Fatalf("empty dimension table rejected: %v", err)
	}
}

// idleWorkerConfig has more workers than fact partitions, so stage 1 leaves
// workers without a partition: 7 of 12 for a full scan, 11 for a join
// (which prunes to one partition).
func idleWorkerConfig() Config {
	cfg := smallConfig()
	cfg.Workers = 12
	cfg.FactPartitions = 5
	return cfg
}

// presentKeys counts the distinct keys a stage-1 shard of partition pi
// carries into the shuffle, from the raw columns: the selected rows' keys,
// or for a rank round every edge target (every key of the partition).
func presentKeys(e *Engine, pi int, keep func(v int64) bool) int64 {
	seen := map[int64]bool{}
	for i, v := range e.fact[pi].vals {
		if keep(v) {
			seen[e.fact[pi].keys[i]] = true
		}
	}
	return int64(len(seen))
}

func TestIdleWorkersExactAndShuffleBytes(t *testing.T) {
	env := platform.NewEnv(11, 1)
	e, err := New(env, idleWorkerConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := check.NewHistory(env.K)
	e.SetRecorder(h)
	if n := e.scanPartitions(Query{Kind: JoinQuery}); n != 1 {
		t.Fatalf("join scans %d partitions, want 1", n)
	}
	queries := []Query{
		{Kind: ScanAgg, Threshold: 0},
		{Kind: JoinQuery, Threshold: 300},
		{Kind: Report, Threshold: 700},
		{Kind: PageRank, Iterations: 2},
	}
	results := make([]*Result, len(queries))
	shuffled := make([]int64, len(queries))
	env.K.Go("client", func(p *sim.Proc) {
		for i, q := range queries {
			before := e.ShuffleBytes
			if results[i], err = e.Run(p, nil, q); err != nil {
				break
			}
			shuffled[i] = e.ShuffleBytes - before
		}
		e.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}

	if got, want := results[0].Groups, e.Reference(0); !reflect.DeepEqual(got, want) {
		t.Errorf("ScanAgg = %v, want %v", got, want)
	}
	if got, want := results[1].Groups, e.ReferenceOver(300, 1); !reflect.DeepEqual(got, want) {
		t.Errorf("Join = %v, want %v", got, want)
	}
	if got, want := results[2].Groups, e.ReferenceOver(700, 1); !reflect.DeepEqual(got, want) {
		t.Errorf("Report = %v, want %v", got, want)
	}
	if got, want := results[3].Groups, e.ReferencePageRank(2); !reflect.DeepEqual(got, want) {
		t.Errorf("PageRank = %v, want %v", got, want)
	}

	var scan, rank int64
	for pi := range e.fact {
		scan += 16 * presentKeys(e, pi, func(v int64) bool { return v >= 0 })
		rank += 16 * presentKeys(e, pi, func(int64) bool { return true })
	}
	want := []int64{scan, e.cfg.PartitionFileBytes, 0, 2 * rank}
	if !reflect.DeepEqual(shuffled, want) {
		t.Errorf("shuffle bytes per query = %v, want %v", shuffled, want)
	}
	if vs := h.Structural(); len(vs) != 0 {
		t.Fatalf("structural violations: %v", vs)
	}
}

func TestIdleWorkersSpeculativeExactlyOnce(t *testing.T) {
	// Each crash lands after server 0 stored a shard and before stage 2
	// fetched it, so the slot is lost and the shard re-executed.
	for _, c := range []struct {
		q       Query
		crashAt time.Duration
	}{
		{Query{Kind: ScanAgg, Threshold: 500}, 85 * time.Millisecond},
		{Query{Kind: PageRank, Iterations: 1}, 75 * time.Millisecond},
	} {
		q := c.q
		env := platform.NewEnv(12, 1)
		e, err := New(env, idleWorkerConfig())
		if err != nil {
			t.Fatal(err)
		}
		h := check.NewHistory(env.K)
		e.SetRecorder(h)
		var res *Result
		env.K.Go("client", func(p *sim.Proc) {
			env.K.Schedule(c.crashAt, func() { _ = e.FailShuffleServer(0) })
			res, err = e.Run(p, nil, q)
			e.Stop()
		})
		env.K.Run()
		if err != nil {
			t.Fatalf("%s: %v", q.Kind, err)
		}
		if e.Speculative == 0 {
			t.Fatalf("%s: Speculative = 0, want lost shards re-executed", q.Kind)
		}
		want := e.Reference(q.Threshold)
		if q.Kind == PageRank {
			want = e.ReferencePageRank(q.Iterations)
		}
		if !reflect.DeepEqual(res.Groups, want) {
			t.Errorf("%s: result differs from reference after the crash", q.Kind)
		}
		if vs := h.Structural(); len(vs) != 0 {
			t.Errorf("%s: structural violations: %v", q.Kind, vs)
		}
	}
}
