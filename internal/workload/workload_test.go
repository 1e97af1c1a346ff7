package workload

import (
	"testing"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/netsim"
	"hyperprof/internal/platform"
	"hyperprof/internal/spanner"
	"hyperprof/internal/trace"
)

func spannerFixture(t *testing.T, seed uint64) (*platform.Env, *spanner.DB) {
	t.Helper()
	env := platform.NewEnv(seed, 1)
	env.Net = netsim.New(env.K, spanner.RecommendedNetConfig())
	cfg := spanner.DefaultConfig()
	cfg.Groups = 3
	cfg.RowsPerGroup = 500
	cfg.QueryScanRows = 40
	db, err := spanner.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, db
}

func TestSpannerWorkload(t *testing.T) {
	env, db := spannerFixture(t, 10)
	run := Spanner(env, db, DefaultSpannerMix(), 4, 120)
	env.K.Run()
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	if run.Completed != 120 {
		t.Fatalf("completed = %d", run.Completed)
	}
	if !run.Done.Fired() {
		t.Fatal("done signal not fired")
	}
	if got := len(env.Tracer.Sampled()); got != 120 {
		t.Fatalf("traces = %d", got)
	}
	// The default mix must have exercised all three op types.
	if db.Reads == 0 || db.Writes == 0 || db.Queries == 0 {
		t.Fatalf("op counts: r=%d w=%d q=%d", db.Reads, db.Writes, db.Queries)
	}
	if db.Reads <= db.Writes {
		t.Fatalf("mix skew wrong: reads=%d writes=%d", db.Reads, db.Writes)
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}

func TestSpannerWorkloadGroupShape(t *testing.T) {
	env, db := spannerFixture(t, 11)
	run := Spanner(env, db, DefaultSpannerMix(), 8, 600)
	env.K.Run()
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	rows := trace.Aggregate(env.Tracer.Sampled())
	byGroup := map[trace.Group]trace.GroupStats{}
	for _, r := range rows {
		byGroup[r.Group] = r
	}
	// Paper shape: Spanner is primarily CPU heavy (>60% of queries).
	if f := byGroup[trace.GroupCPUHeavy].QueryFrac; f < 0.5 {
		t.Errorf("CPU-heavy fraction = %.2f, want >= 0.5", f)
	}
	// Remote-heavy queries (commit quorums) exist.
	if byGroup[trace.GroupRemoteHeavy].Queries == 0 {
		t.Error("no remote-heavy queries")
	}
	ov := byGroup[trace.GroupOverall]
	if ov.CPUFrac < 0.35 {
		t.Errorf("overall CPU frac = %.2f, want >= 0.35", ov.CPUFrac)
	}
}

func TestBigTableWorkload(t *testing.T) {
	env := platform.NewEnv(12, 1)
	cfg := bigtable.DefaultConfig()
	cfg.Tablets = 4
	cfg.TabletServers = 2
	cfg.RowsPerTablet = 400
	cfg.ScanRows = 40
	db, err := bigtable.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := BigTable(env, db, DefaultBigTableMix(), 4, 200)
	env.K.Run()
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	if run.Completed != 200 {
		t.Fatalf("completed = %d", run.Completed)
	}
	if db.Gets == 0 || db.Puts == 0 || db.Scans == 0 {
		t.Fatalf("op counts: g=%d p=%d s=%d", db.Gets, db.Puts, db.Scans)
	}
	// Compactions should have occurred under 70 puts.
	if db.MinorCompactions == 0 {
		t.Error("no minor compactions under sustained puts")
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}

func TestBigQueryWorkload(t *testing.T) {
	env := platform.NewEnv(13, 1)
	cfg := bigquery.DefaultConfig()
	cfg.FactPartitions = 8
	cfg.RowsPerPartition = 300
	cfg.Workers = 4
	e, err := bigquery.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := BigQuery(env, e, DefaultBigQueryMix(), 3, 30)
	env.K.Run()
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	if run.Completed != 30 {
		t.Fatalf("completed = %d", run.Completed)
	}
	total := 0
	for _, n := range e.Queries {
		total += n
	}
	if total != 30 {
		t.Fatalf("engine queries = %d", total)
	}
	// ScanAgg dominates the default mix.
	if e.Queries[bigquery.ScanAgg] < e.Queries[bigquery.Report] {
		t.Fatalf("mix skew: %v", e.Queries)
	}
	rows := trace.Aggregate(env.Tracer.Sampled())
	var overall trace.GroupStats
	for _, r := range rows {
		if r.Group == trace.GroupOverall {
			overall = r
		}
	}
	// Paper shape: BigQuery is IO/remote dominated, not CPU dominated.
	if overall.CPUFrac > 0.55 {
		t.Errorf("overall CPU frac = %.2f, want IO/remote dominated", overall.CPUFrac)
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	runOnce := func() int {
		env, db := spannerFixture(t, 99)
		run := Spanner(env, db, DefaultSpannerMix(), 3, 60)
		env.K.Run()
		if err := run.Err(); err != nil {
			t.Fatal(err)
		}
		return db.Reads*1000000 + db.Writes*1000 + db.Queries
	}
	if runOnce() != runOnce() {
		t.Fatal("workload nondeterministic")
	}
}

func TestRunErrHelper(t *testing.T) {
	r := &Run{}
	if r.Err() != nil {
		t.Fatal("empty run has error")
	}
	r.fail("op", errSentinel)
	if r.Err() == nil || len(r.Errors) != 1 {
		t.Fatalf("errors = %v", r.Errors)
	}
}

var errSentinel = sentinelErr{}

type sentinelErr struct{}

func (sentinelErr) Error() string { return "sentinel" }

func TestSpannerOpenLoop(t *testing.T) {
	env, db := spannerFixture(t, 50)
	res := SpannerOpenLoopWithOpts(env, db, DefaultSpannerMix(), 2000, 150, OpenLoopOpts{})
	env.K.Run()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Completed != 150 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.Latencies.N() != 150 {
		t.Fatalf("latencies = %d", res.Latencies.N())
	}
	if res.Latencies.Quantile(0.5) <= 0 {
		t.Fatal("zero median latency")
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}

func TestSpannerOpenLoopLatencyGrowsWithLoad(t *testing.T) {
	p99At := func(rate float64) float64 {
		env, db := spannerFixture(t, 51)
		res := SpannerOpenLoopWithOpts(env, db, DefaultSpannerMix(), rate, 250, OpenLoopOpts{})
		env.K.Run()
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return res.Latencies.Quantile(0.99)
	}
	light := p99At(500)
	heavy := p99At(40000)
	if heavy <= light {
		t.Fatalf("p99 under heavy load (%.4fs) <= light load (%.4fs)", heavy, light)
	}
}

func TestSpannerOpenLoopValidation(t *testing.T) {
	env, db := spannerFixture(t, 52)
	res := SpannerOpenLoopWithOpts(env, db, DefaultSpannerMix(), 0, 10, OpenLoopOpts{})
	if res.Err() == nil {
		t.Fatal("zero rate accepted")
	}
	db.Stop()
	env.K.Run()
}

func TestBigTableOpenLoop(t *testing.T) {
	env := platform.NewEnv(60, 1)
	cfg := bigtable.DefaultConfig()
	cfg.Tablets = 4
	cfg.TabletServers = 2
	cfg.RowsPerTablet = 400
	db, err := bigtable.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := BigTableOpenLoopWithOpts(env, db, DefaultBigTableMix(), 2000, 120, OpenLoopOpts{})
	env.K.Run()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Completed != 120 || res.Latencies.N() != 120 {
		t.Fatalf("completed=%d latencies=%d", res.Completed, res.Latencies.N())
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}
