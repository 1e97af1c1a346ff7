// Package experiments contains one harness per table and figure of the
// paper's evaluation, built on the platform simulations, the profiling and
// tracing substrates, and the analytical model. DESIGN.md's per-experiment
// index maps each paper artifact to the function here that regenerates it.
//
// Every study runs from the unified StudyConfig core (study.go): one struct
// of grouped knobs with one method entry point per study.
package experiments

import (
	"fmt"
	"time"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/netsim"
	"hyperprof/internal/obs"
	"hyperprof/internal/platform"
	"hyperprof/internal/profile"
	"hyperprof/internal/spanner"
	"hyperprof/internal/storage"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
	"hyperprof/internal/workload"
)

// Characterization holds everything the table/figure extractors consume.
type Characterization struct {
	Cfg       StudyConfig
	Envs      map[taxonomy.Platform]*platform.Env
	Traces    map[taxonomy.Platform][]*trace.Trace
	Inventory *storage.Inventory
	// QueryBytes is the mean bytes of storage read per query, per platform
	// (feeds Figure 13's off-chip B_i).
	QueryBytes map[taxonomy.Platform]float64
	// Elapsed is the wall-clock time of each platform's simulated day.
	Elapsed map[taxonomy.Platform]time.Duration
	// Series is each platform's observability snapshot; empty unless
	// Cfg.Obs.Enabled.
	Series map[taxonomy.Platform][]obs.Series
}

// platformRun is one platform's completed simulated day, self-contained so
// the three platforms can run on concurrent goroutines and be merged into
// the Characterization afterwards in fixed platform order.
type platformRun struct {
	env        *platform.Env
	traces     []*trace.Trace
	elapsed    time.Duration
	queryBytes float64
	stores     []*storage.TieredStore
	series     []obs.Series
}

// charRuns maps each platform to its simulated day.
var charRuns = map[taxonomy.Platform]func(StudyConfig) (platformRun, error){
	taxonomy.Spanner:  runSpannerChar,
	taxonomy.BigTable: runBigTableChar,
	taxonomy.BigQuery: runBigQueryChar,
}

// Characterize builds all three platforms, drives their calibrated
// workloads, and collects traces, profiles, inventory and (when enabled)
// observability series. The platforms are independent simulations; they run
// concurrently (bounded by cfg.Parallel) and merge deterministically, so the
// result is byte-for-byte identical to a sequential run with the same seed.
func (cfg StudyConfig) Characterize() (*Characterization, error) {
	if cfg.Clients <= 0 || cfg.TraceRate <= 0 {
		return nil, fmt.Errorf("experiments: invalid characterization config %+v", cfg)
	}
	if err := checkBackend(cfg); err != nil {
		return nil, err
	}
	// A platformRun hands live simulator state (envs, profilers, tracers)
	// straight to the figure extractors; it has no wire form, so the
	// characterization always executes in-process whatever backend the
	// config selects.
	runs, err := runJobs(cfg.Parallel, taxonomy.Platforms(), func(p taxonomy.Platform) (platformRun, error) {
		return charRuns[p](cfg)
	})
	if err != nil {
		return nil, err
	}
	ch := &Characterization{
		Cfg:        cfg,
		Envs:       map[taxonomy.Platform]*platform.Env{},
		Traces:     map[taxonomy.Platform][]*trace.Trace{},
		Inventory:  storage.NewInventory(),
		QueryBytes: map[taxonomy.Platform]float64{},
		Elapsed:    map[taxonomy.Platform]time.Duration{},
		Series:     map[taxonomy.Platform][]obs.Series{},
	}
	for i, p := range taxonomy.Platforms() {
		run := runs[i]
		ch.Envs[p] = run.env
		ch.Traces[p] = run.traces
		ch.Elapsed[p] = run.elapsed
		ch.QueryBytes[p] = run.queryBytes
		if run.series != nil {
			ch.Series[p] = run.series
		}
		for _, s := range run.stores {
			ch.Inventory.AddStore(p, s)
		}
	}
	return ch, nil
}

// enableStudyObs wires the environment's observability plane when the study
// asks for it. Must run after any env.Net replacement and before the
// platform constructor (see platform.Env.EnableObs).
func enableStudyObs(cfg StudyConfig, env *platform.Env) {
	if cfg.Obs.Enabled {
		env.EnableObs(cfg.Obs.registry())
	}
}

func runSpannerChar(cfg StudyConfig) (platformRun, error) {
	env := platform.NewEnv(cfg.Seed, cfg.TraceRate)
	env.Net = netsim.New(env.K, spanner.RecommendedNetConfig())
	enableStudyObs(cfg, env)
	db, err := spanner.New(env, spanner.DefaultConfig())
	if err != nil {
		return platformRun{}, err
	}
	run := workload.Spanner(env, db, workload.DefaultSpannerMix(), cfg.Clients, cfg.Ops.Spanner)
	env.Obs.Start(env.K)
	end := env.K.Run()
	if err := run.Err(); err != nil {
		return platformRun{}, fmt.Errorf("spanner workload: %w", err)
	}
	out := platformRun{env: env, traces: env.Tracer.Sampled(), elapsed: end, series: env.Obs.Snapshot()}
	var bytesRead int64
	for _, m := range db.Machines() {
		out.stores = append(out.stores, m.Store)
		for _, t := range storage.Tiers() {
			bytesRead += m.Store.Stats(t).BytesRead
		}
	}
	out.queryBytes = float64(bytesRead) / float64(cfg.Ops.Spanner)
	return out, nil
}

func runBigTableChar(cfg StudyConfig) (platformRun, error) {
	env := platform.NewEnv(cfg.Seed+1, cfg.TraceRate)
	enableStudyObs(cfg, env)
	db, err := bigtable.New(env, bigtable.DefaultConfig())
	if err != nil {
		return platformRun{}, err
	}
	run := workload.BigTable(env, db, workload.DefaultBigTableMix(), cfg.Clients, cfg.Ops.BigTable)
	env.Obs.Start(env.K)
	end := env.K.Run()
	if err := run.Err(); err != nil {
		return platformRun{}, fmt.Errorf("bigtable workload: %w", err)
	}
	out := platformRun{env: env, traces: env.Tracer.Sampled(), elapsed: end, series: env.Obs.Snapshot()}
	var bytesRead int64
	for _, m := range db.Machines() {
		out.stores = append(out.stores, m.Store)
	}
	for _, s := range db.DFS().Servers() {
		out.stores = append(out.stores, s)
		for _, t := range storage.Tiers() {
			bytesRead += s.Stats(t).BytesRead
		}
	}
	out.queryBytes = float64(bytesRead) / float64(cfg.Ops.BigTable)
	return out, nil
}

func runBigQueryChar(cfg StudyConfig) (platformRun, error) {
	env := platform.NewEnv(cfg.Seed+2, cfg.TraceRate)
	enableStudyObs(cfg, env)
	e, err := bigquery.New(env, bigquery.DefaultConfig())
	if err != nil {
		return platformRun{}, err
	}
	run := workload.BigQuery(env, e, workload.DefaultBigQueryMix(), cfg.Clients, cfg.Ops.BigQuery)
	env.Obs.Start(env.K)
	end := env.K.Run()
	if err := run.Err(); err != nil {
		return platformRun{}, fmt.Errorf("bigquery workload: %w", err)
	}
	out := platformRun{env: env, traces: env.Tracer.Sampled(), elapsed: end, series: env.Obs.Snapshot()}
	var bytesRead int64
	for _, m := range e.Machines() {
		out.stores = append(out.stores, m.Store)
	}
	for _, s := range e.DFS().Servers() {
		out.stores = append(out.stores, s)
		for _, t := range storage.Tiers() {
			bytesRead += s.Stats(t).BytesRead
		}
	}
	out.queryBytes = float64(bytesRead) / float64(cfg.Ops.BigQuery)
	return out, nil
}

// Prof returns a platform's profiler.
func (ch *Characterization) Prof(p taxonomy.Platform) *profile.Profiler {
	return ch.Envs[p].Prof
}
