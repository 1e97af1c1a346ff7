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

	"hyperprof/internal/obs"
	"hyperprof/internal/platform"
	"hyperprof/internal/profile"
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
	runs, err := runJobs(cfg.Parallel, taxonomy.Platforms(), cfg.characterize)
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

// studyBuild is the platform build of the studies that run at the study's
// trace rate with its obs plane, on adjacent seeds. Overload sets no trace
// rate, so its stacks record no traces.
func (cfg StudyConfig) studyBuild() platformBuild {
	b := newPlatformBuild(cfg.Seed, adjacentSeeds, cfg.TraceRate)
	b.obs = cfg.Obs
	return b
}

// characterize runs one platform's simulated day.
func (cfg StudyConfig) characterize(p taxonomy.Platform) (platformRun, error) {
	st, err := cfg.studyBuild().build(p)
	if err != nil {
		return platformRun{}, err
	}
	defer st.env.K.Close()
	total := cfg.Ops.of(p)
	run := st.closedLoop(cfg.Clients, total, workload.ClosedLoopOpts{})
	st.env.Obs.Start(st.env.K)
	end := st.env.K.Run()
	if err := run.Err(); err != nil {
		return platformRun{}, fmt.Errorf("%s workload: %w", st.name, err)
	}
	out := platformRun{env: st.env, traces: st.env.Tracer.Sampled(), elapsed: end, series: st.env.Obs.Snapshot()}
	var queried []*storage.TieredStore
	out.stores, queried = st.stores()
	var bytesRead int64
	for _, store := range queried {
		for _, t := range storage.Tiers() {
			bytesRead += store.Stats(t).BytesRead
		}
	}
	out.queryBytes = float64(bytesRead) / float64(total)
	return out, nil
}

// Prof returns a platform's profiler.
func (ch *Characterization) Prof(p taxonomy.Platform) *profile.Profiler {
	return ch.Envs[p].Prof
}
