package experiments

import (
	"fmt"
	"strings"
	"time"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/faults"
	"hyperprof/internal/netsim"
	"hyperprof/internal/obs"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/spanner"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
	"hyperprof/internal/workload"
)

// resilienceRPCPolicy is the client-side policy both arms run with: a few
// quick retries so transient faults (crashed replica, dropped message, shed
// request) are retried instead of surfacing as operation errors. No deadline
// is set; hedging is exercised separately in the netsim tests.
func resilienceRPCPolicy() netsim.Policy {
	return netsim.Policy{
		MaxAttempts: 3,
		BackoffBase: 200 * time.Microsecond,
		BackoffMax:  2 * time.Millisecond,
	}
}

// ResilienceRow is one (platform, arm) measurement.
type ResilienceRow struct {
	Platform taxonomy.Platform
	// Faulted distinguishes the fault-injected arm from the baseline.
	Faulted bool
	// Ops and Errors count issued operations and the subset that failed.
	Ops, Errors int
	// Availability is successful ops / issued ops.
	Availability float64
	// Elapsed is the virtual time to drain the workload.
	Elapsed time.Duration
	// GoodputOpsPerSec is successful ops per virtual second.
	GoodputOpsPerSec float64
	// Latency quantiles over per-operation end-to-end latencies.
	P50, P99, P999 time.Duration
	// FaultsApplied counts fault events that fired during the run.
	FaultsApplied int
	// FaultEvents lists the applied faults (empty for the baseline arm).
	FaultEvents []faults.Applied
}

// Resilience holds the full study: two rows per platform (baseline then
// faulted, in taxonomy.Platforms() order) plus the faulted arm's traces,
// fault marks and (when enabled) observability series for timeline export.
type Resilience struct {
	Cfg    StudyConfig
	Rows   []ResilienceRow
	Traces map[taxonomy.Platform][]*trace.Trace
	Marks  map[taxonomy.Platform][]trace.Mark
	// Series is the faulted arm's observability snapshot per platform; empty
	// unless Cfg.Obs.Enabled.
	Series map[taxonomy.Platform][]obs.Series
}

// resilienceArm is one completed (platform, arm) measurement plus the traces,
// fault marks and observability series the faulted arm exports, kept
// arm-local so platforms can run on concurrent goroutines — or in worker
// subprocesses — and merge afterwards in platform order. Fields are
// exported because the arm pair is the resilience study's wire type: the
// exec backend ships it between worker and coordinator as JSON (trace.Trace
// round-trips its sampling state through custom JSON for exactly this).
type resilienceArm struct {
	Row    ResilienceRow
	Traces []*trace.Trace
	Marks  []trace.Mark
	Series []obs.Series
}

// resilienceUnit is one platform's baseline+faulted arm pair. The pair stays
// one unit because the fault schedule spans the measured baseline horizon.
type resilienceUnit struct {
	Platform taxonomy.Platform `json:"platform"`
}

// resilienceKind runs platform arm pairs on either backend.
var resilienceKind = unitKind[resilienceUnit, [2]resilienceArm]{
	name: "resilience/pair",
	run: func(cfg StudyConfig, u resilienceUnit) ([2]resilienceArm, error) {
		return (&Resilience{Cfg: cfg}).runPair(u.Platform)
	},
}

// runPair runs one platform's baseline arm and then, over the measured
// horizon, its faulted arm.
func (r *Resilience) runPair(p taxonomy.Platform) ([2]resilienceArm, error) {
	base, err := r.runArm(p, 0)
	if err != nil {
		return [2]resilienceArm{}, err
	}
	faulted, err := r.runArm(p, base.Row.Elapsed)
	if err != nil {
		return [2]resilienceArm{}, err
	}
	return [2]resilienceArm{base, faulted}, nil
}

// Resilience measures each platform fault-free, generates a seeded fault
// schedule spanning the measured horizon, and re-runs the identical workload
// under injection. Equal configs replay bit-identically; the three platforms
// run concurrently (bounded by cfg.Parallel) with each platform's
// baseline→faulted pair kept sequential, since the fault schedule spans the
// measured baseline horizon.
func (cfg StudyConfig) Resilience() (*Resilience, error) {
	if cfg.Clients <= 0 || cfg.TraceRate <= 0 {
		return nil, fmt.Errorf("experiments: invalid resilience config %+v", cfg)
	}
	r := &Resilience{
		Cfg:    cfg,
		Traces: map[taxonomy.Platform][]*trace.Trace{},
		Marks:  map[taxonomy.Platform][]trace.Mark{},
		Series: map[taxonomy.Platform][]obs.Series{},
	}
	platforms := taxonomy.Platforms()
	units := make([]resilienceUnit, len(platforms))
	for i, p := range platforms {
		units[i] = resilienceUnit{Platform: p}
	}
	pairs, err := runUnits(cfg, resilienceKind, units)
	if err != nil {
		return nil, err
	}
	for i, u := range units {
		for _, arm := range pairs[i] {
			r.Rows = append(r.Rows, arm.Row)
			if arm.Row.Faulted {
				r.Traces[u.Platform] = arm.Traces
				r.Marks[u.Platform] = arm.Marks
				if arm.Series != nil {
					r.Series[u.Platform] = arm.Series
				}
			}
		}
	}
	return r, nil
}

// Row returns the study's row for a platform arm.
func (r *Resilience) Row(p taxonomy.Platform, faulted bool) *ResilienceRow {
	for i := range r.Rows {
		if r.Rows[i].Platform == p && r.Rows[i].Faulted == faulted {
			return &r.Rows[i]
		}
	}
	return nil
}

// runArm runs one platform arm. A zero horizon is the baseline (no faults);
// a positive horizon is the faulted arm with a schedule spanning it. The arm
// builds its own environment and kernel and touches no study state, so
// distinct platforms may run concurrently.
func (r *Resilience) runArm(p taxonomy.Platform, horizon time.Duration) (resilienceArm, error) {
	switch p {
	case taxonomy.Spanner:
		return r.runSpanner(horizon)
	case taxonomy.BigTable:
		return r.runBigTable(horizon)
	case taxonomy.BigQuery:
		return r.runBigQuery(horizon)
	}
	return resilienceArm{}, fmt.Errorf("experiments: unknown platform %q", p)
}

func (r *Resilience) runSpanner(horizon time.Duration) (resilienceArm, error) {
	env := platform.NewEnv(r.Cfg.Seed, r.Cfg.TraceRate)
	defer env.K.Close()
	env.Net = netsim.New(env.K, spanner.RecommendedNetConfig())
	enableStudyObs(r.Cfg, env)
	scfg := spanner.DefaultConfig()
	scfg.RPC = resilienceRPCPolicy()
	db, err := spanner.New(env, scfg)
	if err != nil {
		return resilienceArm{}, err
	}
	var eng *faults.Engine
	if horizon > 0 {
		eng = faults.NewEngine(env.K)
		// One replica per group is injectable, so a majority always
		// survives and no acknowledged write can be lost. The target region
		// cycles with the group index, so initial leaders (region 0) are
		// crashed too and elections are exercised.
		for g := 0; g < scfg.Groups; g++ {
			g, region := g, g%scfg.Regions
			eng.Register(fmt.Sprintf("spanner/g%d/r%d", g, region), faults.Actions{
				Crash:       func() { _ = db.CrashReplica(g, region) },
				Recover:     func() { _ = db.RestartReplica(g, region) },
				SetSlowdown: func(f float64) { _ = db.SetReplicaSlowdown(g, region, f) },
			})
		}
		registerLinks(eng, env.Net, r.Cfg.Seed)
		eng.InjectAll(faults.GenerateSchedule(eng.Targets(), r.Cfg.Faults.schedule(horizon, r.Cfg.Seed, r.Cfg.Faults.StragglerProb, env.Net.NodeNames())))
	}
	run := workload.Spanner(env, db, workload.DefaultSpannerMix(), r.Cfg.Clients, r.Cfg.Ops.Spanner,
		workload.ClosedLoopOpts{Shape: r.Cfg.Shape})
	return r.measure(taxonomy.Spanner, env, run, eng)
}

func (r *Resilience) runBigTable(horizon time.Duration) (resilienceArm, error) {
	env := platform.NewEnv(r.Cfg.Seed+1, r.Cfg.TraceRate)
	defer env.K.Close()
	enableStudyObs(r.Cfg, env)
	db, err := bigtable.New(env, bigtable.DefaultConfig())
	if err != nil {
		return resilienceArm{}, err
	}
	var eng *faults.Engine
	if horizon > 0 {
		eng = faults.NewEngine(env.K)
		registerTabletTargets(eng, db, bigtable.DefaultConfig().TabletServers)
		eng.InjectAll(faults.GenerateSchedule(eng.Targets(), r.Cfg.Faults.schedule(horizon, r.Cfg.Seed+1, 0, nil)))
	}
	run := workload.BigTable(env, db, workload.DefaultBigTableMix(), r.Cfg.Clients, r.Cfg.Ops.BigTable,
		workload.ClosedLoopOpts{Shape: r.Cfg.Shape})
	return r.measure(taxonomy.BigTable, env, run, eng)
}

func (r *Resilience) runBigQuery(horizon time.Duration) (resilienceArm, error) {
	env := platform.NewEnv(r.Cfg.Seed+2, r.Cfg.TraceRate)
	defer env.K.Close()
	enableStudyObs(r.Cfg, env)
	qcfg := bigquery.DefaultConfig()
	qcfg.RPC = resilienceRPCPolicy()
	e, err := bigquery.New(env, qcfg)
	if err != nil {
		return resilienceArm{}, err
	}
	var eng *faults.Engine
	if horizon > 0 {
		eng = faults.NewEngine(env.K)
		registerShuffleTargets(eng, e, qcfg.ShuffleServers)
		registerLinks(eng, env.Net, r.Cfg.Seed)
		eng.InjectAll(faults.GenerateSchedule(eng.Targets(), r.Cfg.Faults.schedule(horizon, r.Cfg.Seed+2, r.Cfg.Faults.StragglerProb, env.Net.NodeNames())))
	}
	run := workload.BigQuery(env, e, workload.DefaultBigQueryMix(), r.Cfg.Clients, r.Cfg.Ops.BigQuery,
		workload.ClosedLoopOpts{Shape: r.Cfg.Shape})
	return r.measure(taxonomy.BigQuery, env, run, eng)
}

// measure drains the scheduled workload and condenses it into an arm-local
// result. Elapsed is the instant the workload drains, not the kernel's final
// time: recovery events from the fault schedule may fire after the last
// operation.
func (r *Resilience) measure(p taxonomy.Platform, env *platform.Env, run *workload.Run, eng *faults.Engine) (resilienceArm, error) {
	var elapsed time.Duration
	env.K.Go("resilience-measure", func(mp *sim.Proc) {
		mp.Wait(run.Done)
		elapsed = mp.Now()
	})
	env.Obs.Start(env.K)
	env.K.Run()
	row := ResilienceRow{
		Platform: p,
		Faulted:  eng != nil,
		Ops:      run.Completed,
		Errors:   len(run.Errors),
		Elapsed:  elapsed,
	}
	if row.Ops > 0 {
		row.Availability = float64(row.Ops-row.Errors) / float64(row.Ops)
	}
	if elapsed > 0 {
		row.GoodputOpsPerSec = float64(row.Ops-row.Errors) / elapsed.Seconds()
	}
	lat := &stats.Summary{}
	traces := env.Tracer.Sampled()
	for _, t := range traces {
		lat.Add((t.End - t.Start).Seconds())
	}
	if lat.N() > 0 {
		row.P50 = time.Duration(lat.Quantile(0.50) * float64(time.Second))
		row.P99 = time.Duration(lat.Quantile(0.99) * float64(time.Second))
		row.P999 = time.Duration(lat.Quantile(0.999) * float64(time.Second))
	}
	arm := resilienceArm{Row: row, Series: env.Obs.Snapshot()}
	if eng != nil {
		arm.Row.FaultsApplied = len(eng.Applied)
		arm.Row.FaultEvents = eng.Applied
		arm.Traces = traces
		arm.Marks = faultMarks(eng)
	}
	return arm, nil
}

// RenderResilience renders the study as a fixed-width table with a per-row
// faults-on vs faults-off comparison.
func RenderResilience(r *Resilience) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resilience under injected faults (seed %d; availability = successful ops / issued ops)\n", r.Cfg.Seed)
	fmt.Fprintf(&b, "%-10s %-9s %6s %5s %7s %10s %10s %10s %10s %10s %7s\n",
		"platform", "arm", "ops", "errs", "avail%", "elapsed", "goodput/s", "p50", "p99", "p999", "faults")
	for _, row := range r.Rows {
		arm := "baseline"
		if row.Faulted {
			arm = "faulted"
		}
		fmt.Fprintf(&b, "%-10s %-9s %6d %5d %7.2f %10s %10.1f %10s %10s %10s %7d\n",
			row.Platform, arm, row.Ops, row.Errors, row.Availability*100,
			row.Elapsed.Round(time.Millisecond), row.GoodputOpsPerSec,
			row.P50.Round(10*time.Microsecond), row.P99.Round(10*time.Microsecond),
			row.P999.Round(10*time.Microsecond), row.FaultsApplied)
	}
	return b.String()
}
