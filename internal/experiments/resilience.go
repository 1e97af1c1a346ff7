package experiments

import (
	"fmt"
	"strings"
	"time"

	"hyperprof/internal/faults"
	"hyperprof/internal/netsim"
	"hyperprof/internal/obs"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
	"hyperprof/internal/workload"
)

// resilienceRPCPolicy is the client-side policy both arms run with: a few
// quick retries so transient faults (crashed replica, dropped message, shed
// request) are retried instead of surfacing as operation errors. No deadline
// is set.
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

func (r ResilienceRow) elapsed() time.Duration { return r.Elapsed }

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

// resilienceKind runs resilience arms on either backend: a zero horizon is a
// platform's baseline, a positive one its faulted arm over that baseline's
// elapsed time.
var resilienceKind = unitKind[armResult[ResilienceRow]]{
	name: "resilience/arm",
	check: func(cfg StudyConfig, u armUnit) error {
		if cfg.Clients <= 0 || cfg.TraceRate <= 0 {
			return fmt.Errorf("experiments: invalid resilience config %+v", cfg)
		}
		return u.within(taxonomy.Platforms(), "")
	},
	run: func(cfg StudyConfig, u armUnit) (armResult[ResilienceRow], error) {
		return (&Resilience{Cfg: cfg}).runArm(u.Platform, u.Horizon)
	},
}

// Resilience measures each platform fault-free, generates a seeded fault
// schedule spanning the measured horizon, and re-runs the identical workload
// under injection. Equal configs replay bit-identically; the arms fan out
// across the configured backend in two waves — the three baselines, then
// the three faulted arms, each over its own baseline's elapsed time — and
// merge in platform order.
func (cfg StudyConfig) Resilience() (*Resilience, error) {
	r := &Resilience{
		Cfg:    cfg,
		Traces: map[taxonomy.Platform][]*trace.Trace{},
		Marks:  map[taxonomy.Platform][]trace.Mark{},
		Series: map[taxonomy.Platform][]obs.Series{},
	}
	calUnits := platformUnits("", 0)
	cals, _, faulted, err := calibrateThenTorture(cfg, resilienceKind, calUnits,
		func(units []armUnit, i int, horizon time.Duration) []armUnit {
			return append(units, armUnit{Platform: calUnits[i].Platform, Horizon: horizon})
		})
	if err != nil {
		return nil, err
	}
	for i, cal := range calUnits {
		p, arm := cal.Platform, faulted[i]
		r.Rows = append(r.Rows, cals[i].Row, arm.Row)
		if !arm.Row.Faulted {
			continue
		}
		r.Traces[p], r.Marks[p] = arm.Traces, arm.Marks
		if arm.Series != nil {
			r.Series[p] = arm.Series
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
func (r *Resilience) runArm(p taxonomy.Platform, horizon time.Duration) (armResult[ResilienceRow], error) {
	b := r.Cfg.studyBuild()
	b.spanner.RPC = resilienceRPCPolicy()
	b.bigquery.RPC = resilienceRPCPolicy()
	st, err := b.build(p)
	if err != nil {
		return armResult[ResilienceRow]{}, err
	}
	defer st.env.K.Close()
	var eng *faults.Engine
	if horizon > 0 {
		eng = b.faultEngine(st)
		// One Spanner replica per group may crash, so a majority always
		// survives and no acknowledged write can be lost.
		eng.InjectAll(faults.GenerateSchedule(b.crashTargets(p, 1), st.faultSchedule(r.Cfg.Faults, horizon)))
	}
	run := st.closedLoop(r.Cfg.Clients, r.Cfg.Ops.of(p), workload.ClosedLoopOpts{Shape: r.Cfg.Shape})
	return r.measure(p, st.env, run, eng)
}

// measure drains the scheduled workload and condenses it into an arm-local
// result. Elapsed is the instant the workload drains, not the kernel's final
// time: recovery events from the fault schedule may fire after the last
// operation.
func (r *Resilience) measure(p taxonomy.Platform, env *platform.Env, run *workload.Run, eng *faults.Engine) (armResult[ResilienceRow], error) {
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
	arm := armResult[ResilienceRow]{Row: row, Series: env.Obs.Snapshot()}
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
