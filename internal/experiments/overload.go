package experiments

// The overload study is the control-plane counterpart of the resilience
// study: instead of asking "does the platform survive crashes", it asks
// "does the platform survive its own clients". Each platform runs the same
// open-loop multi-tenant workload twice through a retry-storm trigger (a
// brownout compounded by a flash crowd) — once naive (unbounded queues,
// eager retries, no tenant isolation) and once protected (bounded queues
// with CoDel expiry and adaptive shedding, retry budgets, circuit breakers,
// weighted tenant shares). The rows compare goodput before the trigger with
// goodput in the final quarter of the run, after the trigger has long
// cleared: a metastable collapse shows up as a RecoveryFrac far below 1 on
// the naive arm. Everything is a pure function of the config seed, so
// sequential and parallel runs render byte-identical reports.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"hyperprof/internal/faults"
	"hyperprof/internal/netsim"
	"hyperprof/internal/obs"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/workload"
)

// overloadTenants returns the study's fixed tenant mix for a platform's total
// offered rate: a high-priority interactive tenant with half the load, a
// batch tenant with 30%, and the flash tenant (the one the trigger surges)
// with the rest.
func overloadTenants(rate float64) []workload.OverloadTenant {
	return []workload.OverloadTenant{
		{Name: "interactive", Weight: 3, RatePerSec: rate * 0.5},
		{Name: "batch", Weight: 1, RatePerSec: rate * 0.3},
		{Name: "flash", Weight: 1, RatePerSec: rate * 0.2},
	}
}

// overloadRPCPolicy builds the client-side policy for one arm. Both arms
// retry on a per-attempt deadline — that is what turns a brownout into
// amplified load — but only the protected arm meters its retries with a
// token budget and per-target circuit breakers.
func (o *Overload) overloadRPCPolicy(protected bool, deadline time.Duration) netsim.Policy {
	if !protected {
		// Eager client: quick, barely backed-off retries with no budget.
		// This is the retry amplifier that sustains the metastable state.
		return netsim.Policy{
			Deadline:    deadline,
			MaxAttempts: 6,
			BackoffBase: 100 * time.Microsecond,
			BackoffMax:  500 * time.Microsecond,
		}
	}
	l := o.Cfg.Load
	return netsim.Policy{
		Deadline:        deadline,
		MaxAttempts:     3,
		BackoffBase:     500 * time.Microsecond,
		BackoffMax:      5 * time.Millisecond,
		RetryBudget:     l.RetryBudget,
		BreakerFailures: l.BreakerFailures,
		BreakerCooldown: l.BreakerCooldown,
	}
}

// admission builds the protected arm's server-side admission knobs.
func (o *Overload) admission() netsim.Admission {
	l := o.Cfg.Load
	return netsim.Admission{
		MaxQueue:      l.MaxQueue,
		Target:        l.Target,
		Interval:      l.Interval,
		ShedStartFrac: l.ShedStartFrac,
		Seed:          o.Cfg.Seed ^ 0x4f564c44, // "OVLD"
	}
}

// TenantOverload is one tenant's accounting within an overload row, sorted
// by name in the exported slice.
type TenantOverload struct {
	Name                                     string
	Weight                                   float64
	Arrivals, Successes, Failures, Throttled int
}

// OverloadRow is one (platform, arm) measurement of the overload study.
type OverloadRow struct {
	Platform taxonomy.Platform
	// Protected distinguishes the protected arm (overload control plane on)
	// from the naive arm.
	Protected bool
	// Offered, Done, Errors and Throttled count arrivals, successful
	// completions, failed completions and governor throttles.
	Offered, Done, Errors, Throttled int
	// PreGoodput and PostGoodput are successful completions per virtual
	// second before the trigger and in the final quarter of the run;
	// RecoveryFrac is their ratio (the metastability verdict).
	PreGoodput, PostGoodput float64
	RecoveryFrac            float64
	// Sheds counts server-side rejections (hard bound plus adaptive),
	// Expired counts CoDel queue-deadline discards.
	Sheds, Expired int
	// Client-side control-plane accounting.
	Retries, BudgetExhausted, BreakerOpens, BreakerFastFails int
	// Fairness is Jain's index over weight-normalized tenant goodput.
	Fairness float64
	// Tenants holds per-tenant accounting, sorted by name.
	Tenants []TenantOverload
	// FaultsApplied counts trigger events that fired.
	FaultsApplied int
}

// Overload holds the full study: two rows per platform (naive then
// protected, in taxonomy.Platforms() order) plus the protected arm's
// observability series when enabled.
type Overload struct {
	Cfg    StudyConfig
	Rows   []OverloadRow
	Series map[taxonomy.Platform][]obs.Series
}

// overloadKind runs one platform's naive arm and then its protected arm, on
// either backend. The arms share nothing, yet they stay one unit: split into
// six units, the study's exported bytes were unchanged but the overload
// benchmark's peak RSS rose 7.5% (units in platform order) to 9.7% (naive
// arms first) over 4+4 alternating runs, against a 10% bound. Six units
// likely keep both pool workers busy for longer than three pairs do; that
// cause is not verified.
var overloadKind = unitKind[armUnit, [2]armResult[OverloadRow]]{
	name: "overload/pair",
	check: func(cfg StudyConfig, u armUnit) error {
		l := cfg.Load
		if l.Duration <= 0 || l.SpannerRate <= 0 || l.BigTableRate <= 0 || l.BigQueryRate <= 0 {
			return fmt.Errorf("experiments: invalid overload config %+v", l)
		}
		if l.TriggerAt <= 0 || l.TriggerAt+l.TriggerDur > l.Duration*3/4 {
			return fmt.Errorf("experiments: overload trigger [%v,%v) must clear before the final quarter of %v",
				l.TriggerAt, l.TriggerAt+l.TriggerDur, l.Duration)
		}
		return u.within(taxonomy.Platforms(), "")
	},
	run: func(cfg StudyConfig, u armUnit) (pair [2]armResult[OverloadRow], err error) {
		o := &Overload{Cfg: cfg}
		for i := range pair {
			if pair[i], err = o.runArm(u.Platform, i == 1); err != nil {
				return pair, err
			}
		}
		return pair, nil
	},
}

// Row returns the study's row for a platform arm.
func (o *Overload) Row(p taxonomy.Platform, protected bool) *OverloadRow {
	for i := range o.Rows {
		if o.Rows[i].Platform == p && o.Rows[i].Protected == protected {
			return &o.Rows[i]
		}
	}
	return nil
}

// Overload runs the overload study: per platform, a naive and a protected
// arm of the same open-loop multi-tenant workload through the same
// retry-storm trigger. The three platforms run concurrently (bounded by
// cfg.Parallel); each platform's arms share nothing, so arm order within a
// job is merely conventional.
func (cfg StudyConfig) Overload() (*Overload, error) {
	o := &Overload{Cfg: cfg, Series: map[taxonomy.Platform][]obs.Series{}}
	units := platformUnits("", 0)
	pairs, err := runUnits(cfg, overloadKind, units)
	if err != nil {
		return nil, err
	}
	for i, u := range units {
		for _, arm := range pairs[i] {
			o.Rows = append(o.Rows, arm.Row)
			if arm.Row.Protected && arm.Series != nil {
				o.Series[u.Platform] = arm.Series
			}
		}
	}
	return o, nil
}

// load schedules one arm's multi-tenant workload of ops at the platform's
// total offered rate. The protected arm gates it through a tenant governor.
func (o *Overload) load(env *platform.Env, protected bool, rate float64, ops *workload.Ops) *workload.OverloadRun {
	var gov *netsim.TenantGovernor
	if protected {
		gov = netsim.NewTenantGovernor(o.Cfg.Load.QoSCapacity)
		gov.EnableMetrics(env.Obs)
	}
	l := o.Cfg.Load
	return workload.Overload(workload.OverloadConfig{
		Duration: l.Duration,
		Window:   l.Window,
		Tenants:  overloadTenants(rate),
		Governor: gov,
		Shape:    o.Cfg.Shape,
	}, ops)
}

// brownoutTargets are the servers the retry storm slows, in the order its
// events fire: every Spanner replica (by group, then region) or every
// BigQuery shuffle server. BigTable operations execute on the tablet
// server's node directly (no RPC queue, no slowdown hook), so its trigger is
// the flash crowd alone; overload pressure comes from the surged arrival
// rate itself.
func (b platformBuild) brownoutTargets(p taxonomy.Platform) []string {
	switch p {
	case taxonomy.Spanner:
		return b.replicaTargets()
	case taxonomy.BigQuery:
		return servers(0, 1, b.bigquery.ShuffleServers, shuffleTarget)
	}
	return nil
}

// finish drains the run, stopping the platform behind it, and condenses the
// measurement into a row. stop runs on the sim clock once the workload is
// fully drained (the open-loop driver has no shutdown hook of its own).
func (o *Overload) finish(p taxonomy.Platform, protected bool, env *platform.Env,
	run *workload.OverloadRun, eng *faults.Engine, stop func()) armResult[OverloadRow] {
	env.K.Go("overload-stop", func(sp *sim.Proc) {
		sp.Wait(run.Done)
		if stop != nil {
			stop()
		}
	})
	env.Obs.Start(env.K)
	env.K.Run()

	l := o.Cfg.Load
	postStart := l.Duration * 3 / 4
	row := OverloadRow{
		Platform:      p,
		Protected:     protected,
		PreGoodput:    float64(run.GoodputBetween(0, l.TriggerAt)) / l.TriggerAt.Seconds(),
		PostGoodput:   float64(run.GoodputBetween(postStart, l.Duration)) / (l.Duration - postStart).Seconds(),
		Fairness:      run.Fairness(),
		FaultsApplied: len(eng.Applied),
	}
	row.Offered, row.Done, row.Errors, row.Throttled = run.Totals()
	if row.PreGoodput > 0 {
		row.RecoveryFrac = row.PostGoodput / row.PreGoodput
	}
	for _, t := range run.Tenants {
		row.Tenants = append(row.Tenants, TenantOverload{
			Name: t.Name, Weight: t.Weight,
			Arrivals: t.Arrivals, Successes: t.Successes, Failures: t.Failures, Throttled: t.Throttled,
		})
	}
	sort.Slice(row.Tenants, func(i, j int) bool { return row.Tenants[i].Name < row.Tenants[j].Name })
	return armResult[OverloadRow]{Row: row, Series: env.Obs.Snapshot()}
}

// clientCounters copies the RPC client's control-plane accounting into a row.
func (row *OverloadRow) clientCounters(c *netsim.Client) {
	row.Retries = c.Retries
	row.BudgetExhausted = c.BudgetExhausted
	row.BreakerOpens = c.BreakerOpens
	row.BreakerFastFails = c.BreakerFastFails
}

// runArm runs one platform arm: the platform under the arm's RPC policy
// (and, protected, its admission control), the tenants' open-loop load, and
// the retry-storm trigger on the platform's slowdown targets.
func (o *Overload) runArm(p taxonomy.Platform, protected bool) (armResult[OverloadRow], error) {
	l := o.Cfg.Load
	b := o.Cfg.studyBuild()
	b.spanner.RPC = o.overloadRPCPolicy(protected, 6*time.Millisecond)
	b.bigquery.RPC = o.overloadRPCPolicy(protected, 20*time.Millisecond)
	if protected {
		b.spanner.Admission = o.admission()
		b.bigtable.Admission = o.admission()
		b.bigquery.Admission = o.admission()
	}
	st, err := b.build(p)
	if err != nil {
		return armResult[OverloadRow]{}, err
	}
	defer st.env.K.Close()
	rate := map[taxonomy.Platform]float64{
		taxonomy.Spanner: l.SpannerRate, taxonomy.BigTable: l.BigTableRate, taxonomy.BigQuery: l.BigQueryRate,
	}[p]
	run := o.load(st.env, protected, rate, st.ops)
	eng := b.faultEngine(st)
	var stop func()
	switch p {
	case taxonomy.Spanner:
		stop = st.sp.Stop
	case taxonomy.BigQuery:
		stop = st.bq.Stop
	}
	// The retry storm: a brownout on the platform's servers compounded by a
	// flash crowd on the flash tenant.
	eng.Register("tenant/flash", faults.Actions{
		SetRate: func(mult float64) { run.SetRateMult("flash", mult) },
	})
	eng.InjectAll(faults.RetryStorm(b.brownoutTargets(p), "tenant/flash", l.TriggerAt, l.TriggerDur, l.SlowFactor, l.FlashMult))
	arm := o.finish(p, protected, st.env, run, eng, stop)
	switch p {
	case taxonomy.Spanner:
		shed, adaptive, expired := st.sp.OverloadStats()
		arm.Row.Sheds, arm.Row.Expired = shed+adaptive, expired
		arm.Row.clientCounters(st.sp.RPCClient())
	case taxonomy.BigTable:
		arm.Row.Sheds = st.bt.Shed + st.bt.ShedAdaptive
	case taxonomy.BigQuery:
		shed, adaptive, expired := st.bq.OverloadStats()
		arm.Row.Sheds, arm.Row.Expired = shed+adaptive, expired
		arm.Row.clientCounters(st.bq.RPCClient())
	}
	return arm, nil
}

// JSON renders the study's machine-readable export: the seed and the rows,
// with per-tenant slices already name-sorted, so equal configs produce
// byte-identical documents.
func (o *Overload) JSON() ([]byte, error) {
	doc := struct {
		Seed uint64
		Rows []OverloadRow
	}{Seed: o.Cfg.Seed, Rows: o.Rows}
	return json.MarshalIndent(doc, "", "  ")
}

// RenderOverload renders the study as a fixed-width table: one naive and one
// protected row per platform, with the recovery fraction (post-trigger
// goodput over pre-trigger goodput) as the headline metastability verdict.
func RenderOverload(o *Overload) string {
	var b strings.Builder
	l := o.Cfg.Load
	fmt.Fprintf(&b, "Overload control under a retry storm (seed %d; trigger %v+%v, slow x%.0f, flash x%.0f)\n",
		o.Cfg.Seed, l.TriggerAt, l.TriggerDur, l.SlowFactor, l.FlashMult)
	fmt.Fprintf(&b, "%-10s %-10s %7s %7s %6s %6s %9s %9s %7s %6s %7s %7s %6s %6s %6s\n",
		"platform", "arm", "offered", "done", "errs", "thr", "pre/s", "post/s", "recov%", "sheds", "expired", "retries", "budget", "brkr", "fair")
	for _, row := range o.Rows {
		arm := "naive"
		if row.Protected {
			arm = "protected"
		}
		fmt.Fprintf(&b, "%-10s %-10s %7d %7d %6d %6d %9.1f %9.1f %7.1f %6d %7d %7d %6d %6d %6.3f\n",
			row.Platform, arm, row.Offered, row.Done, row.Errors, row.Throttled,
			row.PreGoodput, row.PostGoodput, row.RecoveryFrac*100,
			row.Sheds, row.Expired, row.Retries, row.BudgetExhausted, row.BreakerOpens, row.Fairness)
	}
	return b.String()
}
