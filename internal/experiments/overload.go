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

// overloadArm is one completed (platform, arm) measurement. Fields are
// exported because the arm pair is the overload study's wire type: the exec
// backend ships it between worker and coordinator as JSON.
type overloadArm struct {
	Row    OverloadRow
	Series []obs.Series
}

// overloadUnit is one platform's naive+protected arm pair. The arms share
// nothing, but pairing them keeps one platform's work on one worker.
type overloadUnit struct {
	Platform taxonomy.Platform `json:"platform"`
}

// overloadKind runs platform arm pairs on either backend.
var overloadKind = unitKind[overloadUnit, [2]overloadArm]{
	name: "overload/pair",
	run: func(cfg StudyConfig, u overloadUnit) ([2]overloadArm, error) {
		return (&Overload{Cfg: cfg}).runPair(u.Platform)
	},
}

// runPair runs one platform's naive arm and then its protected arm.
func (o *Overload) runPair(p taxonomy.Platform) ([2]overloadArm, error) {
	naive, err := o.runArm(p, false)
	if err != nil {
		return [2]overloadArm{}, err
	}
	prot, err := o.runArm(p, true)
	if err != nil {
		return [2]overloadArm{}, err
	}
	return [2]overloadArm{naive, prot}, nil
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
	l := cfg.Load
	if l.Duration <= 0 || l.SpannerRate <= 0 || l.BigTableRate <= 0 || l.BigQueryRate <= 0 {
		return nil, fmt.Errorf("experiments: invalid overload config %+v", l)
	}
	if l.TriggerAt <= 0 || l.TriggerAt+l.TriggerDur > l.Duration*3/4 {
		return nil, fmt.Errorf("experiments: overload trigger [%v,%v) must clear before the final quarter of %v",
			l.TriggerAt, l.TriggerAt+l.TriggerDur, l.Duration)
	}
	o := &Overload{Cfg: cfg, Series: map[taxonomy.Platform][]obs.Series{}}
	platforms := taxonomy.Platforms()
	units := make([]overloadUnit, len(platforms))
	for i, p := range platforms {
		units[i] = overloadUnit{Platform: p}
	}
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

func (o *Overload) runArm(p taxonomy.Platform, protected bool) (overloadArm, error) {
	switch p {
	case taxonomy.Spanner:
		return o.runSpanner(protected)
	case taxonomy.BigTable:
		return o.runBigTable(protected)
	case taxonomy.BigQuery:
		return o.runBigQuery(protected)
	}
	return overloadArm{}, fmt.Errorf("experiments: unknown platform %q", p)
}

// governor builds the protected arm's tenant governor (nil for naive arms).
func (o *Overload) governor(protected bool, env *platform.Env) *netsim.TenantGovernor {
	if !protected {
		return nil
	}
	gov := netsim.NewTenantGovernor(o.Cfg.Load.QoSCapacity)
	gov.EnableMetrics(env.Obs)
	return gov
}

// trigger injects the retry-storm scenario: a brownout on the given server
// targets (already registered with the engine) compounded by a flash crowd
// on the flash tenant. Platforms without a slowdown hook pass no servers and
// get the flash crowd alone.
func (o *Overload) trigger(eng *faults.Engine, run *workload.OverloadRun, servers []string) {
	l := o.Cfg.Load
	eng.Register("tenant/flash", faults.Actions{
		SetRate: func(mult float64) { run.SetRateMult("flash", mult) },
	})
	eng.RunScenario(faults.RetryStorm(servers, "tenant/flash", l.TriggerAt, l.TriggerDur, l.SlowFactor, l.FlashMult))
}

// finish drains the run, stopping the platform behind it, and condenses the
// measurement into a row. stop runs on the sim clock once the workload is
// fully drained (the open-loop driver has no shutdown hook of its own).
func (o *Overload) finish(p taxonomy.Platform, protected bool, env *platform.Env,
	run *workload.OverloadRun, eng *faults.Engine, stop func()) overloadArm {
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
	return overloadArm{Row: row, Series: env.Obs.Snapshot()}
}

// clientCounters copies the RPC client's control-plane accounting into a row.
func (row *OverloadRow) clientCounters(c *netsim.Client) {
	row.Retries = c.Retries
	row.BudgetExhausted = c.BudgetExhausted
	row.BreakerOpens = c.BreakerOpens
	row.BreakerFastFails = c.BreakerFastFails
}

func (o *Overload) runSpanner(protected bool) (overloadArm, error) {
	cfg := o.Cfg
	env := platform.NewEnv(cfg.Seed, cfg.TraceRate)
	env.Net = netsim.New(env.K, spanner.RecommendedNetConfig())
	enableStudyObs(cfg, env)
	scfg := spanner.DefaultConfig()
	scfg.RPC = o.overloadRPCPolicy(protected, 6*time.Millisecond)
	if protected {
		scfg.Admission = o.admission()
	}
	db, err := spanner.New(env, scfg)
	if err != nil {
		return overloadArm{}, err
	}
	gov := o.governor(protected, env)
	mix := workload.DefaultSpannerMix()
	run := workload.Overload(env, workload.OverloadConfig{
		Duration: cfg.Load.Duration,
		Window:   cfg.Load.Window,
		Tenants:  overloadTenants(cfg.Load.SpannerRate),
		Governor: gov,
		Shape:    cfg.Shape,
	}, func(tenant string, rng *stats.RNG) func() func(p *sim.Proc) error {
		picker := stats.NewWeighted(rng, []float64{mix.Reads, mix.Writes, mix.Queries})
		val := []byte("spanner-overload-value-0123456789abcdef")
		return func() func(p *sim.Proc) error {
			g := rng.Intn(db.NumGroups())
			row := db.PickRow()
			op := picker.Next()
			strong := rng.Bool(mix.StrongReadFrac)
			return func(p *sim.Proc) error {
				tr := env.Tracer.Start(taxonomy.Spanner, p.Now())
				var err error
				switch op {
				case 0:
					_, err = db.Read(p, tr, g, row, strong)
				case 1:
					err = db.Commit(p, tr, g, row, val)
				default:
					_, err = db.Query(p, tr, g, row)
				}
				env.Tracer.Finish(tr, p.Now())
				return err
			}
		}
	})
	eng := faults.NewEngine(env.K)
	var servers []string
	for g := 0; g < scfg.Groups; g++ {
		for r := 0; r < scfg.Regions; r++ {
			g, r := g, r
			name := fmt.Sprintf("spanner/g%d/r%d", g, r)
			servers = append(servers, name)
			eng.Register(name, faults.Actions{
				SetSlowdown: func(f float64) { _ = db.SetReplicaSlowdown(g, r, f) },
			})
		}
	}
	o.trigger(eng, run, servers)
	arm := o.finish(taxonomy.Spanner, protected, env, run, eng, db.Stop)
	shed, adaptive, expired := db.OverloadStats()
	arm.Row.Sheds = shed + adaptive
	arm.Row.Expired = expired
	arm.Row.clientCounters(db.RPCClient())
	return arm, nil
}

func (o *Overload) runBigTable(protected bool) (overloadArm, error) {
	cfg := o.Cfg
	env := platform.NewEnv(cfg.Seed+1, cfg.TraceRate)
	enableStudyObs(cfg, env)
	bcfg := bigtable.DefaultConfig()
	if protected {
		bcfg.Admission = o.admission()
	}
	db, err := bigtable.New(env, bcfg)
	if err != nil {
		return overloadArm{}, err
	}
	gov := o.governor(protected, env)
	mix := workload.DefaultBigTableMix()
	run := workload.Overload(env, workload.OverloadConfig{
		Duration: cfg.Load.Duration,
		Window:   cfg.Load.Window,
		Tenants:  overloadTenants(cfg.Load.BigTableRate),
		Governor: gov,
		Shape:    cfg.Shape,
	}, func(tenant string, rng *stats.RNG) func() func(p *sim.Proc) error {
		picker := stats.NewWeighted(rng, []float64{mix.Gets, mix.Puts, mix.Scans})
		val := []byte("bigtable-overload-value-0123456789abcdef")
		return func() func(p *sim.Proc) error {
			t := rng.Intn(db.NumTablets())
			row := db.PickRow()
			op := picker.Next()
			return func(p *sim.Proc) error {
				tr := env.Tracer.Start(taxonomy.BigTable, p.Now())
				var err error
				switch op {
				case 0:
					_, err = db.Get(p, tr, t, row)
				case 1:
					err = db.Put(p, tr, t, row, val)
				default:
					_, err = db.Scan(p, tr, t, row)
				}
				env.Tracer.Finish(tr, p.Now())
				return err
			}
		}
	})
	// BigTable operations execute on the tablet server's node directly (no
	// RPC queue, no slowdown hook), so the trigger is the flash crowd alone;
	// overload pressure comes from the surged arrival rate itself.
	eng := faults.NewEngine(env.K)
	o.trigger(eng, run, nil)
	arm := o.finish(taxonomy.BigTable, protected, env, run, eng, nil)
	arm.Row.Sheds = db.Shed + db.ShedAdaptive
	return arm, nil
}

func (o *Overload) runBigQuery(protected bool) (overloadArm, error) {
	cfg := o.Cfg
	env := platform.NewEnv(cfg.Seed+2, cfg.TraceRate)
	enableStudyObs(cfg, env)
	qcfg := bigquery.DefaultConfig()
	qcfg.RPC = o.overloadRPCPolicy(protected, 20*time.Millisecond)
	if protected {
		qcfg.Admission = o.admission()
	}
	e, err := bigquery.New(env, qcfg)
	if err != nil {
		return overloadArm{}, err
	}
	gov := o.governor(protected, env)
	mix := workload.DefaultBigQueryMix()
	run := workload.Overload(env, workload.OverloadConfig{
		Duration: cfg.Load.Duration,
		Window:   cfg.Load.Window,
		Tenants:  overloadTenants(cfg.Load.BigQueryRate),
		Governor: gov,
		Shape:    cfg.Shape,
	}, func(tenant string, rng *stats.RNG) func() func(p *sim.Proc) error {
		picker := stats.NewWeighted(rng, []float64{mix.ScanAgg, mix.Join, mix.Report})
		return func() func(p *sim.Proc) error {
			q := bigquery.Query{Threshold: int64(rng.Intn(900))}
			switch picker.Next() {
			case 0:
				q.Kind = bigquery.ScanAgg
			case 1:
				q.Kind = bigquery.JoinQuery
			default:
				q.Kind = bigquery.Report
			}
			return func(p *sim.Proc) error {
				tr := env.Tracer.Start(taxonomy.BigQuery, p.Now())
				_, err := e.Run(p, tr, q)
				env.Tracer.Finish(tr, p.Now())
				return err
			}
		}
	})
	eng := faults.NewEngine(env.K)
	var servers []string
	for i := 0; i < qcfg.ShuffleServers; i++ {
		i := i
		name := fmt.Sprintf("bigquery/ss%d", i)
		servers = append(servers, name)
		eng.Register(name, faults.Actions{
			SetSlowdown: func(f float64) { _ = e.SetShuffleSlowdown(i, f) },
		})
	}
	o.trigger(eng, run, servers)
	arm := o.finish(taxonomy.BigQuery, protected, env, run, eng, e.Stop)
	shed, adaptive, expired := e.OverloadStats()
	arm.Row.Sheds = shed + adaptive
	arm.Row.Expired = expired
	arm.Row.clientCounters(e.RPCClient())
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
