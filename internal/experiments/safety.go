package experiments

import (
	"fmt"
	"strings"
	"time"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/check"
	"hyperprof/internal/faults"
	"hyperprof/internal/netsim"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/spanner"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// This file is the safety torture study: each platform runs a contended
// read/write workload with history recording enabled, first fault-free (to
// calibrate the horizon and prove the checkers pass on a clean run), then
// once per seed under an injected fault schedule. After every run the
// recorded history is checked for linearizability, the structural violations
// are drained, and the platform's standing invariants (consensus, tablets,
// shuffle, DFS replica consistency) are asserted.

// SafetyViolation is one checker finding, tagged with the seed that
// reproduces it (rerun the study with that seed to replay the violating
// execution bit-identically).
type SafetyViolation struct {
	Seed uint64
	check.Violation
}

// SafetyRow summarizes one (platform, seed) torture run.
type SafetyRow struct {
	Platform taxonomy.Platform
	Seed     uint64
	// Faulted distinguishes torture runs from the calibration run.
	Faulted bool
	// Ops and Errors count issued operations and the subset that failed
	// (errors are availability loss, not safety loss — the checkers decide
	// what counts as a violation).
	Ops, Errors int
	// Elapsed is the virtual time to drain the workload.
	Elapsed time.Duration
	// FaultsApplied counts fault events that fired.
	FaultsApplied int
	// Violations counts checker findings for this run.
	Violations int
}

// Safety holds the full study.
type Safety struct {
	Cfg        StudyConfig
	Rows       []SafetyRow
	Violations []SafetyViolation
	// Marks carries one timeline mark per violation (plus nothing else), for
	// Chrome-trace export of the violating run.
	Marks map[taxonomy.Platform][]trace.Mark
}

// Ok reports whether the study finished with zero violations.
func (s *Safety) Ok() bool { return len(s.Violations) == 0 }

// safetyArm is one completed (platform, seed) torture run, self-contained so
// arms can execute on concurrent goroutines — or in worker subprocesses —
// and merge afterwards in fixed (platform, seed) order. Fields are exported
// because the arm is the safety study's wire type: the exec backend ships it
// between worker and coordinator as JSON.
type safetyArm struct {
	Row        SafetyRow
	Violations []SafetyViolation
	Marks      []trace.Mark
}

// safetyUnit is one (platform, seed, horizon) arm; a zero horizon is the
// fault-free calibration run.
type safetyUnit struct {
	Platform taxonomy.Platform `json:"platform"`
	Seed     uint64            `json:"seed"`
	Horizon  time.Duration     `json:"horizon"`
}

// safetyKind runs safety arms on either backend.
var safetyKind = unitKind[safetyUnit, safetyArm]{
	name: "safety/arm",
	run: func(cfg StudyConfig, u safetyUnit) (safetyArm, error) {
		return (&Safety{Cfg: cfg}).runOne(u.Platform, u.Seed, u.Horizon)
	},
}

// Safety runs the torture harness: per platform, one fault-free calibration
// run (whose elapsed time becomes the fault-schedule horizon) followed by
// Check.Seeds faulted runs. Equal configs replay bit-identically, and the
// parallel runner fans the arms out in two waves — the three calibration
// runs, then every faulted (platform, seed) arm — merging results in the
// same order the sequential loop produced.
func (cfg StudyConfig) Safety() (*Safety, error) {
	if cfg.Clients <= 0 || cfg.Check.Seeds <= 0 || cfg.Check.HotRows <= 0 {
		return nil, fmt.Errorf("experiments: invalid safety config %+v", cfg)
	}
	s := &Safety{Cfg: cfg, Marks: map[taxonomy.Platform][]trace.Mark{}}
	platforms := taxonomy.Platforms()
	calUnits := make([]safetyUnit, len(platforms))
	for i, p := range platforms {
		calUnits[i] = safetyUnit{Platform: p, Seed: cfg.Seed}
	}
	cals, err := runUnits(cfg, safetyKind, calUnits)
	if err != nil {
		return nil, err
	}
	var units []safetyUnit
	for i, p := range platforms {
		for j := 0; j < cfg.Check.Seeds; j++ {
			units = append(units, safetyUnit{Platform: p, Seed: cfg.Seed + uint64(j), Horizon: cals[i].Row.Elapsed})
		}
	}
	tortured, err := runUnits(cfg, safetyKind, units)
	if err != nil {
		return nil, err
	}
	for i, p := range platforms {
		s.merge(p, cals[i])
		for j, u := range units {
			if u.Platform == p {
				s.merge(p, tortured[j])
			}
		}
	}
	return s, nil
}

// merge folds one arm's results into the study. It is the only place study
// state mutates, and it runs sequentially after the arms complete.
func (s *Safety) merge(p taxonomy.Platform, arm safetyArm) {
	s.Rows = append(s.Rows, arm.Row)
	s.Violations = append(s.Violations, arm.Violations...)
	s.Marks[p] = append(s.Marks[p], arm.Marks...)
}

// runOne runs one (platform, seed) arm. A zero horizon is the fault-free
// calibration run; a positive horizon is a torture run with a fault schedule
// spanning it. The arm builds its own environment and kernel and touches no
// study state, so distinct arms may run concurrently.
func (s *Safety) runOne(p taxonomy.Platform, seed uint64, horizon time.Duration) (safetyArm, error) {
	switch p {
	case taxonomy.Spanner:
		return s.runSpanner(seed, horizon)
	case taxonomy.BigTable:
		return s.runBigTable(seed, horizon)
	case taxonomy.BigQuery:
		return s.runBigQuery(seed, horizon)
	default:
		return safetyArm{}, fmt.Errorf("experiments: unknown platform %q", p)
	}
}

// scheduleFor converts the fractional fault rates into an absolute schedule
// over the calibrated horizon (faults stop arriving at 80% so recoveries
// land while the workload drains).
func (s *Safety) scheduleFor(horizon time.Duration, seed uint64, stragglerProb float64) faults.ScheduleConfig {
	return faults.ScheduleConfig{
		Horizon:         time.Duration(float64(horizon) * 0.8),
		MTBF:            time.Duration(float64(horizon) * s.Cfg.Faults.MTBFFrac),
		MTTR:            time.Duration(float64(horizon) * s.Cfg.Faults.MTTRFrac),
		StragglerProb:   stragglerProb,
		StragglerFactor: s.Cfg.Faults.StragglerFactor,
		NetDegradeProb:  s.Cfg.Faults.NetDegradeProb,
		NetExtraDelay:   s.Cfg.Faults.NetExtraDelay,
		NetDropProb:     s.Cfg.Faults.NetDropProb,
		Seed:            seed,
	}
}

// drive launches the closed-loop torture clients and runs the simulation to
// completion. op performs one operation; it gets the client's private RNG
// and (client, op) indices so it can build globally unique write values.
func (s *Safety) drive(env *platform.Env, name string, seed uint64, totalOps int,
	op func(p *sim.Proc, rng *stats.RNG, client, i int) error) (ops, errs int, elapsed time.Duration) {
	clients := s.Cfg.Clients
	per := totalOps / clients
	if per < 1 {
		per = 1
	}
	root := stats.NewRNG(seed ^ 0x53414645) // "SAFE"
	bar := sim.NewBarrier(env.K, clients)
	for c := 0; c < clients; c++ {
		c := c
		rng := root.Fork()
		env.K.Go(fmt.Sprintf("%s-torture-c%d", name, c), func(p *sim.Proc) {
			defer bar.Done()
			for i := 0; i < per; i++ {
				ops++
				if err := op(p, rng, c, i); err != nil {
					errs++
				}
			}
		})
	}
	env.K.Go(name+"-measure", func(p *sim.Proc) {
		p.WaitBarrier(bar)
		elapsed = p.Now()
	})
	env.K.Run()
	return ops, errs, elapsed
}

// collect drains every checker after a run — linearizability over the
// recorded history, structural violations, and the standing invariants —
// tagging findings with platform and seed. It returns the arm-local findings
// and marks; the caller folds them into the study during the ordered merge.
func collect(p taxonomy.Platform, seed uint64, h *check.History, reg *check.Registry, at time.Duration) ([]SafetyViolation, []trace.Mark) {
	var vs []check.Violation
	vs = append(vs, h.CheckLinearizability()...)
	vs = append(vs, h.CheckExternalConsistency()...)
	vs = append(vs, h.Structural()...)
	vs = append(vs, reg.Check(at)...)
	var out []SafetyViolation
	var marks []trace.Mark
	for _, v := range vs {
		v.Platform = string(p)
		out = append(out, SafetyViolation{Seed: seed, Violation: v})
		marks = append(marks, trace.Mark{
			At:   v.At,
			Name: fmt.Sprintf("VIOLATION %s %s (seed %d)", v.Kind, v.Key, seed),
		})
	}
	return out, marks
}

func (s *Safety) registerNet(eng *faults.Engine, env *platform.Env, seed uint64) {
	eng.RegisterNetwork(func(extra time.Duration, drop float64) {
		env.Net.Degrade(extra, drop, seed^0x4e455444) // "NETD"
	}, env.Net.Restore)
}

func (s *Safety) runSpanner(seed uint64, horizon time.Duration) (safetyArm, error) {
	env := platform.NewEnv(seed, 1)
	env.Net = netsim.New(env.K, spanner.RecommendedNetConfig())
	scfg := spanner.DefaultConfig()
	scfg.RPC = resilienceRPCPolicy()
	db, err := spanner.New(env, scfg)
	if err != nil {
		return safetyArm{}, err
	}
	h := check.NewHistory(env.K)
	db.SetRecorder(h)
	reg := &check.Registry{}
	db.RegisterInvariants(reg)
	var eng *faults.Engine
	if horizon > 0 {
		eng = faults.NewEngine(env.K)
		// Two replicas per group are injectable. Overlapping windows can take
		// a group below quorum — operations then fail with ErrNoQuorum, which
		// is availability loss the checker tolerates; electing or serving
		// from a minority would be the safety loss it does not.
		for g := 0; g < scfg.Groups; g++ {
			for _, region := range []int{g % scfg.Regions, (g + 1) % scfg.Regions} {
				g, region := g, region
				eng.Register(fmt.Sprintf("spanner/g%d/r%d", g, region), faults.Actions{
					Crash:       func() { _ = db.CrashReplica(g, region) },
					Recover:     func() { _ = db.RestartReplica(g, region) },
					SetSlowdown: func(f float64) { _ = db.SetReplicaSlowdown(g, region, f) },
				})
			}
		}
		s.registerNet(eng, env, seed)
		eng.InjectAll(faults.GenerateSchedule(eng.Targets(), s.scheduleFor(horizon, seed, s.Cfg.Faults.StragglerProb)))
	}
	ops, errs, elapsed := s.drive(env, "spanner", seed, s.Cfg.Ops.Spanner,
		func(p *sim.Proc, rng *stats.RNG, c, i int) error {
			g, r := rng.Intn(scfg.Groups), rng.Intn(s.Cfg.Check.HotRows)
			if rng.Bool(0.5) {
				_, err := db.Read(p, nil, g, r, rng.Bool(0.15))
				return err
			}
			return db.Commit(p, nil, g, r, []byte(fmt.Sprintf("s%d/c%d/op%d", seed, c, i)))
		})
	arm := safetyArm{Row: SafetyRow{Platform: taxonomy.Spanner, Seed: seed, Faulted: eng != nil,
		Ops: ops, Errors: errs, Elapsed: elapsed}}
	if eng != nil {
		arm.Row.FaultsApplied = len(eng.Applied)
	}
	arm.Violations, arm.Marks = collect(taxonomy.Spanner, seed, h, reg, env.K.Now())
	arm.Row.Violations = len(arm.Violations)
	return arm, nil
}

func (s *Safety) runBigTable(seed uint64, horizon time.Duration) (safetyArm, error) {
	env := platform.NewEnv(seed+1000, 1)
	bcfg := bigtable.DefaultConfig()
	db, err := bigtable.New(env, bcfg)
	if err != nil {
		return safetyArm{}, err
	}
	h := check.NewHistory(env.K)
	db.SetRecorder(h)
	reg := &check.Registry{}
	db.RegisterInvariants(reg)
	reg.Register("bigtable-dfs", db.DFS().CheckReplicaConsistency)
	var eng *faults.Engine
	if horizon > 0 {
		eng = faults.NewEngine(env.K)
		// Every other tablet server plus one chunkserver, as in the
		// resilience study: crashes force tablet reassignment and commit-log
		// replay, the exact recovery paths the checkers guard.
		for i := 0; i < bcfg.TabletServers; i += 2 {
			i := i
			eng.Register(fmt.Sprintf("bigtable/ts%d", i), faults.Actions{
				Crash:   func() { _ = db.FailTabletServer(i) },
				Recover: func() { _ = db.RecoverTabletServer(i) },
			})
		}
		eng.Register("bigtable/cs0", faults.Actions{
			Crash:   func() { _ = db.DFS().FailServer(0) },
			Recover: func() { _ = db.DFS().RecoverServer(0) },
		})
		s.registerNet(eng, env, seed)
		eng.InjectAll(faults.GenerateSchedule(eng.Targets(), s.scheduleFor(horizon, seed+1000, 0)))
	}
	ops, errs, elapsed := s.drive(env, "bigtable", seed, s.Cfg.Ops.BigTable,
		func(p *sim.Proc, rng *stats.RNG, c, i int) error {
			t, r := rng.Intn(bcfg.Tablets), rng.Intn(s.Cfg.Check.HotRows)
			if rng.Bool(0.5) {
				_, err := db.Get(p, nil, t, r)
				return err
			}
			return db.Put(p, nil, t, r, []byte(fmt.Sprintf("s%d/c%d/op%d", seed, c, i)))
		})
	arm := safetyArm{Row: SafetyRow{Platform: taxonomy.BigTable, Seed: seed, Faulted: eng != nil,
		Ops: ops, Errors: errs, Elapsed: elapsed}}
	if eng != nil {
		arm.Row.FaultsApplied = len(eng.Applied)
	}
	arm.Violations, arm.Marks = collect(taxonomy.BigTable, seed, h, reg, env.K.Now())
	arm.Row.Violations = len(arm.Violations)
	return arm, nil
}

func (s *Safety) runBigQuery(seed uint64, horizon time.Duration) (safetyArm, error) {
	env := platform.NewEnv(seed+2000, 1)
	qcfg := bigquery.DefaultConfig()
	qcfg.RPC = resilienceRPCPolicy()
	e, err := bigquery.New(env, qcfg)
	if err != nil {
		return safetyArm{}, err
	}
	h := check.NewHistory(env.K)
	e.SetRecorder(h)
	reg := &check.Registry{}
	e.RegisterInvariants(reg)
	reg.Register("bigquery-dfs", e.DFS().CheckReplicaConsistency)
	var eng *faults.Engine
	if horizon > 0 {
		eng = faults.NewEngine(env.K)
		for i := 0; i < qcfg.ShuffleServers; i += 2 {
			i := i
			eng.Register(fmt.Sprintf("bigquery/ss%d", i), faults.Actions{
				Crash:       func() { _ = e.FailShuffleServer(i) },
				Recover:     func() { _ = e.RecoverShuffleServer(i) },
				SetSlowdown: func(f float64) { _ = e.SetShuffleSlowdown(i, f) },
			})
		}
		eng.Register("bigquery/cs0", faults.Actions{
			Crash:   func() { _ = e.DFS().FailServer(0) },
			Recover: func() { _ = e.DFS().RecoverServer(0) },
		})
		s.registerNet(eng, env, seed)
		eng.InjectAll(faults.GenerateSchedule(eng.Targets(), s.scheduleFor(horizon, seed+2000, s.Cfg.Faults.StragglerProb)))
	}
	kinds := []bigquery.Kind{bigquery.ScanAgg, bigquery.JoinQuery}
	ops, errs, elapsed := s.drive(env, "bigquery", seed, s.Cfg.Ops.BigQuery,
		func(p *sim.Proc, rng *stats.RNG, c, i int) error {
			q := bigquery.Query{Kind: kinds[rng.Intn(len(kinds))], Threshold: int64(rng.Intn(1000))}
			_, err := e.Run(p, nil, q)
			return err
		})
	arm := safetyArm{Row: SafetyRow{Platform: taxonomy.BigQuery, Seed: seed, Faulted: eng != nil,
		Ops: ops, Errors: errs, Elapsed: elapsed}}
	if eng != nil {
		arm.Row.FaultsApplied = len(eng.Applied)
	}
	arm.Violations, arm.Marks = collect(taxonomy.BigQuery, seed, h, reg, env.K.Now())
	arm.Row.Violations = len(arm.Violations)
	return arm, nil
}

// RenderSafety renders the study as a fixed-width table followed by every
// violation in full (minimal violating histories included).
func RenderSafety(s *Safety) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Safety torture study (base seed %d, %d seeds/platform; checks: linearizability, structural, invariants)\n",
		s.Cfg.Seed, s.Cfg.Check.Seeds)
	fmt.Fprintf(&b, "%-10s %6s %-9s %6s %5s %10s %7s %10s\n",
		"platform", "seed", "arm", "ops", "errs", "elapsed", "faults", "violations")
	for _, row := range s.Rows {
		arm := "baseline"
		if row.Faulted {
			arm = "tortured"
		}
		fmt.Fprintf(&b, "%-10s %6d %-9s %6d %5d %10s %7d %10d\n",
			row.Platform, row.Seed, arm, row.Ops, row.Errors,
			row.Elapsed.Round(time.Millisecond), row.FaultsApplied, row.Violations)
	}
	if s.Ok() {
		b.WriteString("PASS: no safety violations\n")
		return b.String()
	}
	fmt.Fprintf(&b, "FAIL: %d safety violations\n", len(s.Violations))
	for _, v := range s.Violations {
		fmt.Fprintf(&b, "[seed %d] %s\n", v.Seed, v.Violation.String())
	}
	return b.String()
}
