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
	"hyperprof/internal/spanner"
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

func (a safetyArm) elapsed() time.Duration { return a.Row.Elapsed }

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
	cals, units, tortured, err := calibrateThenTorture(cfg, safetyKind, calUnits,
		func(units []safetyUnit, i int, horizon time.Duration) []safetyUnit {
			for j := 0; j < cfg.Check.Seeds; j++ {
				units = append(units, safetyUnit{Platform: platforms[i], Seed: cfg.Seed + uint64(j), Horizon: horizon})
			}
			return units
		})
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

// finish condenses a completed run into an arm: the drive counters, the
// applied fault count and every checker's findings.
func (s *Safety) finish(p taxonomy.Platform, seed uint64, env *platform.Env,
	h *check.History, reg *check.Registry, eng *faults.Engine, dc driveCounts) safetyArm {
	arm := safetyArm{Row: SafetyRow{Platform: p, Seed: seed, Faulted: eng != nil,
		Ops: dc.ops, Errors: dc.errs, Elapsed: dc.elapsed}}
	if eng != nil {
		arm.Row.FaultsApplied = len(eng.Applied)
	}
	arm.Violations, arm.Marks = collect(p, seed, h, reg, env.K.Now())
	arm.Row.Violations = len(arm.Violations)
	return arm
}

// safetySalt ("SAFE") salts the torture clients' RNG root. The clients run
// closed-loop: faults, not pacing, are what this study varies between arms.
const safetySalt = 0x53414645

func (s *Safety) runSpanner(seed uint64, horizon time.Duration) (safetyArm, error) {
	env := platform.NewEnv(seed, 1)
	defer env.K.Close()
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
		registerLinks(eng, env.Net, seed)
		eng.InjectAll(faults.GenerateSchedule(eng.Targets(), s.Cfg.Faults.schedule(horizon, seed, s.Cfg.Faults.StragglerProb, env.Net.NodeNames())))
	}
	dc := drive(env, "spanner", "torture", seed^safetySalt, s.Cfg.Clients, s.Cfg.Ops.Spanner, 0,
		spannerTorture(db, scfg.Groups, s.Cfg.Check.HotRows, seed))
	return s.finish(taxonomy.Spanner, seed, env, h, reg, eng, dc), nil
}

func (s *Safety) runBigTable(seed uint64, horizon time.Duration) (safetyArm, error) {
	env := platform.NewEnv(seed+1000, 1)
	defer env.K.Close()
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
		registerTabletTargets(eng, db, bcfg.TabletServers)
		eng.InjectAll(faults.GenerateSchedule(eng.Targets(), s.Cfg.Faults.schedule(horizon, seed+1000, 0, nil)))
	}
	dc := drive(env, "bigtable", "torture", seed^safetySalt, s.Cfg.Clients, s.Cfg.Ops.BigTable, 0,
		bigtableTorture(db, bcfg.Tablets, bcfg.Tablets, s.Cfg.Check.HotRows, seed))
	return s.finish(taxonomy.BigTable, seed, env, h, reg, eng, dc), nil
}

func (s *Safety) runBigQuery(seed uint64, horizon time.Duration) (safetyArm, error) {
	env := platform.NewEnv(seed+2000, 1)
	defer env.K.Close()
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
		registerShuffleTargets(eng, e, qcfg.ShuffleServers)
		registerLinks(eng, env.Net, seed)
		eng.InjectAll(faults.GenerateSchedule(eng.Targets(), s.Cfg.Faults.schedule(horizon, seed+2000, s.Cfg.Faults.StragglerProb, env.Net.NodeNames())))
	}
	dc := drive(env, "bigquery", "torture", seed^safetySalt, s.Cfg.Clients, s.Cfg.Ops.BigQuery, 0, bigqueryTorture(e))
	return s.finish(taxonomy.BigQuery, seed, env, h, reg, eng, dc), nil
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
	writeViolations(&b, "FAIL: %d safety violations\n", s.Violations)
	return b.String()
}
