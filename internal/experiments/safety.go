package experiments

import (
	"fmt"
	"strings"
	"time"

	"hyperprof/internal/check"
	"hyperprof/internal/faults"
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

func (r SafetyRow) elapsed() time.Duration { return r.Elapsed }

// Safety holds the full study. Every arm is honest: Violations must stay
// empty, and no broken arm runs.
type Safety struct {
	Cfg StudyConfig
	checked[SafetyRow]
	// Marks carries one timeline mark per violation (plus nothing else), for
	// Chrome-trace export of the violating run.
	Marks map[taxonomy.Platform][]trace.Mark
}

// safetyKind runs safety arms on either backend.
var safetyKind = unitKind[armResult[SafetyRow]]{
	name: "safety/arm",
	check: func(cfg StudyConfig, u armUnit) error {
		if cfg.Clients <= 0 || cfg.Check.Seeds <= 0 || cfg.Check.HotRows <= 0 {
			return fmt.Errorf("experiments: invalid safety config %+v", cfg)
		}
		return u.within(taxonomy.Platforms(), "")
	},
	run: func(cfg StudyConfig, u armUnit) (armResult[SafetyRow], error) {
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
	s := &Safety{Cfg: cfg, Marks: map[taxonomy.Platform][]trace.Mark{}}
	calUnits := platformUnits("", cfg.Seed)
	cals, units, tortured, err := calibrateThenTorture(cfg, safetyKind, calUnits,
		func(units []armUnit, i int, horizon time.Duration) []armUnit {
			for j := 0; j < cfg.Check.Seeds; j++ {
				units = append(units, armUnit{Platform: calUnits[i].Platform, Seed: cfg.Seed + uint64(j), Horizon: horizon})
			}
			return units
		})
	if err != nil {
		return nil, err
	}
	for i, cal := range calUnits {
		s.merge(cal, cals[i])
		for j, u := range units {
			if u.Platform == cal.Platform {
				s.merge(u, tortured[j])
			}
		}
	}
	return s, nil
}

// merge folds one arm into the study; every arm's violation marks are kept.
func (s *Safety) merge(u armUnit, arm armResult[SafetyRow]) {
	s.add(u, arm)
	s.Marks[u.Platform] = append(s.Marks[u.Platform], arm.Marks...)
}

// safetySalt ("SAFE") salts the torture clients' RNG root. The clients run
// closed-loop: faults, not pacing, are what this study varies between arms.
const safetySalt = 0x53414645

// runOne runs one (platform, seed) arm. A zero horizon is the fault-free
// calibration run; a positive horizon is a torture run with a fault schedule
// spanning it. The arm builds its own environment and kernel and touches no
// study state, so distinct arms may run concurrently.
func (s *Safety) runOne(p taxonomy.Platform, seed uint64, horizon time.Duration) (armResult[SafetyRow], error) {
	b := newPlatformBuild(seed, spacedSeeds, 0)
	b.checked = true
	b.spanner.RPC = resilienceRPCPolicy()
	b.bigquery.RPC = resilienceRPCPolicy()
	st, err := b.build(p)
	if err != nil {
		return armResult[SafetyRow]{}, err
	}
	defer st.env.K.Close()
	var eng *faults.Engine
	if horizon > 0 {
		eng = b.faultEngine(st)
		// Two Spanner replicas per group may crash. Overlapping windows can
		// take a group below quorum — operations then fail with ErrNoQuorum,
		// which is availability loss the checker tolerates; electing or
		// serving from a minority would be the safety loss it does not.
		eng.InjectAll(faults.GenerateSchedule(b.crashTargets(p, 2), st.faultSchedule(s.Cfg.Faults, horizon)))
	}
	dc := drive(st.env, st.name, "torture", seed^safetySalt, s.Cfg.Clients, s.Cfg.Ops.of(p), 0,
		st.torture(s.Cfg.Check.HotRows, seed, 0))
	arm := armResult[SafetyRow]{Row: SafetyRow{Platform: p, Seed: seed, Faulted: eng != nil,
		Ops: dc.ops, Errors: dc.errs, Elapsed: dc.elapsed}}
	if eng != nil {
		arm.Row.FaultsApplied = len(eng.Applied)
	}
	arm.Violations, arm.Marks = collect(p, seed, st.h, st.reg, st.env.K.Now())
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
	writeViolations(&b, "FAIL: %d safety violations\n", s.Violations)
	return b.String()
}
