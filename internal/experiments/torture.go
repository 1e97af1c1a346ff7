package experiments

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/check"
	"hyperprof/internal/faults"
	"hyperprof/internal/obs"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// This file is the skeleton the fault studies (safety, resilience, partition,
// pipeline, and overload's trigger) share: the fault-rate → schedule
// conversion, the network link plane, every stack's fault surface and the
// shared target selection, the torture loop and its per-platform
// operations, the platform studies' work unit and arm result, the
// calibrate-then-torture fan-out, the checked studies' result side (routing
// and verdict), and the verdict output.
// What differs per study — its own target selection, platform config knobs,
// merge order — stays in the study's own file.

// faultSchedule converts the fractional fault rates into the stack's fault
// schedule over the calibrated horizon, seeded with the stack's seed. Faults
// stop arriving at 80% of the horizon so recoveries land while the workload
// drains. The brown-out window covers every directed link between the
// stack's network nodes. BigTable gets neither stragglers nor a brown-out:
// its tablet servers are not RPC-fronted, so its data path sends no RPCs a
// slowdown or a link fault could touch, and its schedule is crash-only
// rather than full of dead skipped events.
func (s *stack) faultSchedule(f FaultConfig, horizon time.Duration) faults.ScheduleConfig {
	sc := faults.ScheduleConfig{
		Horizon:         time.Duration(float64(horizon) * 0.8),
		MTBF:            time.Duration(float64(horizon) * f.MTBFFrac),
		MTTR:            time.Duration(float64(horizon) * f.MTTRFrac),
		StragglerFactor: f.StragglerFactor,
		NetDegradeProb:  f.NetDegradeProb,
		NetExtraDelay:   f.NetExtraDelay,
		NetDropProb:     f.NetDropProb,
		Seed:            s.seed,
	}
	if s.p != taxonomy.BigTable {
		sc.StragglerProb, sc.NetNodes = f.StragglerProb, s.env.Net.NodeNames()
	}
	return sc
}

// Fault target names; no study formats one.
func replicaTarget(g, r int) string { return fmt.Sprintf("spanner/g%d/r%d", g, r) }
func tabletTarget(i int) string     { return fmt.Sprintf("bigtable/ts%d", i) }
func shuffleTarget(i int) string    { return fmt.Sprintf("bigquery/ss%d", i) }

// chunkTarget names DFS chunkserver 0 of BigTable or BigQuery, the one
// chunkserver a study may crash.
func chunkTarget(p taxonomy.Platform) string {
	if p == taxonomy.BigTable {
		return "bigtable/cs0"
	}
	return "bigquery/cs0"
}

// faultSurface registers every fault target of stack s, built from b, with
// every action its platform supports: each Spanner replica crashes, recovers,
// straggles and skews its clock; each BigTable tablet server crashes,
// recovers, and is partitioned and healed at the platform level (its data
// path is not RPC-fronted); each BigQuery shuffle server crashes, recovers
// and straggles; DFS chunkserver 0 crashes and recovers. A study's schedule
// draws only over its own selection of these names.
func (b platformBuild) faultSurface(s *stack, register func(string, faults.Actions)) {
	switch s.p {
	case taxonomy.Spanner:
		db := s.sp
		for g := 0; g < b.spanner.Groups; g++ {
			for r := 0; r < b.spanner.Regions; r++ {
				register(replicaTarget(g, r), faults.Actions{
					Crash:        func() { _ = db.CrashReplica(g, r) },
					Recover:      func() { _ = db.RestartReplica(g, r) },
					SetSlowdown:  func(f float64) { _ = db.SetReplicaSlowdown(g, r, f) },
					SetClockSkew: func(o time.Duration, d float64) { _ = db.SetClockSkew(g, r, o, d) },
				})
			}
		}
	case taxonomy.BigTable:
		db := s.bt
		for i := 0; i < b.bigtable.TabletServers; i++ {
			register(tabletTarget(i), faults.Actions{
				Crash:     func() { _ = db.FailTabletServer(i) },
				Recover:   func() { _ = db.RecoverTabletServer(i) },
				Partition: func() { _ = db.PartitionTabletServer(i) },
				Heal:      func() { _ = db.HealTabletServer(i) },
			})
		}
	case taxonomy.BigQuery:
		e := s.bq
		for i := 0; i < b.bigquery.ShuffleServers; i++ {
			register(shuffleTarget(i), faults.Actions{
				Crash:       func() { _ = e.FailShuffleServer(i) },
				Recover:     func() { _ = e.RecoverShuffleServer(i) },
				SetSlowdown: func(f float64) { _ = e.SetShuffleSlowdown(i, f) },
			})
		}
	}
	if dfs := s.dfs; dfs != nil {
		register(chunkTarget(s.p), faults.Actions{
			Crash:   func() { _ = dfs.FailServer(0) },
			Recover: func() { _ = dfs.RecoverServer(0) },
		})
	}
}

// faultEngine returns a fault engine on s's kernel with s's whole fault
// surface registered and, except on BigTable, its link-scoped events —
// partitions, gray links and the brown-out window — hooked to s's network,
// whose per-link loss streams derive from the study seed salted with "LINK".
func (b platformBuild) faultEngine(s *stack) *faults.Engine {
	eng := faults.NewEngine(s.env.K)
	b.faultSurface(s, eng.Register)
	if s.p != taxonomy.BigTable {
		net := s.env.Net
		net.SetLinkSeed(b.seed ^ 0x4c494e4b) // "LINK"
		eng.RegisterLinkPlane(faults.LinkPlane{Block: net.BlockLink, Gray: net.SetLinkFault, Heal: net.HealLink})
	}
	return eng
}

// servers names servers from, from+step, ... below n.
func servers(from, step, n int, name func(int) string) []string {
	var out []string
	for i := from; i < n; i += step {
		out = append(out, name(i))
	}
	return out
}

// replicaTargets names every Spanner replica, by group, then region.
func (b platformBuild) replicaTargets() []string {
	var out []string
	for g := 0; g < b.spanner.Groups; g++ {
		out = append(out, servers(0, 1, b.spanner.Regions, func(r int) string { return replicaTarget(g, r) })...)
	}
	return out
}

// crashTargets is the sorted target list the safety, resilience and
// pipeline schedules draw over. On Spanner it holds perGroup replicas of
// each group g, in regions g, g+1, ... (mod Regions): the region cycles
// with the group, so the initial leaders (region 0) crash too and elections
// are exercised. On BigTable and BigQuery it holds the even servers — the
// odd ones always survive, so tablet reassignment and shuffle puts always
// have a live destination — plus chunkserver 0.
func (b platformBuild) crashTargets(p taxonomy.Platform, perGroup int) []string {
	var ts []string
	switch p {
	case taxonomy.Spanner:
		for g := 0; g < b.spanner.Groups; g++ {
			for k := 0; k < perGroup; k++ {
				ts = append(ts, replicaTarget(g, (g+k)%b.spanner.Regions))
			}
		}
	case taxonomy.BigTable:
		ts = append(servers(0, 2, b.bigtable.TabletServers, tabletTarget), chunkTarget(p))
	case taxonomy.BigQuery:
		ts = append(servers(0, 2, b.bigquery.ShuffleServers, shuffleTarget), chunkTarget(p))
	}
	slices.Sort(ts)
	return ts
}

// faultMarks turns the engine's applied faults into timeline marks, followed
// by extra.
func faultMarks(eng *faults.Engine, extra ...trace.Mark) []trace.Mark {
	marks := make([]trace.Mark, 0, len(eng.Applied)+len(extra))
	for _, a := range eng.Applied {
		marks = append(marks, trace.Mark{At: a.At, Name: a.Label()})
	}
	return append(marks, extra...)
}

// tortureOp performs operation i of client c with the client's private RNG
// and reports whether it was a write. The (client, i) pair lets writes carry
// globally unique values.
type tortureOp func(p *sim.Proc, rng *stats.RNG, client, i int) (write bool, err error)

// driveCounts are the per-run operation counters drive accumulates.
type driveCounts struct {
	ops, errs, writes, werrs int
	elapsed                  time.Duration
}

// drive launches the torture clients, each issuing max(1, totalOps/clients)
// operations, and runs the simulation to completion. Client c runs as
// process "<name>-<role>-c<c>" (the history records process names as client
// IDs, so they reach violation witnesses) on the c-th fork of an RNG seeded
// with rngSeed.
//
// A zero horizon is a closed loop. A positive one fires each client's ops on
// a fixed schedule spanning the horizon (client offsets stagger the slots):
// a closed loop would let an arm that fails fast burn its whole op budget
// inside one fault window while an arm that fails slow rides the window out,
// so an availability comparison would measure retry latency, not recovery.
// On a fixed schedule both arms attempt the same op at the same instant, and
// success depends only on the system's state at that instant.
func drive(env *platform.Env, name, role string, rngSeed uint64, clients, totalOps int, horizon time.Duration, op tortureOp) driveCounts {
	per := max(1, totalOps/clients)
	slot := horizon / time.Duration(per)
	root := stats.NewRNG(rngSeed)
	bar := sim.NewBarrier(env.K, clients)
	var dc driveCounts
	for c := 0; c < clients; c++ {
		rng := root.Fork()
		offset := slot * time.Duration(c) / time.Duration(clients)
		env.K.Go(fmt.Sprintf("%s-%s-c%d", name, role, c), func(p *sim.Proc) {
			defer bar.Done()
			for i := 0; i < per; i++ {
				if target := offset + slot*time.Duration(i); p.Now() < target {
					p.Sleep(target - p.Now())
				}
				dc.ops++
				write, err := op(p, rng, c, i)
				if write {
					dc.writes++
				}
				if err != nil {
					dc.errs++
					if write {
						dc.werrs++
					}
				}
			}
		})
	}
	env.K.Go(name+"-measure", func(p *sim.Proc) {
		p.WaitBarrier(bar)
		dc.elapsed = p.Now()
	})
	env.K.Run()
	return dc
}

// torture is the stack's contended workload over hotRows hot rows; writes
// carry globally unique values. Spanner: per op a random group and hot row,
// then a read (15% of them strong) or a commit. BigTable: per op a random
// tablet and hot row, then a get or a put; the drawn tablet is taken modulo
// spread (0: every tablet), so a narrow spread concentrates the ops on the
// first tablets without changing the RNG stream. BigQuery: per op a ScanAgg
// or a join at a random threshold, all reads.
func (s *stack) torture(hotRows int, seed uint64, spread int) tortureOp {
	value := func(c, i int) []byte { return []byte(fmt.Sprintf("s%d/c%d/op%d", seed, c, i)) }
	switch s.p {
	case taxonomy.Spanner:
		db := s.sp
		return func(p *sim.Proc, rng *stats.RNG, c, i int) (bool, error) {
			g, r := rng.Intn(db.NumGroups()), rng.Intn(hotRows)
			if rng.Bool(0.5) {
				_, err := db.Read(p, nil, g, r, rng.Bool(0.15))
				return false, err
			}
			return true, db.Commit(p, nil, g, r, value(c, i))
		}
	case taxonomy.BigTable:
		db := s.bt
		if spread <= 0 {
			spread = db.NumTablets()
		}
		return func(p *sim.Proc, rng *stats.RNG, c, i int) (bool, error) {
			t, r := rng.Intn(db.NumTablets())%spread, rng.Intn(hotRows)
			if rng.Bool(0.5) {
				_, err := db.Get(p, nil, t, r)
				return false, err
			}
			return true, db.Put(p, nil, t, r, value(c, i))
		}
	}
	kinds := []bigquery.Kind{bigquery.ScanAgg, bigquery.JoinQuery}
	return func(p *sim.Proc, rng *stats.RNG, c, i int) (bool, error) {
		q := bigquery.Query{Kind: kinds[rng.Intn(len(kinds))], Threshold: int64(rng.Intn(1000))}
		_, err := s.bq.Run(p, nil, q)
		return false, err
	}
}

// calibrated is a row that reports the virtual time its workload took to
// drain; a calibration run's elapsed time is its faulted arms' horizon.
type calibrated interface{ elapsed() time.Duration }

// armUnit is one arm of a platform study: platform, arm, seed and fault
// horizon; a zero horizon is a fault-free run. A study leaves empty what it
// does not vary: safety leaves Arm empty, pipeline (whose one simulation
// spans every platform) leaves Platform empty, and overload, resilience and
// fleet take their seed from the config. omitempty keeps safety's and
// pipeline's wire frames as they were.
type armUnit struct {
	Platform taxonomy.Platform `json:"platform,omitempty"`
	Arm      string            `json:"arm,omitempty"`
	Seed     uint64            `json:"seed"`
	Horizon  time.Duration     `json:"horizon"`
}

// within rejects a unit its study never emits: a platform outside
// platforms, an arm label outside arms, or a negative horizon. A study that
// leaves a field empty lists "" as its one value.
func (u armUnit) within(platforms []taxonomy.Platform, arms ...string) error {
	if !slices.Contains(platforms, u.Platform) || !slices.Contains(arms, u.Arm) || u.Horizon < 0 {
		return fmt.Errorf("experiments: the study runs no arm %+v", u)
	}
	return nil
}

// platformUnits returns one unit per platform, in taxonomy.Platforms order,
// each with the given arm label and seed.
func platformUnits(arm string, seed uint64) []armUnit {
	var units []armUnit
	for _, p := range taxonomy.Platforms() {
		units = append(units, armUnit{Platform: p, Arm: arm, Seed: seed})
	}
	return units
}

// armResult is one completed arm, self-contained so arms can execute on
// concurrent goroutines — or in worker subprocesses — and merge afterwards
// in fixed order. Fields are exported because the arm is the platform
// studies' wire type: the exec backend ships it between worker and
// coordinator as JSON. Only resilience and pipeline fill Traces, only
// pipeline Counters, and only resilience and overload Series.
type armResult[R any] struct {
	Row        R
	Violations []SafetyViolation
	Marks      []trace.Mark
	Traces     lazySlice[*trace.Trace]       `json:",omitempty"`
	Counters   lazySlice[trace.CounterTrack] `json:",omitempty"`
	Series     lazySlice[obs.Series]         `json:",omitempty"`
}

// lazySlice is a slice that marshals itself. The first time encoding/json
// decodes a struct type it builds the encoder of every field type, once per
// process; a Marshaler field stops that at the field. So a coordinator
// decoding safety or partition arms, which never fill Traces, Counters or
// Series, does not build the trace, counter-track and obs series encoders:
// about 100 allocations per process, 6% of what the study benchmark's
// safety_exec coordinator allocates.
type lazySlice[T any] []T

func (l lazySlice[T]) MarshalJSON() ([]byte, error) { return json.Marshal([]T(l)) }

// checked is the result side the checked studies share: their rows in merge
// order and their findings, routed by arm. Each study embeds it and keeps
// only its row type, its merge order and which arm supplies its marks.
type checked[R any] struct {
	Rows []R
	// Violations collects the honest arms' findings — any entry here is a
	// real safety bug.
	Violations []SafetyViolation
	// BrokenViolations collects the broken arms' findings — expected by
	// construction: each broken arm plants a bug the checkers must convict.
	BrokenViolations []SafetyViolation
	// unconvicted lists the broken arms that finished without a finding,
	// each a planted bug the checkers missed.
	unconvicted []armUnit
}

// Ok reports whether the honest arms finished with zero violations (broken
// arms are expected to violate and do not count).
func (c checked[R]) Ok() bool { return len(c.Violations) == 0 }

// add folds one arm into the study, routing its findings by the unit's arm
// name. It is the only place the shared result state mutates, and it runs
// sequentially after the arms complete.
func (c *checked[R]) add(u armUnit, a armResult[R]) {
	c.Rows = append(c.Rows, a.Row)
	if u.Arm != armBroken {
		c.Violations = append(c.Violations, a.Violations...)
		return
	}
	c.BrokenViolations = append(c.BrokenViolations, a.Violations...)
	if len(a.Violations) == 0 {
		c.unconvicted = append(c.unconvicted, u)
	}
}

// verdict is a checked study's check on itself: nil when every honest arm
// stayed clean and every broken arm was convicted. Each broken arm counts
// on its own: one arm's findings never cover another's silence.
func (c checked[R]) verdict(study string) error {
	if !c.Ok() {
		return fmt.Errorf("%s: %d violations in the honest arms", study, len(c.Violations))
	}
	var missed []string
	for _, u := range c.unconvicted {
		missed = append(missed, fmt.Sprintf("the %s arm (seed %d)", strings.TrimSpace(string(u.Platform)+" "+u.Arm), u.Seed))
	}
	if len(missed) > 0 {
		return fmt.Errorf("%s: the checkers missed a planted bug: no violations from %s", study, strings.Join(missed, ", "))
	}
	return nil
}

// calibrateThenTorture runs the fault-free calibration units, then the units
// torture appends for each calibration (by index and elapsed time), each
// wave through runUnits. It returns the calibrations, the appended units and
// their arms in unit order; the caller merges them in its own order.
func calibrateThenTorture[R calibrated](cfg StudyConfig, kind unitKind[armResult[R]], calUnits []armUnit,
	torture func(units []armUnit, i int, horizon time.Duration) []armUnit) (cals []armResult[R], units []armUnit, arms []armResult[R], err error) {
	cals, err = runUnits(cfg, kind, calUnits)
	if err != nil {
		return nil, nil, nil, err
	}
	for i, c := range cals {
		units = torture(units, i, c.Row.elapsed())
	}
	arms, err = runUnits(cfg, kind, units)
	if err != nil {
		return nil, nil, nil, err
	}
	return cals, units, arms, nil
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

// writeViolations writes header, formatted with the violation count, and
// then every violation in full; it writes nothing when vs is empty.
func writeViolations(b *strings.Builder, header string, vs []SafetyViolation) {
	if len(vs) == 0 {
		return
	}
	fmt.Fprintf(b, header, len(vs))
	for _, v := range vs {
		fmt.Fprintf(b, "[seed %d] %s\n", v.Seed, v.Violation.String())
	}
}

// verdictJSON renders a study's machine-readable export: seed, rows, the
// violations in full and the broken arms' expected violations as digests, in
// fixed order, so equal configs produce byte-identical documents on every
// backend.
func verdictJSON(seed uint64, rows any, violations, broken []SafetyViolation) ([]byte, error) {
	type brokenViolation struct {
		Seed   uint64
		Kind   string
		Key    string
		Detail string
	}
	var digests []brokenViolation
	for _, v := range broken {
		digests = append(digests, brokenViolation{Seed: v.Seed, Kind: v.Kind, Key: v.Key, Detail: v.Detail})
	}
	doc := struct {
		Seed             uint64
		Rows             any
		Violations       []SafetyViolation
		BrokenViolations []brokenViolation
	}{Seed: seed, Rows: rows, Violations: violations, BrokenViolations: digests}
	return json.MarshalIndent(doc, "", "  ")
}
