package experiments

import (
	"fmt"
	"sort"
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

// This file is the partition study: the safety torture's contended workload
// run under a nemesis of split-brain/ring/bridge partitions, asymmetric gray
// links and bounded clock skew, with two competing arms per platform. The
// naive arm takes the faults with recovery disabled — Spanner's leader keeps
// trying to reach a quorum it is cut from, BigTable's tablets stay pinned to
// partitioned servers, BigQuery's shuffle puts only ever try their home
// server. The hardened arm enables the partition-aware recovery paths:
// Spanner leaders step down to the majority component, BigTable's master
// reassigns tablets away from the cut (with log replay and epoch fencing,
// the crash-recovery machinery), and BigQuery's shuffle fails over around
// blocked links. Both arms must stay *safe* (zero checker violations, zero
// stale reads); the hardened arm must additionally stay *available*. The
// optional broken arms disable the safety mechanisms themselves — commit-wait
// off under a fast clock, partitioned writes acked outside the commit log —
// and exist to prove the checkers catch exactly that.

// Partition-study arm labels, in the fixed order arms run per platform.
const (
	armBaseline = "baseline"
	armNaive    = "naive"
	armHardened = "hardened"
	armBroken   = "broken"
)

// PartitionRow is one (platform, arm, seed) measurement.
type PartitionRow struct {
	Platform taxonomy.Platform
	// Arm is "baseline" (fault-free calibration), "naive", "hardened" or
	// "broken".
	Arm  string
	Seed uint64
	// Ops and Errors count issued operations and the subset that failed.
	Ops, Errors int
	// Writes and WriteErrors count the write subset (Spanner commits,
	// BigTable puts; BigQuery queries are all reads). The split matters
	// because partition recovery defends write availability, while a correct
	// CP system *must* fail reads whenever no quorum exists anywhere — the
	// naive arm's reads stay up through quorum loss only because it also
	// never elects a rival leader.
	Writes, WriteErrors int
	// Availability is successful ops / issued ops; WriteAvailability the same
	// over the write subset (1 when no writes were issued).
	Availability      float64
	WriteAvailability float64
	// Elapsed is the virtual time to drain the workload.
	Elapsed time.Duration
	// GoodputOpsPerSec is successful ops per virtual second.
	GoodputOpsPerSec float64
	// StaleReads counts successful reads that returned a value some
	// earlier-acknowledged write had already superseded; MaxStaleness is the
	// worst such age (see check.History.Staleness).
	StaleReads   int
	MaxStaleness time.Duration
	// FaultsApplied counts fault events that fired during the run.
	FaultsApplied int
	// Violations counts checker findings for this run.
	Violations int
}

// Partition holds the full study: per platform one calibration row, then
// naive and hardened rows per seed (and broken rows when configured), plus
// the hardened arm's fault marks for Chrome-trace export.
type Partition struct {
	Cfg  StudyConfig
	Rows []PartitionRow
	// Violations collects findings from the baseline, naive and hardened
	// arms — any entry here is a real safety bug.
	Violations []SafetyViolation
	// BrokenViolations collects the broken arms' findings — expected by
	// construction; an *empty* slice with broken arms enabled means the
	// checkers missed the planted bug.
	BrokenViolations []SafetyViolation
	// Marks carries the first hardened arm's applied faults per platform as
	// timeline marks, plus one mark per violation.
	Marks map[taxonomy.Platform][]trace.Mark
}

// Ok reports whether the naive, hardened and baseline arms finished with
// zero violations (broken arms are expected to violate and do not count).
func (s *Partition) Ok() bool { return len(s.Violations) == 0 }

// partitionArm is one completed arm, self-contained for concurrent (or
// out-of-process) execution and ordered merge; it is the study's wire type.
type partitionArm struct {
	Row        PartitionRow
	Violations []SafetyViolation
	Marks      []trace.Mark
}

func (a partitionArm) elapsed() time.Duration { return a.Row.Elapsed }

// partitionUnit is one (platform, arm, seed) run; a zero horizon is the
// fault-free calibration run.
type partitionUnit struct {
	Platform taxonomy.Platform `json:"platform"`
	Arm      string            `json:"arm"`
	Seed     uint64            `json:"seed"`
	Horizon  time.Duration     `json:"horizon"`
}

// partitionKind runs partition arms on either backend.
var partitionKind = unitKind[partitionUnit, partitionArm]{
	name: "partition/arm",
	run: func(cfg StudyConfig, u partitionUnit) (partitionArm, error) {
		return (&Partition{Cfg: cfg}).runArm(u.Platform, u.Arm, u.Seed, u.Horizon)
	},
}

// Partition runs the partition study: per platform one fault-free
// calibration run (whose elapsed time becomes the nemesis horizon), then a
// naive and a hardened arm per seed, then the broken demonstration arms when
// configured. Equal configs replay bit-identically; arms fan out across the
// configured backend and merge in fixed (platform, arm, seed) order, so the
// export is byte-identical sequential vs parallel and across backends.
func (cfg StudyConfig) Partition() (*Partition, error) {
	if cfg.Clients <= 0 || cfg.Check.Seeds <= 0 || cfg.Check.HotRows <= 0 || cfg.Part.MTBFFrac <= 0 {
		return nil, fmt.Errorf("experiments: invalid partition config %+v", cfg)
	}
	s := &Partition{Cfg: cfg, Marks: map[taxonomy.Platform][]trace.Mark{}}
	platforms := taxonomy.Platforms()
	calUnits := make([]partitionUnit, len(platforms))
	for i, p := range platforms {
		calUnits[i] = partitionUnit{Platform: p, Arm: armBaseline, Seed: cfg.Seed}
	}
	cals, units, arms, err := calibrateThenTorture(cfg, partitionKind, calUnits,
		func(units []partitionUnit, i int, horizon time.Duration) []partitionUnit {
			for j := 0; j < cfg.Check.Seeds; j++ {
				for _, arm := range []string{armNaive, armHardened} {
					units = append(units, partitionUnit{Platform: platforms[i], Arm: arm, Seed: cfg.Seed + uint64(j), Horizon: horizon})
				}
			}
			// Broken arms exist for Spanner (commit-wait off) and BigTable
			// (unlogged partition writes); BigQuery's shuffle has no equivalent
			// split-brain write path to break.
			if cfg.Part.IncludeBroken && platforms[i] != taxonomy.BigQuery {
				units = append(units, partitionUnit{Platform: platforms[i], Arm: armBroken, Seed: cfg.Seed, Horizon: horizon})
			}
			return units
		})
	if err != nil {
		return nil, err
	}
	for i, u := range calUnits {
		s.merge(u.Platform, cals[i])
	}
	for i, u := range units {
		s.merge(u.Platform, arms[i])
	}
	return s, nil
}

// merge folds one arm into the study in deterministic order. Broken-arm
// violations are routed to the expected bucket; the first hardened arm's
// fault marks become the platform's Chrome-trace marks.
func (s *Partition) merge(p taxonomy.Platform, arm partitionArm) {
	s.Rows = append(s.Rows, arm.Row)
	if arm.Row.Arm == armBroken {
		s.BrokenViolations = append(s.BrokenViolations, arm.Violations...)
	} else {
		s.Violations = append(s.Violations, arm.Violations...)
	}
	if arm.Row.Arm == armHardened && arm.Row.Seed == s.Cfg.Seed {
		s.Marks[p] = arm.Marks
	}
}

// Row returns the first row matching (platform, arm), or nil.
func (s *Partition) Row(p taxonomy.Platform, arm string) *PartitionRow {
	for i := range s.Rows {
		if s.Rows[i].Platform == p && s.Rows[i].Arm == arm {
			return &s.Rows[i]
		}
	}
	return nil
}

func (s *Partition) runArm(p taxonomy.Platform, arm string, seed uint64, horizon time.Duration) (partitionArm, error) {
	switch p {
	case taxonomy.Spanner:
		return s.runSpanner(arm, seed, horizon)
	case taxonomy.BigTable:
		return s.runBigTable(arm, seed, horizon)
	case taxonomy.BigQuery:
		return s.runBigQuery(arm, seed, horizon)
	default:
		return partitionArm{}, fmt.Errorf("experiments: unknown platform %q", p)
	}
}

// nemesisFor converts the study's fractional rates into an absolute nemesis
// config over the calibrated horizon (fault arrivals stop at 80% so heals
// land while the workload drains). netNodes feed the brown-out window (see
// FaultConfig.schedule); nodes feed link-scoped partitions and the gray
// link; partitionTargets feed target-scoped partitions instead; clocks name
// the skewable targets.
func (s *Partition) nemesisFor(horizon time.Duration, seed uint64, stragglerProb float64,
	netNodes, nodes, partitionTargets, clocks []string) faults.NemesisConfig {
	part := s.Cfg.Part
	return faults.NemesisConfig{
		ScheduleConfig:   s.Cfg.Faults.schedule(horizon, seed, stragglerProb, netNodes),
		Nodes:            nodes,
		PartitionTargets: partitionTargets,
		PartitionMTBF:    time.Duration(float64(horizon) * part.MTBFFrac),
		PartitionMTTR:    time.Duration(float64(horizon) * part.MTTRFrac),
		GrayProb:         part.GrayProb,
		GrayExtra:        part.GrayExtra,
		GrayDrop:         part.GrayDrop,
		ClockTargets:     clocks,
		ClockSkewProb:    part.ClockSkewProb,
		ClockSkewMax:     part.ClockSkewMax,
		ClockDriftMax:    part.ClockDriftMax,
	}
}

// partitionSalt ("PART") salts the torture clients' RNG root. Faulted arms
// pace the clients open-loop over the horizon (see drive), so the naive and
// hardened arms attempt each op at the same instant.
const partitionSalt = 0x50415254

// finish condenses a completed run into an arm: availability and goodput
// from the drive counters, staleness from the recorded history, violations
// from every checker, and fault marks from the engine.
func (s *Partition) finish(p taxonomy.Platform, arm string, seed uint64, env *platform.Env,
	h *check.History, reg *check.Registry, eng *faults.Engine, dc driveCounts) partitionArm {
	row := PartitionRow{
		Platform: p, Arm: arm, Seed: seed,
		Ops: dc.ops, Errors: dc.errs, Writes: dc.writes, WriteErrors: dc.werrs,
		Elapsed: dc.elapsed, WriteAvailability: 1,
	}
	if dc.ops > 0 {
		row.Availability = float64(dc.ops-dc.errs) / float64(dc.ops)
	}
	if dc.writes > 0 {
		row.WriteAvailability = float64(dc.writes-dc.werrs) / float64(dc.writes)
	}
	if dc.elapsed > 0 {
		row.GoodputOpsPerSec = float64(dc.ops-dc.errs) / dc.elapsed.Seconds()
	}
	row.StaleReads, row.MaxStaleness = h.Staleness()
	violations, marks := collect(p, seed, h, reg, env.K.Now())
	row.Violations = len(violations)
	out := partitionArm{Row: row, Violations: violations}
	if eng != nil {
		row.FaultsApplied = len(eng.Applied)
		out.Row = row
		out.Marks = faultMarks(eng, marks...)
	}
	return out
}

func (s *Partition) runSpanner(arm string, seed uint64, horizon time.Duration) (partitionArm, error) {
	env := platform.NewEnv(seed, 1)
	defer env.K.Close()
	env.Net = netsim.New(env.K, spanner.RecommendedNetConfig())
	scfg := spanner.DefaultConfig()
	scfg.RPC = resilienceRPCPolicy()
	scfg.ClockEps = s.Cfg.Part.ClockEps
	switch arm {
	case armHardened, armBaseline:
		scfg.PartitionRecovery = true
	case armBroken:
		// BROKEN: recovery stays on so commits keep flowing through skewed
		// leaders; the safety knob that is off is the commit-wait.
		scfg.PartitionRecovery = true
		scfg.DisableCommitWait = true
	}
	db, err := spanner.New(env, scfg)
	if err != nil {
		return partitionArm{}, err
	}
	h := check.NewHistory(env.K)
	db.SetRecorder(h)
	reg := &check.Registry{}
	db.RegisterInvariants(reg)
	if arm == armBroken {
		// Deterministic fast clock on every replica of group 0: the offset is
		// far past the uncertainty bound (and past any commit's replication
		// latency), so with commit-wait disabled a group-0 commit returns
		// while its timestamp still sits in other groups' future — any commit
		// invoked through a healthy group inside that window carries a
		// smaller timestamp, the inversion the external-consistency checker
		// must pin with a two-op subhistory. With commit-wait enabled the
		// same skew would only stretch the wait, never break the ordering.
		for r := 0; r < scfg.Regions; r++ {
			if err := db.SetClockSkew(0, r, 20*s.Cfg.Part.ClockEps, 0); err != nil {
				return partitionArm{}, err
			}
		}
	}
	var eng *faults.Engine
	if horizon > 0 {
		eng = faults.NewEngine(env.K)
		registerLinks(eng, env.Net, seed)
		// Every replica is a straggler/clock-skew target; only two per group
		// may crash (a majority always survives crashes — partitions, not
		// crashes, are this study's quorum threat).
		var crashable, clocks []string
		nodeSet := map[string]bool{}
		var nodes []string
		for g := 0; g < scfg.Groups; g++ {
			for r := 0; r < scfg.Regions; r++ {
				g, r := g, r
				name := fmt.Sprintf("spanner/g%d/r%d", g, r)
				a := faults.Actions{
					SetSlowdown:  func(f float64) { _ = db.SetReplicaSlowdown(g, r, f) },
					SetClockSkew: func(o time.Duration, d float64) { _ = db.SetClockSkew(g, r, o, d) },
				}
				if r == g%scfg.Regions || r == (g+1)%scfg.Regions {
					a.Crash = func() { _ = db.CrashReplica(g, r) }
					a.Recover = func() { _ = db.RestartReplica(g, r) }
					crashable = append(crashable, name)
				}
				eng.Register(name, a)
				// The broken arm's planted group-0 skew must survive the run:
				// a nemesis skew window would replace it (skew replaces, never
				// stacks), so group 0 is off the nemesis clock-target list.
				if !(arm == armBroken && g == 0) {
					clocks = append(clocks, name)
				}
				node, err := db.ReplicaNodeName(g, r)
				if err != nil {
					return partitionArm{}, err
				}
				if !nodeSet[node] {
					nodeSet[node] = true
					nodes = append(nodes, node)
				}
			}
		}
		sort.Strings(nodes)
		eng.InjectAll(faults.GenerateNemesisSchedule(crashable,
			s.nemesisFor(horizon, seed, s.Cfg.Faults.StragglerProb, env.Net.NodeNames(), nodes, nil, clocks)))
	}
	dc := drive(env, "spanner", "partition", seed^partitionSalt, s.Cfg.Clients, s.Cfg.Ops.Spanner, horizon,
		spannerTorture(db, scfg.Groups, s.Cfg.Check.HotRows, seed))
	return s.finish(taxonomy.Spanner, arm, seed, env, h, reg, eng, dc), nil
}

func (s *Partition) runBigTable(arm string, seed uint64, horizon time.Duration) (partitionArm, error) {
	env := platform.NewEnv(seed+1000, 1)
	defer env.K.Close()
	bcfg := bigtable.DefaultConfig()
	switch arm {
	case armHardened, armBaseline:
		bcfg.PartitionRecovery = true
	case armBroken:
		bcfg.BrokenPartitionWrites = true
	}
	db, err := bigtable.New(env, bcfg)
	if err != nil {
		return partitionArm{}, err
	}
	h := check.NewHistory(env.K)
	db.SetRecorder(h)
	reg := &check.Registry{}
	db.RegisterInvariants(reg)
	reg.Register("bigtable-dfs", db.DFS().CheckReplicaConsistency)
	var eng *faults.Engine
	if horizon > 0 {
		eng = faults.NewEngine(env.K)
		// Even servers may crash, odd servers may be partitioned: the sets are
		// disjoint so a reassignment destination always exists, and the tablet
		// data path is not RPC-fronted, so partitions are target-scoped
		// (platform-level Partition/Heal actions) rather than link-scoped.
		var partitionable []string
		for i := 0; i < bcfg.TabletServers; i++ {
			i := i
			name := fmt.Sprintf("bigtable/ts%d", i)
			a := faults.Actions{
				Partition: func() { _ = db.PartitionTabletServer(i) },
				Heal:      func() { _ = db.HealTabletServer(i) },
			}
			if i%2 == 0 {
				a.Crash = func() { _ = db.FailTabletServer(i) }
				a.Recover = func() { _ = db.RecoverTabletServer(i) }
				eng.Register(name, a)
			} else {
				eng.Register(name, a)
				partitionable = append(partitionable, name)
			}
		}
		eng.Register("bigtable/cs0", faults.Actions{
			Crash:   func() { _ = db.DFS().FailServer(0) },
			Recover: func() { _ = db.DFS().RecoverServer(0) },
		})
		var crashable []string
		for i := 0; i < bcfg.TabletServers; i += 2 {
			crashable = append(crashable, fmt.Sprintf("bigtable/ts%d", i))
		}
		crashable = append(crashable, "bigtable/cs0")
		eng.InjectAll(faults.GenerateNemesisSchedule(crashable,
			s.nemesisFor(horizon, seed+1000, 0, nil, nil, partitionable, nil)))
	}
	spread := bcfg.Tablets
	if arm == armBroken {
		// Concentrate the demonstration arm on two tablets (one on a
		// partitionable server) so writes lost to the broken fixture are
		// reliably re-read after the heal.
		spread = 2
	}
	dc := drive(env, "bigtable", "partition", seed^partitionSalt, s.Cfg.Clients, s.Cfg.Ops.BigTable, horizon,
		bigtableTorture(db, bcfg.Tablets, spread, s.Cfg.Check.HotRows, seed))
	return s.finish(taxonomy.BigTable, arm, seed, env, h, reg, eng, dc), nil
}

func (s *Partition) runBigQuery(arm string, seed uint64, horizon time.Duration) (partitionArm, error) {
	env := platform.NewEnv(seed+2000, 1)
	defer env.K.Close()
	qcfg := bigquery.DefaultConfig()
	qcfg.RPC = resilienceRPCPolicy()
	if arm == armNaive {
		qcfg.DisableFailover = true
	}
	e, err := bigquery.New(env, qcfg)
	if err != nil {
		return partitionArm{}, err
	}
	h := check.NewHistory(env.K)
	e.SetRecorder(h)
	reg := &check.Registry{}
	e.RegisterInvariants(reg)
	reg.Register("bigquery-dfs", e.DFS().CheckReplicaConsistency)
	var eng *faults.Engine
	if horizon > 0 {
		eng = faults.NewEngine(env.K)
		registerLinks(eng, env.Net, seed)
		crashable := registerShuffleTargets(eng, e, qcfg.ShuffleServers)
		// Partition node set: the shuffle tier plus two worker nodes, so
		// drawn topologies cut worker->shuffle data paths (where failover
		// matters) as well as intra-tier links.
		nodeSet := map[string]bool{}
		var nodes []string
		addNode := func(name string, err error) error {
			if err != nil {
				return err
			}
			if !nodeSet[name] {
				nodeSet[name] = true
				nodes = append(nodes, name)
			}
			return nil
		}
		for i := 0; i < qcfg.ShuffleServers; i++ {
			n, err := e.ShuffleNodeName(i)
			if err2 := addNode(n, err); err2 != nil {
				return partitionArm{}, err2
			}
		}
		for w := 0; w < 2 && w < qcfg.Workers; w++ {
			n, err := e.WorkerNodeName(w)
			if err2 := addNode(n, err); err2 != nil {
				return partitionArm{}, err2
			}
		}
		sort.Strings(nodes)
		eng.InjectAll(faults.GenerateNemesisSchedule(crashable,
			s.nemesisFor(horizon, seed+2000, s.Cfg.Faults.StragglerProb, env.Net.NodeNames(), nodes, nil, nil)))
	}
	dc := drive(env, "bigquery", "partition", seed^partitionSalt, s.Cfg.Clients, s.Cfg.Ops.BigQuery, horizon,
		bigqueryTorture(e))
	return s.finish(taxonomy.BigQuery, arm, seed, env, h, reg, eng, dc), nil
}

// JSON renders the study's machine-readable export: seed, rows and the
// broken arms' expected-violation digests, in fixed order, so equal configs
// produce byte-identical documents on every backend.
func (s *Partition) JSON() ([]byte, error) {
	return verdictJSON(s.Cfg.Seed, s.Rows, s.Violations, s.BrokenViolations)
}

// RenderPartition renders the study as a fixed-width table followed by the
// verdict: the naive-vs-hardened availability comparison is the headline,
// violations (none expected outside broken arms) print in full with their
// minimal violating subhistories.
func RenderPartition(s *Partition) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Partition nemesis study (base seed %d, %d seeds/arm; partitions + gray links + clock skew, eps %v)\n",
		s.Cfg.Seed, s.Cfg.Check.Seeds, s.Cfg.Part.ClockEps)
	fmt.Fprintf(&b, "%-10s %-9s %6s %6s %5s %7s %7s %10s %10s %6s %10s %7s %10s\n",
		"platform", "arm", "seed", "ops", "errs", "avail%", "wavail%", "elapsed", "goodput/s", "stale", "staleness", "faults", "violations")
	for _, row := range s.Rows {
		fmt.Fprintf(&b, "%-10s %-9s %6d %6d %5d %7.2f %7.2f %10s %10.1f %6d %10s %7d %10d\n",
			row.Platform, row.Arm, row.Seed, row.Ops, row.Errors,
			row.Availability*100, row.WriteAvailability*100,
			row.Elapsed.Round(time.Millisecond), row.GoodputOpsPerSec,
			row.StaleReads, row.MaxStaleness.Round(10*time.Microsecond),
			row.FaultsApplied, row.Violations)
	}
	if s.Ok() {
		b.WriteString("PASS: no safety violations in baseline/naive/hardened arms\n")
	}
	writeViolations(&b, "FAIL: %d safety violations\n", s.Violations)
	writeViolations(&b, "broken-knob arms (expected violations): %d found\n", s.BrokenViolations)
	return b.String()
}
