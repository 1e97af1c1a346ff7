package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"hyperprof/internal/faults"
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

func (r PartitionRow) elapsed() time.Duration { return r.Elapsed }

// Partition holds the full study: per platform one calibration row, then
// naive and hardened rows per seed (and broken rows when configured), plus
// the hardened arm's fault marks for Chrome-trace export. The baseline,
// naive and hardened arms are honest; the broken arms must violate.
type Partition struct {
	Cfg StudyConfig
	checked[PartitionRow]
	// Marks carries the first hardened arm's applied faults per platform as
	// timeline marks, plus one mark per violation.
	Marks map[taxonomy.Platform][]trace.Mark
}

// partitionKind runs partition arms on either backend.
var partitionKind = unitKind[armResult[PartitionRow]]{
	name: "partition/arm",
	check: func(cfg StudyConfig, u armUnit) error {
		if cfg.Clients <= 0 || cfg.Check.Seeds <= 0 || cfg.Check.HotRows <= 0 || cfg.Part.MTBFFrac <= 0 {
			return fmt.Errorf("experiments: invalid partition config %+v", cfg)
		}
		return u.within(taxonomy.Platforms(), armBaseline, armNaive, armHardened, armBroken)
	},
	run: func(cfg StudyConfig, u armUnit) (armResult[PartitionRow], error) {
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
	s := &Partition{Cfg: cfg, Marks: map[taxonomy.Platform][]trace.Mark{}}
	calUnits := platformUnits(armBaseline, cfg.Seed)
	cals, units, arms, err := calibrateThenTorture(cfg, partitionKind, calUnits,
		func(units []armUnit, i int, horizon time.Duration) []armUnit {
			p := calUnits[i].Platform
			for j := 0; j < cfg.Check.Seeds; j++ {
				for _, arm := range []string{armNaive, armHardened} {
					units = append(units, armUnit{Platform: p, Arm: arm, Seed: cfg.Seed + uint64(j), Horizon: horizon})
				}
			}
			// Broken arms exist for Spanner (commit-wait off) and BigTable
			// (unlogged partition writes); BigQuery's shuffle has no equivalent
			// split-brain write path to break.
			if cfg.Check.IncludeBroken && p != taxonomy.BigQuery {
				units = append(units, armUnit{Platform: p, Arm: armBroken, Seed: cfg.Seed, Horizon: horizon})
			}
			return units
		})
	if err != nil {
		return nil, err
	}
	for i, u := range calUnits {
		s.add(u, cals[i])
	}
	for i, u := range units {
		s.add(u, arms[i])
		// The first hardened arm's fault marks become the platform's
		// Chrome-trace marks.
		if u.Arm == armHardened && u.Seed == cfg.Seed {
			s.Marks[u.Platform] = arms[i].Marks
		}
	}
	return s, nil
}

// runArm runs one (platform, arm, seed) run. A zero horizon is the
// fault-free calibration run; a positive one draws a nemesis over it.
func (s *Partition) runArm(p taxonomy.Platform, arm string, seed uint64, horizon time.Duration) (armResult[PartitionRow], error) {
	b := newPlatformBuild(seed, spacedSeeds, 0)
	b.checked = true
	b.spanner.RPC = resilienceRPCPolicy()
	b.spanner.ClockEps = s.Cfg.Part.ClockEps
	b.bigquery.RPC = resilienceRPCPolicy()
	switch arm {
	case armHardened, armBaseline:
		b.spanner.PartitionRecovery = true
		b.bigtable.PartitionRecovery = true
	case armBroken:
		// BROKEN: Spanner keeps recovery on so commits keep flowing through
		// skewed leaders; the safety knob that is off is the commit-wait.
		// BigTable serves writes from partitioned servers.
		b.spanner.PartitionRecovery = true
		b.spanner.DisableCommitWait = true
		b.bigtable.BrokenPartitionWrites = true
	case armNaive:
		b.bigquery.DisableFailover = true
	}
	st, err := b.build(p)
	if err != nil {
		return armResult[PartitionRow]{}, err
	}
	defer st.env.K.Close()
	scfg := b.spanner
	if p == taxonomy.Spanner && arm == armBroken {
		// Deterministic fast clock on every replica of group 0: the offset is
		// far past the uncertainty bound (and past any commit's replication
		// latency), so with commit-wait disabled a group-0 commit returns
		// while its timestamp still sits in other groups' future — any commit
		// invoked through a healthy group inside that window carries a
		// smaller timestamp, the inversion the external-consistency checker
		// must pin with a two-op subhistory. With commit-wait enabled the
		// same skew would only stretch the wait, never break the ordering.
		for r := 0; r < scfg.Regions; r++ {
			if err := st.sp.SetClockSkew(0, r, 20*s.Cfg.Part.ClockEps, 0); err != nil {
				return armResult[PartitionRow]{}, err
			}
		}
	}
	var eng *faults.Engine
	if horizon > 0 {
		eng = b.faultEngine(st)
		sched := st.faultSchedule(s.Cfg.Faults, horizon)
		crashable, partitionable, clocks := b.partitionTargets(p, arm)
		// nodes feed link-scoped partitions and the gray link.
		var nodes []string
		switch p {
		case taxonomy.Spanner:
			for g := 0; g < scfg.Groups; g++ {
				for r := 0; r < scfg.Regions; r++ {
					node, err := st.sp.ReplicaNodeName(g, r)
					if err != nil {
						return armResult[PartitionRow]{}, err
					}
					nodes = append(nodes, node)
				}
			}
		case taxonomy.BigQuery:
			// The shuffle tier plus two worker nodes, so drawn topologies cut
			// worker->shuffle data paths (where failover matters) as well as
			// intra-tier links.
			for i := 0; i < b.bigquery.ShuffleServers; i++ {
				n, err := st.bq.ShuffleNodeName(i)
				if err != nil {
					return armResult[PartitionRow]{}, err
				}
				nodes = append(nodes, n)
			}
			for w := 0; w < 2 && w < b.bigquery.Workers; w++ {
				n, err := st.bq.WorkerNodeName(w)
				if err != nil {
					return armResult[PartitionRow]{}, err
				}
				nodes = append(nodes, n)
			}
		}
		slices.Sort(nodes)
		eng.InjectAll(faults.GenerateNemesisSchedule(crashable,
			s.nemesisFor(sched, horizon, slices.Compact(nodes), partitionable, clocks)))
	}
	spread := 0
	if p == taxonomy.BigTable && arm == armBroken {
		// Concentrate the demonstration arm on two tablets (one on a
		// partitionable server) so writes lost to the broken fixture are
		// reliably re-read after the heal.
		spread = 2
	}
	dc := drive(st.env, st.name, "partition", seed^partitionSalt, s.Cfg.Clients, s.Cfg.Ops.of(p), horizon,
		st.torture(s.Cfg.Check.HotRows, seed, spread))
	// The arm condenses to availability and goodput from the drive counters,
	// staleness from the recorded history, violations from every checker,
	// and fault marks from the engine.
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
	row.StaleReads, row.MaxStaleness = st.h.Staleness()
	violations, marks := collect(p, seed, st.h, st.reg, st.env.K.Now())
	row.Violations = len(violations)
	out := armResult[PartitionRow]{Violations: violations}
	if eng != nil {
		row.FaultsApplied = len(eng.Applied)
		out.Marks = faultMarks(eng, marks...)
	}
	out.Row = row
	return out, nil
}

// partitionTargets are the partition study's target lists, in the order its
// nemesis draws over them: crashable for crash and straggler windows,
// partitionable for target-scoped partitions, clocks for clock skew.
// Spanner: two replicas per group, by group then region, may crash (a
// majority survives crashes; partitions are this study's quorum threat);
// every replica may skew its clock except group 0's on the broken arm, whose
// planted skew a nemesis window would replace. BigTable: the even servers,
// then chunkserver 0, may crash; the odd ones may be partitioned, so a
// reassignment destination always exists. BigQuery: the even shuffle servers
// may crash; chunkserver 0 is never drawn.
func (b platformBuild) partitionTargets(p taxonomy.Platform, arm string) (crashable, partitionable, clocks []string) {
	switch p {
	case taxonomy.Spanner:
		regions := b.spanner.Regions
		for g := 0; g < b.spanner.Groups; g++ {
			r0, r1 := g%regions, (g+1)%regions
			crashable = append(crashable, replicaTarget(g, min(r0, r1)), replicaTarget(g, max(r0, r1)))
		}
		clocks = b.replicaTargets()
		if arm == armBroken {
			clocks = clocks[regions:]
		}
	case taxonomy.BigTable:
		n := b.bigtable.TabletServers
		crashable = append(servers(0, 2, n, tabletTarget), chunkTarget(p))
		partitionable = servers(1, 2, n, tabletTarget)
	case taxonomy.BigQuery:
		crashable = servers(0, 2, b.bigquery.ShuffleServers, shuffleTarget)
	}
	return crashable, partitionable, clocks
}

// nemesisFor extends a fault schedule (see stack.faultSchedule) into the
// study's nemesis over the calibrated horizon: nodes feed link-scoped
// partitions and the gray link, partitionTargets target-scoped partitions,
// and clocks name the skewable targets.
func (s *Partition) nemesisFor(sc faults.ScheduleConfig, horizon time.Duration,
	nodes, partitionTargets, clocks []string) faults.NemesisConfig {
	part := s.Cfg.Part
	return faults.NemesisConfig{
		ScheduleConfig:   sc,
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
