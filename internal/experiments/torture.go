package experiments

import (
	"encoding/json"
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

// This file is the skeleton the fault studies (safety, resilience, partition,
// pipeline) share: the fault-rate → schedule conversion, the network and
// platform fault targets, the torture loop and its per-platform operations,
// the calibrate-then-torture fan-out, and the verdict output. What differs
// per study — Spanner's targets, platform config knobs, merge order — stays
// in the study's own file.

// schedule converts the fractional fault rates into an absolute schedule
// over the calibrated horizon. Faults stop arriving at 80% of the horizon so
// recoveries land while the workload drains. stragglerProb overrides the
// configured probability so platforms whose targets cannot straggle
// (BigTable's tablet servers are not RPC-fronted) get crash-only schedules
// instead of dead skipped events. netNodes are the nodes the brown-out window
// covers, every directed link between them; BigTable passes none, since its
// data path sends no RPCs a brown-out could slow.
func (f FaultConfig) schedule(horizon time.Duration, seed uint64, stragglerProb float64, netNodes []string) faults.ScheduleConfig {
	return faults.ScheduleConfig{
		Horizon:         time.Duration(float64(horizon) * 0.8),
		MTBF:            time.Duration(float64(horizon) * f.MTBFFrac),
		MTTR:            time.Duration(float64(horizon) * f.MTTRFrac),
		StragglerProb:   stragglerProb,
		StragglerFactor: f.StragglerFactor,
		NetDegradeProb:  f.NetDegradeProb,
		NetExtraDelay:   f.NetExtraDelay,
		NetDropProb:     f.NetDropProb,
		NetNodes:        netNodes,
		Seed:            seed,
	}
}

// registerLinks hooks the engine's link-scoped events — partitions, gray
// links and the schedule's brown-out window — to net's link plane, whose
// per-link loss streams derive from seed salted with "LINK".
func registerLinks(eng *faults.Engine, net *netsim.Network, seed uint64) {
	net.SetLinkSeed(seed ^ 0x4c494e4b) // "LINK"
	eng.RegisterLinkPlane(faults.LinkPlane{Block: net.BlockLink, Gray: net.SetLinkFault, Heal: net.HealLink})
}

// registerShuffleTargets registers BigQuery's fault targets: every other
// shuffle server, so puts always have a live destination and lost slots are
// speculatively re-executed, plus DFS chunkserver 0. It returns the
// shuffle-server target names.
func registerShuffleTargets(eng *faults.Engine, e *bigquery.Engine, servers int) []string {
	var names []string
	for i := 0; i < servers; i += 2 {
		name := fmt.Sprintf("bigquery/ss%d", i)
		names = append(names, name)
		eng.Register(name, faults.Actions{
			Crash:       func() { _ = e.FailShuffleServer(i) },
			Recover:     func() { _ = e.RecoverShuffleServer(i) },
			SetSlowdown: func(f float64) { _ = e.SetShuffleSlowdown(i, f) },
		})
	}
	eng.Register("bigquery/cs0", faults.Actions{
		Crash:   func() { _ = e.DFS().FailServer(0) },
		Recover: func() { _ = e.DFS().RecoverServer(0) },
	})
	return names
}

// registerTabletTargets registers BigTable's fault targets: every other
// tablet server (the rest always survive, so reassignment always has a
// destination) plus DFS chunkserver 0, so crashes drive tablet reassignment,
// commit-log replay and read failover.
func registerTabletTargets(eng *faults.Engine, db *bigtable.DB, servers int) {
	for i := 0; i < servers; i += 2 {
		eng.Register(fmt.Sprintf("bigtable/ts%d", i), faults.Actions{
			Crash:   func() { _ = db.FailTabletServer(i) },
			Recover: func() { _ = db.RecoverTabletServer(i) },
		})
	}
	eng.Register("bigtable/cs0", faults.Actions{
		Crash:   func() { _ = db.DFS().FailServer(0) },
		Recover: func() { _ = db.DFS().RecoverServer(0) },
	})
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

// spannerTorture is the contended Spanner workload: per op a random group
// and hot row, then a read (15% of them strong) or a commit of a unique
// value.
func spannerTorture(db *spanner.DB, groups, hotRows int, seed uint64) tortureOp {
	return func(p *sim.Proc, rng *stats.RNG, c, i int) (bool, error) {
		g, r := rng.Intn(groups), rng.Intn(hotRows)
		if rng.Bool(0.5) {
			_, err := db.Read(p, nil, g, r, rng.Bool(0.15))
			return false, err
		}
		return true, db.Commit(p, nil, g, r, []byte(fmt.Sprintf("s%d/c%d/op%d", seed, c, i)))
	}
}

// bigtableTorture is the contended BigTable workload: per op a random tablet
// and hot row, then a get or a put of a unique value. The drawn tablet is
// taken modulo spread, so spread < tablets concentrates the ops on the first
// spread tablets without changing the RNG stream.
func bigtableTorture(db *bigtable.DB, tablets, spread, hotRows int, seed uint64) tortureOp {
	return func(p *sim.Proc, rng *stats.RNG, c, i int) (bool, error) {
		t, r := rng.Intn(tablets)%spread, rng.Intn(hotRows)
		if rng.Bool(0.5) {
			_, err := db.Get(p, nil, t, r)
			return false, err
		}
		return true, db.Put(p, nil, t, r, []byte(fmt.Sprintf("s%d/c%d/op%d", seed, c, i)))
	}
}

// bigqueryTorture is the BigQuery workload: per op a ScanAgg or a join at a
// random threshold. Queries are all reads.
func bigqueryTorture(e *bigquery.Engine) tortureOp {
	kinds := []bigquery.Kind{bigquery.ScanAgg, bigquery.JoinQuery}
	return func(p *sim.Proc, rng *stats.RNG, c, i int) (bool, error) {
		q := bigquery.Query{Kind: kinds[rng.Intn(len(kinds))], Threshold: int64(rng.Intn(1000))}
		_, err := e.Run(p, nil, q)
		return false, err
	}
}

// calibrated is an arm result that reports the virtual time its workload
// took to drain; a calibration run's elapsed time is its faulted arms'
// horizon.
type calibrated interface{ elapsed() time.Duration }

// calibrateThenTorture runs the fault-free calibration units, then the units
// torture appends for each calibration (by index and elapsed time), each
// wave through runUnits. It returns the calibrations, the appended units and
// their arms in unit order; the caller merges them in its own order.
func calibrateThenTorture[U any, T calibrated](cfg StudyConfig, kind unitKind[U, T], calUnits []U,
	torture func(units []U, i int, horizon time.Duration) []U) (cals []T, units []U, arms []T, err error) {
	cals, err = runUnits(cfg, kind, calUnits)
	if err != nil {
		return nil, nil, nil, err
	}
	for i, c := range cals {
		units = torture(units, i, c.elapsed())
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
