package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hyperprof/internal/check"
	"hyperprof/internal/faults"
	"hyperprof/internal/obs"
	"hyperprof/internal/sim"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
	"hyperprof/internal/workload"
)

// This file is the cross-platform pipeline study: one simulation chaining all
// three platforms — BigTable ingest feeding a BigQuery iterative PageRank
// over the shuffle plane feeding Spanner serving — with every logical record
// carrying one trace ID across the stage boundaries, so the Chrome export
// shows a single end-to-end request crossing the three platform process
// lanes. Three arms run: a fault-free baseline (which calibrates the fault
// horizon and supplies the exported traces), per-seed faulted arms that kill
// shuffle servers — the middle stage's state plane — mid-iteration while a
// forced replay exercises the BigQuery→Spanner dedup latch (these must stay
// clean: replay plus dedup is exactly-once), and an optional broken arm that
// disables the latch under the same replay so the pipeline-handoff invariant
// convicts the double-write.

// armFaulted labels the torture arms of the pipeline study (armBaseline and
// armBroken are shared with the partition study).
const armFaulted = "faulted"

// pipelinePlatform tags pipeline-study findings: a violation at a stage
// boundary belongs to the pipeline, not to any one platform.
const pipelinePlatform = taxonomy.Platform("Pipeline")

// PipelineRow is one (arm, seed) pipeline run.
type PipelineRow struct {
	// Arm is "baseline" (fault-free calibration), "faulted" (shuffle-server
	// kills plus a forced replay) or "broken" (replay with the dedup latch
	// off).
	Arm  string
	Seed uint64
	// Records and Batches echo the workload sizing.
	Records, Batches int
	// Ops and Errors count completed stage operations and the subset that
	// failed after retries.
	Ops, Errors int
	// Elapsed is the virtual time for the pipeline to drain.
	Elapsed time.Duration
	// EndToEndP50 and EndToEndP99 summarize per-record ingest-start to
	// serving-finish latency.
	EndToEndP50, EndToEndP99 time.Duration
	// Replays counts analytic passes beyond a batch's first; Deduped counts
	// serve passes the handoff latch suppressed.
	Replays, Deduped int
	// RePuts and Speculative are the BigQuery shuffle-plane recovery
	// counters: puts redirected off a dead home server, and stage-1 shards
	// re-executed because their shuffle slot was lost mid-iteration.
	RePuts, Speculative int
	// FaultsApplied counts fault events that fired during the run.
	FaultsApplied int
	// Violations counts checker findings for this run.
	Violations int
}

func (r PipelineRow) elapsed() time.Duration { return r.Elapsed }

// Pipeline holds the full study: the baseline row, the faulted rows per seed,
// the optional broken row, plus the baseline run's sampled traces (and
// counter tracks when the obs plane is on) and the first faulted arm's fault
// marks for Chrome export. The baseline and faulted arms are honest — a
// violation there is a real exactly-once bug at a stage boundary (or a
// platform-level safety bug surfaced by the pipeline workload); the broken
// arm must violate.
type Pipeline struct {
	Cfg StudyConfig
	checked[PipelineRow]
	// Traces are the baseline arm's sampled traces: per record, one ingest
	// span, one analytics span and one serving span sharing a trace ID.
	Traces []*trace.Trace
	// Counters are the baseline arm's metric time series as Chrome counter
	// tracks (empty unless the obs plane is enabled).
	Counters []trace.CounterTrack
	// Marks carries the first faulted arm's applied faults and violations as
	// timeline marks.
	Marks []trace.Mark
}

// pipelineKind runs pipeline arms on either backend.
var pipelineKind = unitKind[armUnit, armResult[PipelineRow]]{
	name: "pipeline/arm",
	check: func(cfg StudyConfig, u armUnit) error {
		if cfg.Clients <= 0 || cfg.Check.Seeds <= 0 || cfg.Pipe.Records <= 0 || cfg.Pipe.Batches <= 0 {
			return fmt.Errorf("experiments: invalid pipeline config %+v", cfg)
		}
		return u.within([]taxonomy.Platform{""}, armBaseline, armFaulted, armBroken)
	},
	run: func(cfg StudyConfig, u armUnit) (armResult[PipelineRow], error) {
		return (&Pipeline{Cfg: cfg}).runArm(u.Arm, u.Seed, u.Horizon)
	},
}

// Pipeline runs the cross-platform pipeline study: one fault-free baseline
// (whose elapsed time becomes the fault horizon and whose traces become the
// Chrome export), then a faulted arm per seed, then the broken demonstration
// arm when configured. Equal configs replay bit-identically; arms fan out
// across the configured backend and merge in fixed order, so the export is
// byte-identical sequential vs parallel and across backends.
func (cfg StudyConfig) Pipeline() (*Pipeline, error) {
	s := &Pipeline{Cfg: cfg}
	baseline := armUnit{Arm: armBaseline, Seed: cfg.Seed}
	cals, units, arms, err := calibrateThenTorture(cfg, pipelineKind, []armUnit{baseline},
		func(units []armUnit, _ int, horizon time.Duration) []armUnit {
			for j := 0; j < cfg.Check.Seeds; j++ {
				units = append(units, armUnit{Arm: armFaulted, Seed: cfg.Seed + uint64(j), Horizon: horizon})
			}
			if cfg.Check.IncludeBroken {
				units = append(units, armUnit{Arm: armBroken, Seed: cfg.Seed})
			}
			return units
		})
	if err != nil {
		return nil, err
	}
	// The baseline arm supplies the exported traces and counter tracks, the
	// first faulted arm the marks.
	s.add(baseline, cals[0])
	s.Traces, s.Counters = cals[0].Traces, cals[0].Counters
	for i, u := range units {
		s.add(u, arms[i])
		if u.Arm == armFaulted && u.Seed == cfg.Seed {
			s.Marks = arms[i].Marks
		}
	}
	return s, nil
}

// Row returns the first row matching arm, or nil.
func (s *Pipeline) Row(arm string) *PipelineRow {
	for i := range s.Rows {
		if s.Rows[i].Arm == arm {
			return &s.Rows[i]
		}
	}
	return nil
}

// runArm executes one (arm, seed) pipeline run: three platform stacks built
// on ONE kernel with ONE shared tracer and ONE shared history, the pipeline
// workload chained across them, and — on faulted arms — a fault schedule
// killing BigQuery shuffle servers over the horizon while batch 0 replays.
func (s *Pipeline) runArm(arm string, seed uint64, horizon time.Duration) (armResult[PipelineRow], error) {
	cfg := s.Cfg
	k := sim.New()
	defer k.Close()
	// The stages share the kernel and one tracer — StartChild spans inherit
	// the ingest root's trace ID, which is what stitches a record's stages
	// into one request — but keep their own networks, profilers, RNG streams
	// and metrics registries (platform series names repeat across stages,
	// and a registry rejects duplicates).
	b := newPlatformBuild(seed, spacedSeeds, cfg.TraceRate)
	b.obs, b.k, b.tracer = cfg.Obs, k, trace.NewTracer(cfg.TraceRate)
	b.spanner.RPC = resilienceRPCPolicy()
	b.bigquery.RPC = resilienceRPCPolicy()
	var built []*stack
	for _, p := range taxonomy.Platforms() {
		st, err := b.build(p)
		if err != nil {
			return armResult[PipelineRow]{}, err
		}
		built = append(built, st)
	}
	serving, ingest, analytics := built[0], built[1], built[2]
	// One history across all three stages: the platforms' key namespaces are
	// disjoint ("g%d/r%d", "t%d/k%d", "q%d/p%d"), so per-key checkers never
	// mix stages, while cross-stage ordering shares one clock.
	checkStacks(check.NewHistory(k), &check.Registry{}, built...)
	stages := []*stack{ingest, analytics, serving}
	var regs []*obs.Registry
	if cfg.Obs.Enabled {
		for _, st := range stages {
			regs = append(regs, st.env.Obs)
		}
	}

	wcfg := workload.PipelineConfig{
		Records:    cfg.Pipe.Records,
		Batches:    cfg.Pipe.Batches,
		Clients:    cfg.Clients,
		Iterations: cfg.Pipe.Iterations,
		// Both torture arms force a replay of batch 0; only the broken arm
		// disables the dedup latch that makes the replay exactly-once.
		ForceReplay:         arm != armBaseline,
		DisableHandoffDedup: arm == armBroken,
	}
	run := workload.Pipeline(ingest.env, ingest.bt, analytics.bq, serving.sp, wcfg)
	run.Ledger.RegisterInvariants(serving.reg)

	var eng *faults.Engine
	if horizon > 0 {
		eng = b.faultEngine(analytics)
		// The middle stage is the torture target: every other shuffle server
		// may crash (or straggle) mid-iteration, plus one DFS chunkserver, so
		// recovery exercises both re-put failover and speculative stage-1
		// re-execution while the handoff latch sees a replay.
		eng.InjectAll(faults.GenerateSchedule(b.crashTargets(analytics.p, 0), analytics.faultSchedule(cfg.Faults, horizon)))
	}

	var elapsed time.Duration
	k.Go("pipeline-measure", func(p *sim.Proc) {
		p.Wait(run.Done)
		elapsed = p.Now()
	})
	if len(regs) > 0 {
		// One sampling tick drives every stage registry. The per-registry
		// Start loop would deadlock termination here: each registry's pending
		// tick keeps the others rescheduling forever. A single tick that
		// stops when only it remains pending terminates with the workload.
		interval := cfg.Obs.Interval
		if interval <= 0 {
			interval = obs.DefaultConfig().Interval
		}
		var tick func()
		tick = func() {
			t := k.Now()
			for _, r := range regs {
				r.SampleAt(t)
			}
			if k.PendingEvents() > 0 {
				k.Schedule(interval, tick)
			}
		}
		k.Schedule(0, tick)
	}
	k.Run()

	row := PipelineRow{
		Arm: arm, Seed: seed,
		Records: cfg.Pipe.Records, Batches: cfg.Pipe.Batches,
		Ops: run.Completed, Errors: len(run.Errors), Elapsed: elapsed,
		Replays: run.Ledger.Replays(), Deduped: run.Ledger.Deduped(),
		RePuts: analytics.bq.RePuts, Speculative: analytics.bq.Speculative,
	}
	var e2e []time.Duration
	for _, d := range run.EndToEnd {
		if d > 0 {
			e2e = append(e2e, d)
		}
	}
	row.EndToEndP50 = durQuantile(e2e, 0.50)
	row.EndToEndP99 = durQuantile(e2e, 0.99)
	violations, marks := collect(pipelinePlatform, seed, serving.h, serving.reg, k.Now())
	row.Violations = len(violations)
	out := armResult[PipelineRow]{Violations: violations}
	if eng != nil {
		row.FaultsApplied = len(eng.Applied)
		out.Marks = faultMarks(eng, marks...)
	}
	out.Row = row
	if arm == armBaseline && seed == cfg.Seed {
		out.Traces = b.tracer.Sampled()
		for i, r := range regs {
			for _, series := range r.Snapshot() {
				track := trace.CounterTrack{Process: string(stages[i].p), Name: series.Name}
				for _, pt := range series.Points {
					track.Points = append(track.Points, trace.CounterPoint{At: pt.T, Value: pt.V})
				}
				out.Counters = append(out.Counters, track)
			}
		}
	}
	return out, nil
}

// durQuantile returns the q-quantile of the durations (nearest rank over the
// sorted values; 0 for an empty set).
func durQuantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}

// StageBreakdowns computes the §4.1 overlap-categorized breakdown per stage:
// the baseline traces grouped by platform and aggregated into the Figure 2
// groups, so the pipeline gets the same characterization lens as the
// single-platform studies.
func (s *Pipeline) StageBreakdowns() map[taxonomy.Platform][]trace.GroupStats {
	byStage := map[taxonomy.Platform][]*trace.Trace{}
	for _, t := range s.Traces {
		byStage[t.Platform] = append(byStage[t.Platform], t)
	}
	out := map[taxonomy.Platform][]trace.GroupStats{}
	for p, ts := range byStage {
		out[p] = trace.Aggregate(ts)
	}
	return out
}

// Chrome renders the study's Chrome trace-event export: the baseline run's
// end-to-end spans (one tid per logical record, crossing the three platform
// pids), the first faulted arm's fault marks, and the obs plane's counter
// tracks when enabled.
func (s *Pipeline) Chrome() ([]byte, error) {
	b := trace.NewChromeBuilder()
	b.AddMarks(s.Marks)
	b.AddTraces(s.Traces, 0)
	b.AddCounters(s.Counters)
	return b.Marshal()
}

// JSON renders the study's machine-readable export: seed, rows and the
// broken arm's expected-violation digests, in fixed order, so equal configs
// produce byte-identical documents on every backend.
func (s *Pipeline) JSON() ([]byte, error) {
	return verdictJSON(s.Cfg.Seed, s.Rows, s.Violations, s.BrokenViolations)
}

// RenderPipeline renders the study as a fixed-width table, the per-stage
// §4.1 breakdown of the baseline run, and the verdict.
func RenderPipeline(s *Pipeline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-platform pipeline study (base seed %d, %d faulted seeds; BigTable → BigQuery PageRank → Spanner, one trace ID per record)\n",
		s.Cfg.Seed, s.Cfg.Check.Seeds)
	fmt.Fprintf(&b, "%-9s %6s %5s %5s %6s %5s %10s %10s %10s %7s %7s %7s %6s %7s %10s\n",
		"arm", "seed", "recs", "batch", "ops", "errs", "elapsed", "e2e-p50", "e2e-p99",
		"replays", "deduped", "reputs", "spec", "faults", "violations")
	for _, row := range s.Rows {
		fmt.Fprintf(&b, "%-9s %6d %5d %5d %6d %5d %10s %10s %10s %7d %7d %7d %6d %7d %10d\n",
			row.Arm, row.Seed, row.Records, row.Batches, row.Ops, row.Errors,
			row.Elapsed.Round(10*time.Microsecond),
			row.EndToEndP50.Round(10*time.Microsecond), row.EndToEndP99.Round(10*time.Microsecond),
			row.Replays, row.Deduped, row.RePuts, row.Speculative,
			row.FaultsApplied, row.Violations)
	}
	stages := s.StageBreakdowns()
	for _, p := range taxonomy.Platforms() {
		gs, ok := stages[p]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "stage %s (§4.1 overlap-categorized, baseline):\n", p)
		for _, g := range gs {
			if g.Queries == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-18s %4d spans  cpu %5.1f%%  io %5.1f%%  remote %5.1f%%\n",
				g.Group, g.Queries, g.CPUFrac*100, g.IOFrac*100, g.RemoteFrac*100)
		}
	}
	if s.Ok() {
		b.WriteString("PASS: exactly-once handoff held across every baseline/faulted arm\n")
	}
	writeViolations(&b, "FAIL: %d violations\n", s.Violations)
	writeViolations(&b, "broken-handoff arm (expected violations): %d found\n", s.BrokenViolations)
	return b.String()
}
