package experiments

// This file is the unified Study API: StudyConfig, one struct of grouped
// knobs with one method entry point and one Default*StudyConfig constructor
// per study. The study table (table.go) runs each of them.

import (
	"time"

	"hyperprof/internal/obs"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/workload"
)

// PlatformOps is the per-platform operation budget of a study.
type PlatformOps struct {
	Spanner, BigTable, BigQuery int
}

// of returns platform p's budget.
func (o PlatformOps) of(p taxonomy.Platform) int {
	switch p {
	case taxonomy.Spanner:
		return o.Spanner
	case taxonomy.BigTable:
		return o.BigTable
	}
	return o.BigQuery
}

// FaultConfig groups the fault-injection rates shared by the fault studies
// (safety, resilience, partition, pipeline). Rates are fractions of the
// measured fault-free horizon (MTBFFrac 0.5 means each target expects
// roughly two fault windows per run); the zero value disables
// injection-specific behaviour but studies that inject always set it
// explicitly.
type FaultConfig struct {
	// MTBFFrac is the per-target mean time between failures as a fraction
	// of the platform's baseline elapsed time.
	MTBFFrac float64
	// MTTRFrac is the mean repair time as a fraction of baseline elapsed.
	MTTRFrac float64
	// StragglerProb is the chance a generated fault window is a straggler
	// (service-time multiplier StragglerFactor) instead of a crash.
	StragglerProb   float64
	StragglerFactor float64
	// NetDegradeProb is the chance of one network brown-out window per
	// platform run. While it lasts, every message on every link of the
	// platform's network, in both directions, pays NetExtraDelay and is lost
	// with probability NetDropProb. A lost request fails before the handler
	// runs; a lost response fails after it ran, an indeterminate outcome.
	// BigTable's data path sends no RPCs, so its runs get no window.
	NetDegradeProb float64
	NetExtraDelay  time.Duration
	NetDropProb    float64
}

// CheckConfig sizes the checked studies' sweep: how many faulted seeds to
// run, how hot the contended row range is, and whether the broken arms run.
type CheckConfig struct {
	// Seeds is the number of faulted runs per platform.
	Seeds int
	// HotRows bounds the contended row range so concurrent clients collide
	// on the same registers, giving the linearizability checker real overlap.
	HotRows int
	// IncludeBroken adds the broken-knob demonstration arms, each planting a
	// bug its study's checkers must convict: partition's Spanner with
	// commit-wait disabled under a deterministic fast clock and BigTable
	// serving writes from a partitioned server that are discarded at heal;
	// pipeline's BigQuery→Spanner dedup latch disabled under a forced
	// replay. Their violations are reported separately, and the study's
	// verdict fails when any one of them finds none. Safety has no broken
	// arms.
	IncludeBroken bool
}

// LoadConfig sizes the overload study: open-loop offered load per platform,
// the retry-storm trigger window, and the protected arm's overload-control
// knobs. Rates are total offered operations per virtual second, split across
// the study's three tenants (interactive 50%, batch 30%, flash 20%).
type LoadConfig struct {
	// SpannerRate, BigTableRate and BigQueryRate are the total open-loop
	// arrival rates (ops per virtual second) per platform.
	SpannerRate, BigTableRate, BigQueryRate float64
	// Duration is the arrival horizon; operations in flight still drain.
	Duration time.Duration
	// Window is the goodput accounting bucket width (0 = 100ms).
	Window time.Duration
	// TriggerAt and TriggerDur place the retry-storm trigger: a brownout
	// (service times multiplied by SlowFactor) compounded by a flash crowd
	// (the flash tenant's rate multiplied by FlashMult) over
	// [TriggerAt, TriggerAt+TriggerDur).
	TriggerAt, TriggerDur time.Duration
	SlowFactor            float64
	FlashMult             float64
	// The remaining knobs arm the protected arm only; the naive arm runs
	// with unbounded queues and eager retries.
	// MaxQueue, Target, Interval and ShedStartFrac configure server-side
	// admission (netsim.Admission semantics).
	MaxQueue      int
	Target        time.Duration
	Interval      time.Duration
	ShedStartFrac float64
	// RetryBudget is the per-client retry token bucket; BreakerFailures and
	// BreakerCooldown configure per-target circuit breakers.
	RetryBudget     float64
	BreakerFailures int
	BreakerCooldown time.Duration
	// QoSCapacity is the tenant governor's shared concurrency capacity.
	QoSCapacity int
}

// PartitionConfig sizes the partition study's nemesis: partition windows,
// one optional gray link, and clock skew, all as fractions/probabilities
// over the calibrated horizon (mirroring FaultConfig). The zero value
// disables the nemesis dimensions; the partition study always sets it.
type PartitionConfig struct {
	// MTBFFrac is the mean time between partition windows and MTTRFrac the
	// mean window duration, both as fractions of the calibrated horizon.
	MTBFFrac, MTTRFrac float64
	// GrayProb is the chance of one asymmetric gray-link window per run,
	// adding GrayExtra per message and dropping GrayDrop of them, one
	// direction only.
	GrayProb  float64
	GrayExtra time.Duration
	GrayDrop  float64
	// ClockSkewProb is the per-replica chance of one clock-skew window with
	// offset in [-ClockSkewMax, ClockSkewMax] and drift in [-ClockDriftMax,
	// ClockDriftMax]. Keep ClockSkewMax (plus drift accumulated over the
	// horizon) inside ClockEps or the hardened arm's commit-wait cannot
	// guarantee external consistency — the bound TrueTime itself assumes.
	ClockSkewProb float64
	ClockSkewMax  time.Duration
	ClockDriftMax float64
	// ClockEps is the TrueTime-style uncertainty bound Spanner runs with in
	// every partition-study arm: commit timestamps come from the skewed
	// local clock and commits wait the bound out before acknowledging.
	ClockEps time.Duration
}

// PipelineConfig sizes the cross-platform pipeline study: how many logical
// records flow BigTable → BigQuery → Spanner and how they batch into
// iterative analytics queries.
type PipelineConfig struct {
	// Records is the number of logical records flowing end to end.
	Records int
	// Batches groups the records into analytic batches; each batch runs one
	// iterative PageRank query over the shuffle plane.
	Batches int
	// Iterations is the PageRank round count per batch query.
	Iterations int
}

// ObsConfig switches on the observability plane and sizes its sampling.
type ObsConfig struct {
	// Enabled turns the metrics plane on; when false the other fields are
	// ignored and instrumented code pays one nil-check branch per record.
	Enabled bool
	// Interval is the virtual-time sampling period (0 = obs.DefaultConfig).
	Interval time.Duration
	// Window is the histogram window capacity (0 = obs.DefaultConfig).
	Window int
}

// registry builds the obs registry config for this study.
func (o ObsConfig) registry() obs.Config {
	return obs.Config{Interval: o.Interval, Window: o.Window}
}

// SketchConfig switches a study's measurement plane from exact recording to
// bounded-memory sketching. Off by default: exact recording stays the
// reference, and every pre-existing artifact reproduces byte-for-byte.
type SketchConfig struct {
	// Enabled swaps latency summaries for mergeable quantile sketches and
	// operation histories for reservoir samples.
	Enabled bool
	// RelErr is the sketch's relative-error bound on every reported
	// quantile (0 = stats.DefaultSketchRelErr, 1%).
	RelErr float64
	// HistoryCap bounds the reservoir of retained operations per platform
	// history (0 = 4096). Completeness-sensitive checkers refuse sampled
	// histories, so fleet runs report op mixes, not linearizability.
	HistoryCap int
}

// FleetConfig sizes the fleet-scale characterization: how many simulated
// server machines the three platforms share, how many logical users the
// open-loop load is attributed to, and the operation budget over the
// virtual horizon.
type FleetConfig struct {
	// Servers is the total server-machine count, split roughly 50% BigTable
	// / 25% Spanner / 25% BigQuery (serving-heavy, like the paper's fleet).
	Servers int
	// Users is the logical user population. Users are an ID space that
	// arrivals are attributed to, not materialized state — fleet memory
	// must not grow with them.
	Users int
	// Ops is the total completed-operation budget across platforms.
	Ops int
	// Duration is the arrival horizon of virtual time (0 = 2s); per-platform
	// open-loop rates are derived as ops/duration.
	Duration time.Duration
	// Shape optionally modulates arrivals (bursts, diurnal swing).
	Shape workload.ArrivalShape
}

// ExecConfig sizes the exec execution backend: how many worker subprocesses
// a study fans its units out across, and how failures are bounded.
type ExecConfig struct {
	// Workers is the worker subprocess count. 0 falls back to
	// Parallelism(Parallel) — the same knob the in-process pool resolves.
	Workers int
	// UnitTimeout bounds one work unit's wall-clock time per attempt; on
	// expiry the worker is killed and the unit retried. 0 disables it.
	UnitTimeout time.Duration
	// Command overrides the worker argv. Empty means "this executable with
	// a -worker argument", which cmd/hyperprof serves; tests point it at
	// the re-exec'd test binary instead.
	Command []string
	// Env is appended to the inherited environment of every worker.
	Env []string
}

// StudyConfig is the shared core every study runs from. Construct one with a
// Default*StudyConfig helper and call the study's method entry point:
// Characterize, Safety, Resilience, Observe, Overload, Partition, FleetScale,
// Pipeline or Latency.
type StudyConfig struct {
	// Seed drives all randomness. Studies derive per-platform and per-arm
	// seeds from it, so equal configs replay bit-identically.
	Seed uint64
	// Parallel bounds how many independent simulations run concurrently:
	// 0 = one worker per CPU, 1 = sequential. Results are byte-identical
	// either way (see runner.go).
	Parallel int
	// Backend selects where the study's independent arms compute: "" runs
	// them on the in-process worker pool and BackendExec fans them out across
	// hyperprof -worker subprocesses. Outputs are byte-identical either way
	// (see backend.go).
	Backend string
	// Exec sizes the exec backend; ignored unless Backend is BackendExec.
	Exec ExecConfig
	// Clients is the closed-loop client count per platform.
	Clients int
	// TraceRate keeps 1/TraceRate of traces.
	TraceRate int
	// Ops is the per-platform operation budget.
	Ops PlatformOps
	// Faults configures injection for the safety and resilience studies.
	Faults FaultConfig
	// Check sizes the safety checker sweep.
	Check CheckConfig
	// Obs configures the observability plane.
	Obs ObsConfig
	// Load sizes the overload study (open-loop rates, trigger window and the
	// protected arm's control-plane knobs).
	Load LoadConfig
	// Part sizes the partition study's nemesis (partition windows, gray
	// links, clock skew and the Spanner uncertainty bound).
	Part PartitionConfig
	// Sketch switches measurement to bounded-memory recorders (fleet runs
	// enable it; everything else defaults to exact).
	Sketch SketchConfig
	// Fleet sizes the fleet-scale characterization (Fleet entry point).
	Fleet FleetConfig
	// Pipe sizes the cross-platform pipeline study (Pipeline entry point;
	// the field is short for the same reason Part is — the long name is the
	// method).
	Pipe PipelineConfig
	// Shape optionally modulates arrivals in the overload study (open-loop
	// tenant arrivals) and think times in the resilience study's closed
	// loops. The zero value is byte-compatible with unshaped runs; fleet
	// runs carry their own Fleet.Shape.
	Shape workload.ArrivalShape
}

// defaultFaults are the documented fault rates both injecting studies share:
// roughly two fault windows per target per run, repairs a few percent of the
// run, a quarter of windows 4x stragglers, and a network brown-out (extra
// 200µs per message, 2% drops) in about half the runs.
func defaultFaults() FaultConfig {
	return FaultConfig{
		MTBFFrac:        0.5,
		MTTRFrac:        0.03,
		StragglerProb:   0.25,
		StragglerFactor: 4,
		NetDegradeProb:  0.5,
		NetExtraDelay:   200 * time.Microsecond,
		NetDropProb:     0.02,
	}
}

// DefaultCharStudyConfig returns the characterization defaults: the
// stand-in for the paper's "one representative day".
func DefaultCharStudyConfig() StudyConfig {
	return StudyConfig{
		Seed:      1,
		Clients:   8,
		TraceRate: 1,
		Ops:       PlatformOps{Spanner: 1500, BigTable: 1500, BigQuery: 250},
	}
}

// DefaultSafetyStudyConfig returns the torture defaults: six clients
// hammering eight hot rows per platform across five faulted seeds.
func DefaultSafetyStudyConfig() StudyConfig {
	return StudyConfig{
		Seed:    1,
		Clients: 6,
		Ops:     PlatformOps{Spanner: 400, BigTable: 400, BigQuery: 24},
		Faults:  defaultFaults(),
		Check:   CheckConfig{Seeds: 5, HotRows: 8},
	}
}

// DefaultResilienceStudyConfig returns the resilience defaults: baseline vs
// faulted arms at rates where all three platforms stay above 99%
// availability.
func DefaultResilienceStudyConfig() StudyConfig {
	return StudyConfig{
		Seed:      1,
		Clients:   8,
		TraceRate: 1,
		Ops:       PlatformOps{Spanner: 1200, BigTable: 1200, BigQuery: 96},
		Faults:    defaultFaults(),
	}
}

// DefaultObsStudyConfig returns the observability-study defaults: a
// moderate workload with the metrics plane on at 1ms virtual-time
// resolution, sized so the exported time series stay readable.
func DefaultObsStudyConfig() StudyConfig {
	return StudyConfig{
		Seed:      1,
		Clients:   8,
		TraceRate: 1,
		Ops:       PlatformOps{Spanner: 600, BigTable: 600, BigQuery: 90},
		Obs:       ObsConfig{Enabled: true, Interval: time.Millisecond, Window: 1024},
	}
}

// DefaultPartitionStudyConfig returns the partition-study defaults: the
// safety torture's contended workload under a nemesis of split-brain/ring/
// bridge partitions, one gray link, and bounded clock skew, with a lighter
// crash schedule riding along so partitions land on an already-degraded
// fleet. Two faulted seeds per arm keep the default run quick; CI sweeps
// more via the config.
func DefaultPartitionStudyConfig() StudyConfig {
	return StudyConfig{
		Seed:    1,
		Clients: 6,
		Ops:     PlatformOps{Spanner: 400, BigTable: 400, BigQuery: 24},
		Check:   CheckConfig{Seeds: 2, HotRows: 8},
		Faults: FaultConfig{
			MTBFFrac:        1.0,
			MTTRFrac:        0.03,
			StragglerProb:   0.2,
			StragglerFactor: 4,
		},
		Part: PartitionConfig{
			MTBFFrac:      0.4,
			MTTRFrac:      0.12,
			GrayProb:      0.6,
			GrayExtra:     300 * time.Microsecond,
			GrayDrop:      0.05,
			ClockSkewProb: 0.5,
			ClockSkewMax:  700 * time.Microsecond,
			ClockDriftMax: 1e-4,
			ClockEps:      time.Millisecond,
		},
	}
}

// DefaultOverloadStudyConfig returns the overload-study defaults: open-loop
// load each platform serves comfortably at baseline, a mid-run retry-storm
// trigger (6x brownout plus a 4x flash crowd for 400ms), and
// production-flavoured protections — bounded queues with CoDel expiry and
// adaptive shedding, a 10-token retry budget, 5-failure circuit breakers, and
// weighted tenant shares.
func DefaultOverloadStudyConfig() StudyConfig {
	return StudyConfig{
		Seed:    1,
		Clients: 8,
		Load: LoadConfig{
			SpannerRate:     2000,
			BigTableRate:    3500,
			BigQueryRate:    30,
			Duration:        2 * time.Second,
			Window:          50 * time.Millisecond,
			TriggerAt:       500 * time.Millisecond,
			TriggerDur:      400 * time.Millisecond,
			SlowFactor:      10,
			FlashMult:       4,
			MaxQueue:        64,
			Target:          2 * time.Millisecond,
			Interval:        5 * time.Millisecond,
			ShedStartFrac:   0.7,
			RetryBudget:     10,
			BreakerFailures: 5,
			BreakerCooldown: 25 * time.Millisecond,
			QoSCapacity:     96,
		},
	}
}

// DefaultPipelineStudyConfig returns the pipeline-study defaults: 48 logical
// records flowing BigTable → BigQuery → Spanner in four batches, each batch
// a two-round PageRank over the shuffle plane, with a fault schedule that
// kills shuffle servers (the middle stage's state plane) over the calibrated
// horizon and a forced replay exercising the handoff dedup latch.
func DefaultPipelineStudyConfig() StudyConfig {
	return StudyConfig{
		Seed:      1,
		Clients:   4,
		TraceRate: 1,
		Check:     CheckConfig{Seeds: 2, HotRows: 8},
		Faults: FaultConfig{
			MTBFFrac:        0.6,
			MTTRFrac:        0.08,
			StragglerProb:   0.25,
			StragglerFactor: 4,
		},
		Pipe: PipelineConfig{Records: 48, Batches: 4, Iterations: 2},
	}
}
