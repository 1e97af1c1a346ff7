// Package hyperprof reproduces "Profiling Hyperscale Big Data Processing"
// (Gonzalez et al., ISCA 2023) as a runnable Go system: deterministic
// simulations of Spanner-, BigTable- and BigQuery-like platforms with
// Dapper-style tracing and GWP-style fleet profiling, the paper's analytical
// "sea of accelerators" model (Equations 1–12), the limit studies of §6, and
// the chained protobuf+SHA3 SoC validation of Table 8.
//
// This package is the public facade: it re-exports the library's primary
// entry points so downstream users never import internal packages.
//
//   - Characterize runs the three platform simulations under calibrated
//     workloads and yields every §3–§5 table and figure (Table 1, Figures
//     2–6, Tables 6–7).
//   - System / Component is the analytical model; DeriveSystem extracts a
//     model instance from a characterization.
//   - Figure9..Figure15 run the §6 limit studies.
//   - ValidateChainedModel reproduces the Table 8 experiment.
package hyperprof

import (
	"hyperprof/internal/experiments"
	"hyperprof/internal/faults"
	"hyperprof/internal/model"
	"hyperprof/internal/obs"
	"hyperprof/internal/profile"
	"hyperprof/internal/soc"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
	"hyperprof/internal/workload"
)

// Unified Study API. StudyConfig is the shared core every study runs from:
// construct one with a Default*StudyConfig helper, adjust the grouped knobs
// (Ops, Faults, Check, Obs, Load, Part, Pipe, Shape), and call the study's
// method entry point — Characterize, Safety, Resilience, Observe, Overload,
// Partition, FleetScale or Pipeline. It is the only way in: the legacy
// per-study config types and Run* wrappers have been deleted.
type (
	// StudyConfig is the unified study configuration.
	StudyConfig = experiments.StudyConfig
	// PlatformOps is the per-platform operation budget.
	PlatformOps = experiments.PlatformOps
	// FaultConfig groups the fault-injection rates.
	FaultConfig = experiments.FaultConfig
	// CheckConfig sizes the safety checker sweep.
	CheckConfig = experiments.CheckConfig
	// ObsConfig switches on the observability plane and sizes its sampling.
	ObsConfig = experiments.ObsConfig
	// PartitionConfig sizes the partition study's nemesis: partition and
	// gray-link rates, clock skew bounds and the uncertainty bound eps.
	PartitionConfig = experiments.PartitionConfig
	// LoadConfig sizes the overload study: open-loop offered load, the
	// retry-storm trigger, and the protected arm's control-plane knobs.
	LoadConfig = experiments.LoadConfig
	// ExecConfig sizes the exec backend's worker process pool.
	ExecConfig = experiments.ExecConfig
	// PipelineConfig sizes the cross-platform pipeline study.
	PipelineConfig = experiments.PipelineConfig
	// ArrivalShape modulates open-loop arrivals (bursts, diurnal swing).
	ArrivalShape = workload.ArrivalShape
)

// BackendExec is the StudyConfig.Backend value that fans a study's work
// units across hyperprof -worker subprocesses, keeping the coordinator's
// memory flat on large sweeps and isolating arm crashes. The empty string,
// the default, runs them on the in-process goroutine pool. The backend
// decides where arms compute, never what: exported bytes are identical.
const BackendExec = experiments.BackendExec

// ServeStudyWorker runs the worker half of the exec backend protocol on the
// given streams until EOF. cmd/hyperprof serves this under -worker; a
// custom driver binary embedding this package can do the same.
var ServeStudyWorker = experiments.ServeWorker

// Default study configurations, one per entry point.
var (
	// DefaultCharStudyConfig sizes the characterization study.
	DefaultCharStudyConfig = experiments.DefaultCharStudyConfig
	// DefaultSafetyStudyConfig sizes the safety torture study.
	DefaultSafetyStudyConfig = experiments.DefaultSafetyStudyConfig
	// DefaultResilienceStudyConfig sizes the resilience study.
	DefaultResilienceStudyConfig = experiments.DefaultResilienceStudyConfig
	// DefaultObsStudyConfig sizes the observability study.
	DefaultObsStudyConfig = experiments.DefaultObsStudyConfig
	// DefaultOverloadStudyConfig sizes the overload study.
	DefaultOverloadStudyConfig = experiments.DefaultOverloadStudyConfig
	// DefaultPartitionStudyConfig sizes the partition nemesis study.
	DefaultPartitionStudyConfig = experiments.DefaultPartitionStudyConfig
	// DefaultFleetStudyConfig sizes the fleet-scale characterization:
	// 2000 servers, one million logical users, sketch-mode recording.
	DefaultFleetStudyConfig = experiments.DefaultFleetStudyConfig
	// DefaultPipelineStudyConfig sizes the cross-platform pipeline study.
	DefaultPipelineStudyConfig = experiments.DefaultPipelineStudyConfig
)

// Pipeline study: one simulation chains BigTable ingest into a BigQuery
// iterative PageRank over the shuffle plane into Spanner serving, with every
// logical record carrying one trace ID across the stage boundaries and an
// exactly-once handoff invariant checked at the BigQuery→Spanner boundary.
type (
	// PipelineStudy is the full pipeline study result.
	PipelineStudy = experiments.Pipeline
	// PipelineRow is one (arm, seed) pipeline measurement.
	PipelineRow = experiments.PipelineRow
)

// Pipeline runs the cross-platform pipeline study. Equal configs replay
// bit-identically; the JSON and Chrome exports are byte-identical between
// sequential and parallel runs and across execution backends.
func Pipeline(cfg StudyConfig) (*PipelineStudy, error) {
	return cfg.Pipeline()
}

// RenderPipeline renders the pipeline study as a fixed-width table with the
// per-stage §4.1 breakdown and the handoff verdict.
var RenderPipeline = experiments.RenderPipeline

// Fleet-scale characterization: the three platforms sized to thousands of
// server machines under an open-loop load attributed to millions of logical
// users, with bounded-memory measurement (quantile sketches and reservoir-
// sampled histories) so profiling cost stays flat in the op count.
type (
	// FleetStudy is the full fleet-scale result.
	FleetStudy = experiments.FleetStudy
	// FleetRow is one platform's fleet measurement.
	FleetRow = experiments.FleetRow
	// SketchConfig switches a study's measurement plane to bounded-memory
	// sketching.
	SketchConfig = experiments.SketchConfig
	// FleetConfig sizes the fleet-scale characterization.
	FleetConfig = experiments.FleetConfig
)

// FleetScale runs the fleet-scale characterization. Equal seeds and sizing
// yield byte-identical MarshalFleet artifacts across sequential, parallel
// and all execution backends.
func FleetScale(cfg StudyConfig) (*FleetStudy, error) {
	return cfg.FleetScale()
}

// MarshalFleet renders the canonical fleet artifact (execution knobs and
// measured heap excluded); RenderFleet the human-readable table.
var (
	MarshalFleet = experiments.MarshalFleet
	RenderFleet  = experiments.RenderFleet
)

// Partition study: each platform's contended workload runs under a nemesis
// of split-brain/ring/bridge partitions, asymmetric gray links and bounded
// clock skew, naive (recovery disabled) versus hardened (partition-aware
// recovery: Spanner leader step-down, BigTable tablet reassignment, BigQuery
// shuffle failover). Both arms must stay safe; the hardened arm must stay
// available. Optional broken arms disable the safety mechanisms to prove
// the checkers convict them.
type (
	// PartitionStudy is the full partition study result.
	PartitionStudy = experiments.Partition
	// PartitionRow is one (platform, arm, seed) measurement.
	PartitionRow = experiments.PartitionRow
)

// RenderPartition renders the partition study as a fixed-width table with
// the naive-vs-hardened availability comparison and every violation in full.
var RenderPartition = experiments.RenderPartition

// Overload study: each platform's open-loop multi-tenant workload runs
// through a retry-storm trigger twice — naive versus protected by the
// overload control plane (admission control, retry budgets, circuit
// breakers, per-tenant QoS).
type (
	// OverloadStudy is the full overload study result.
	OverloadStudy = experiments.Overload
	// OverloadRow is one (platform, arm) measurement.
	OverloadRow = experiments.OverloadRow
	// TenantOverload is one tenant's accounting within a row.
	TenantOverload = experiments.TenantOverload
)

// OverloadControl runs the overload study. Equal configs replay
// bit-identically; the JSON export and rendered table are byte-identical
// between sequential and parallel runs.
func OverloadControl(cfg StudyConfig) (*OverloadStudy, error) {
	return cfg.Overload()
}

// RenderOverload renders the overload study as a fixed-width table with the
// naive-vs-protected recovery comparison.
var RenderOverload = experiments.RenderOverload

// Observability study: the characterization workload with the sim-clock
// metrics plane and continuous-profiling hook enabled.
type (
	// ObsStudy is the observability study result.
	ObsStudy = experiments.ObsStudy
	// MetricSeries is one exported metric time series.
	MetricSeries = obs.Series
	// MetricPoint is one (virtual time, value) sample.
	MetricPoint = obs.Point
)

// Observe runs the observability study: a characterization with the metrics
// plane forced on, yielding per-platform time series exportable as JSON or
// Chrome-trace counter tracks. Equal configs replay bit-identically and the
// exports are byte-identical between sequential and parallel runs.
func Observe(cfg StudyConfig) (*ObsStudy, error) {
	return cfg.Observe()
}

// RenderObs renders a per-platform summary of an observability study.
var RenderObs = experiments.RenderObs

// MarshalMetricSeries renders per-platform metric series as one compact JSON
// document in Platforms() order.
var MarshalMetricSeries = experiments.MarshalPlatformSeries

// MetricCounterTracks converts per-platform metric series into Chrome-trace
// counter tracks.
var MetricCounterTracks = experiments.CounterTracks

// QueryTrace is one sampled query trace.
type QueryTrace = trace.Trace

// Chrome-trace export surface, so callers can combine query intervals, fault
// marks and metric counter tracks into one document without importing
// internal packages.
type (
	// ChromeBuilder accumulates one Chrome trace-event document.
	ChromeBuilder = trace.ChromeBuilder
	// CounterTrack is one metric time series destined for a counter track.
	CounterTrack = trace.CounterTrack
	// CounterPoint is one sample of a counter track.
	CounterPoint = trace.CounterPoint
)

// NewChromeBuilder returns an empty Chrome trace-event document builder.
var NewChromeBuilder = trace.NewChromeBuilder

// Platform identifies one of the three profiled platforms.
type Platform = taxonomy.Platform

// The three platforms.
const (
	Spanner  = taxonomy.Spanner
	BigTable = taxonomy.BigTable
	BigQuery = taxonomy.BigQuery
)

// Platforms lists the platforms in presentation order.
func Platforms() []Platform { return taxonomy.Platforms() }

// Category is a fine-grained cycle category (Tables 2–5).
type Category = taxonomy.Category

// Broad is a top-level cycle class (core compute, datacenter tax, system tax).
type Broad = taxonomy.Broad

// Analytical model (the paper's primary contribution, §6).
type (
	// System is the full model input (Figure 7).
	System = model.System
	// Component is one CPU subcomponent t_sub_i.
	Component = model.Component
	// Invocation selects an accelerator execution model (§6.3.2).
	Invocation = model.Invocation
)

// The four §6.3 invocation models.
const (
	SyncOffChip   = model.SyncOffChip
	SyncOnChip    = model.SyncOnChip
	AsyncOnChip   = model.AsyncOnChip
	ChainedOnChip = model.ChainedOnChip
)

// Invocations lists the invocation models in Figure 13 order.
func Invocations() []Invocation { return model.Invocations() }

// Characterization is a completed profiling run over the three platforms.
type Characterization = experiments.Characterization

// Characterize runs the full characterization (the paper's "representative
// day" of traces and profiles).
func Characterize(cfg StudyConfig) (*Characterization, error) {
	return cfg.Characterize()
}

// Characterization artifacts (§3–§5).
var (
	// Table1 extracts the storage-to-storage ratios.
	Table1 = experiments.Table1
	// Figure2 extracts the end-to-end time breakdown by query group.
	Figure2 = experiments.Figure2
	// Figure2Overall extracts the cross-platform average CPU/remote/IO split.
	Figure2Overall = experiments.Figure2Overall
	// Figure3 extracts the broad cycle breakdown.
	Figure3 = experiments.Figure3
	// Figure4 extracts the core-compute category breakdown.
	Figure4 = experiments.Figure4
	// Figure5 extracts the datacenter-tax breakdown.
	Figure5 = experiments.Figure5
	// Figure6 extracts the system-tax breakdown.
	Figure6 = experiments.Figure6
	// Table6 extracts platform IPC/MPKI statistics.
	Table6 = experiments.Table6
	// Table7 extracts IPC/MPKI statistics by broad class.
	Table7 = experiments.Table7
)

// Limit studies (§6.2–§6.3).
var (
	// Figure9 runs the synchronous on-chip upper-bound sweep.
	Figure9 = experiments.Figure9
	// Figure10 runs the per-query-group upper-bound sweep.
	Figure10 = experiments.Figure10
	// Figure13 runs the accelerator feature study.
	Figure13 = experiments.Figure13
	// Figure14 runs the setup-time sweep.
	Figure14 = experiments.Figure14
	// Figure15 runs the prior-accelerator comparison.
	Figure15 = experiments.Figure15
)

// MicroarchStats is an aggregated IPC/MPKI report row.
type MicroarchStats = profile.Stats

// GroupStats is one Figure 2 row.
type GroupStats = trace.GroupStats

// Table8Result holds the §6.4 model-validation outcome.
type Table8Result = soc.Table8

// Table8Config sizes the validation experiment.
type Table8Config = experiments.Table8Config

// DefaultTable8Config returns the paper-calibrated validation setup.
func DefaultTable8Config() Table8Config { return experiments.DefaultTable8Config() }

// ValidateChainedModel reproduces Table 8: measure the simulated SoC running
// real protobuf serialization chained into real SHA3 hashing, then compare
// the chained model's estimate against the measurement.
func ValidateChainedModel(cfg Table8Config) (*Table8Result, error) {
	return experiments.Table8(cfg)
}

// Chain3Result holds the extended three-accelerator validation outcome
// (protobuf serialization -> block compression -> SHA3), the §6.4
// future-work experiment.
type Chain3Result = soc.Chain3Result

// ValidateChain3 runs the extended validation with a real compression stage
// between serialization and hashing.
func ValidateChain3(seed uint64, messages int) (*Chain3Result, error) {
	return experiments.Chain3Experiment(seed, messages)
}

// Extension studies (§6.4 future work).
var (
	// PartialSyncSweep evaluates intermediate synchronization levels
	// between the paper's fully-sync and fully-async endpoints.
	PartialSyncSweep = experiments.PartialSyncSweep
	// ChainScaling evaluates the invocation models as the accelerator
	// chain grows.
	ChainScaling = experiments.ChainScaling
	// RenderLatency renders a latency-under-load curve.
	RenderLatency = experiments.RenderLatency
	// RenderChain3 renders the extended validation.
	RenderChain3 = experiments.RenderChain3
	// RenderMixedPlacement renders a placement-sensitivity study.
	RenderMixedPlacement = experiments.RenderMixedPlacement
	// RenderPriority renders an accelerator-priority ranking.
	RenderPriority = experiments.RenderPriority
)

// LatencyPoint is one (rate, p50, p99) measurement of the latency-under-load
// study.
type LatencyPoint = experiments.LatencyPoint

// LatencyStudy measures p50/p99 latency versus offered load on the Spanner
// simulation (open-loop Poisson arrivals), honouring the config's Parallel
// and Backend knobs.
func LatencyStudy(cfg StudyConfig, rates []float64, opsPerPoint int) ([]LatencyPoint, error) {
	return cfg.Latency(rates, opsPerPoint)
}

// Report is the machine-readable form of the full characterization study.
type Report = experiments.Report

// BuildReport assembles the machine-readable report (serialize with
// Report.JSON).
var BuildReport = experiments.BuildReport

// Resilience types expose the fault-injection study: each platform's
// workload runs fault-free and under a seeded fault schedule, and the study
// compares availability, goodput and tail latency between the arms.
type (
	// Resilience is the full study result.
	Resilience = experiments.Resilience
	// ResilienceRow is one (platform, arm) measurement.
	ResilienceRow = experiments.ResilienceRow
	// FaultEvent records one fault that fired during a faulted arm.
	FaultEvent = faults.Applied
	// TraceMark is a point annotation on an exported trace timeline.
	TraceMark = trace.Mark
)

// ResilienceStudy runs the fault-injection study. Equal configs replay
// bit-identically.
func ResilienceStudy(cfg StudyConfig) (*Resilience, error) {
	return cfg.Resilience()
}

// RenderResilience renders the study as a fixed-width comparison table.
var RenderResilience = experiments.RenderResilience

// Safety types expose the torture study: each platform runs a contended
// read/write workload with operation-history recording enabled, fault-free
// and then across a seed sweep of injected fault schedules, and every run is
// checked for linearizability, structural safety violations (duplicate
// replay, double-counted merges, unsafe elections) and the standing
// invariants (consensus durability, tablet ownership, shuffle slot
// placement, DFS replica consistency).
type (
	// Safety is the full study result.
	Safety = experiments.Safety
	// SafetyRow is one (platform, seed) measurement.
	SafetyRow = experiments.SafetyRow
	// SafetyViolation is one checker finding with its reproducing seed.
	SafetyViolation = experiments.SafetyViolation
)

// SafetyStudy runs the torture study. Equal configs replay bit-identically;
// any violation is reported with the seed that reproduces it and the minimal
// violating subhistory.
func SafetyStudy(cfg StudyConfig) (*Safety, error) {
	return cfg.Safety()
}

// RenderSafety renders the study as a fixed-width table followed by every
// violation in full.
var RenderSafety = experiments.RenderSafety

// Renderers produce the textual equivalents of the paper's tables/figures.
var (
	RenderTable1   = experiments.RenderTable1
	RenderFigure2  = experiments.RenderFigure2
	RenderFigure3  = experiments.RenderFigure3
	RenderFigure4  = experiments.RenderFigure4
	RenderFigure5  = experiments.RenderFigure5
	RenderFigure6  = experiments.RenderFigure6
	RenderTables23 = experiments.RenderTables23
	RenderTables67 = experiments.RenderTables67
	RenderFigure9  = experiments.RenderFigure9
	RenderFigure10 = experiments.RenderFigure10
	RenderFigure13 = experiments.RenderFigure13
	RenderFigure14 = experiments.RenderFigure14
	RenderFigure15 = experiments.RenderFigure15
	RenderTable8   = experiments.RenderTable8
)
