// Package hyperprof reproduces "Profiling Hyperscale Big Data Processing"
// (Gonzalez et al., ISCA 2023) as a runnable Go system: deterministic
// simulations of Spanner-, BigTable- and BigQuery-like platforms with
// Dapper-style tracing and GWP-style fleet profiling, the paper's analytical
// "sea of accelerators" model (Equations 1–12), the limit studies of §6, and
// the chained protobuf+SHA3 SoC validation of Table 8.
//
// This package is the public facade: it re-exports the entry points that
// programs outside the module's internal packages use.
//
//   - Characterize runs the three platform simulations under calibrated
//     workloads and yields the §3–§5 tables and figures (Table 1, Figures
//     2–6, Tables 6–7).
//   - System / Component is the analytical model; Figure9 runs a §6 limit
//     study over a characterization.
//   - ValidateChainedModel reproduces the Table 8 experiment.
//   - SafetyStudy, OverloadControl and FleetScale run the fault, overload
//     and fleet-scale studies.
//
// The hyperprof command runs every study of the paper; `hyperprof -h` lists
// them.
package hyperprof

import (
	"hyperprof/internal/experiments"
	"hyperprof/internal/model"
	"hyperprof/internal/soc"
	"hyperprof/internal/taxonomy"
)

// StudyConfig is the configuration every study runs from: construct one with
// a Default*StudyConfig helper, adjust its grouped knobs, and run the study.
type StudyConfig = experiments.StudyConfig

// PlatformOps is the per-platform operation budget.
type PlatformOps = experiments.PlatformOps

// BackendExec is the StudyConfig.Backend value that fans a study's work
// units across hyperprof -worker subprocesses instead of the in-process
// goroutine pool (""). The backend decides where arms compute, never what.
const BackendExec = experiments.BackendExec

// ServeStudyWorker runs the worker half of the exec backend protocol on the
// given streams until EOF. The hyperprof command serves this under -worker;
// a custom binary embedding this package can do the same.
var ServeStudyWorker = experiments.ServeWorker

// Default study configurations.
var (
	// DefaultCharStudyConfig sizes the characterization study.
	DefaultCharStudyConfig = experiments.DefaultCharStudyConfig
	// DefaultSafetyStudyConfig sizes the safety torture study.
	DefaultSafetyStudyConfig = experiments.DefaultSafetyStudyConfig
	// DefaultOverloadStudyConfig sizes the overload study.
	DefaultOverloadStudyConfig = experiments.DefaultOverloadStudyConfig
	// DefaultFleetStudyConfig sizes the fleet-scale characterization:
	// 2000 servers, one million logical users, sketch-mode recording.
	DefaultFleetStudyConfig = experiments.DefaultFleetStudyConfig
)

// Fleet-scale characterization: thousands of server machines, millions of
// logical users, bounded-memory measurement.
type (
	// FleetStudy is the full fleet-scale result.
	FleetStudy = experiments.FleetStudy
	// FleetRow is one platform's fleet measurement.
	FleetRow = experiments.FleetRow
)

// FleetScale runs the fleet-scale characterization. Equal seeds and sizing
// yield byte-identical MarshalFleet artifacts across sequential, parallel
// and all execution backends.
func FleetScale(cfg StudyConfig) (*FleetStudy, error) {
	return cfg.FleetScale()
}

// MarshalFleet renders the canonical fleet artifact (execution knobs and
// measured heap excluded).
var MarshalFleet = experiments.MarshalFleet

// OverloadControl runs the overload study: each platform's open-loop
// multi-tenant workload runs through a retry-storm trigger twice, naive
// versus protected by the overload control plane (admission control, retry
// budgets, circuit breakers, per-tenant QoS). Equal configs replay
// bit-identically.
func OverloadControl(cfg StudyConfig) (*experiments.Overload, error) {
	return cfg.Overload()
}

// SafetyRow is one (platform, seed) measurement of the safety torture study.
type SafetyRow = experiments.SafetyRow

// SafetyStudy runs the torture study: each platform's contended workload,
// fault-free and across a seed sweep of injected fault schedules, with every
// run's operation history checked for linearizability and the standing
// invariants. Equal configs replay bit-identically.
func SafetyStudy(cfg StudyConfig) (*experiments.Safety, error) {
	return cfg.Safety()
}

// RenderSafety renders the safety study as a fixed-width table followed by
// every violation in full.
var RenderSafety = experiments.RenderSafety

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

// Analytical model (the paper's primary contribution, §6).
type (
	// System is the full model input (Figure 7).
	System = model.System
	// Component is one CPU subcomponent t_sub_i.
	Component = model.Component
)

// Invocations lists the §6.3 accelerator invocation models in Figure 13
// order.
func Invocations() []model.Invocation { return model.Invocations() }

// Characterization is a completed profiling run over the three platforms.
type Characterization = experiments.Characterization

// Characterize runs the full characterization (the paper's "representative
// day" of traces and profiles).
func Characterize(cfg StudyConfig) (*Characterization, error) {
	return cfg.Characterize()
}

// Report is the machine-readable form of the full characterization study.
type Report = experiments.Report

// BuildReport assembles the machine-readable report (serialize with
// Report.JSON).
var BuildReport = experiments.BuildReport

// Characterization artifacts (§3–§5) and a limit study (§6.2).
var (
	// Table1 extracts the storage-to-storage ratios.
	Table1 = experiments.Table1
	// Figure2 extracts the end-to-end time breakdown by query group.
	Figure2 = experiments.Figure2
	// Figure3 extracts the broad cycle breakdown.
	Figure3 = experiments.Figure3
	// Figure4 extracts the core-compute category breakdown.
	Figure4 = experiments.Figure4
	// Table6 extracts platform IPC/MPKI statistics.
	Table6 = experiments.Table6
	// Figure9 runs the synchronous on-chip upper-bound sweep.
	Figure9 = experiments.Figure9
)

// DefaultTable8Config returns the paper-calibrated validation setup.
func DefaultTable8Config() experiments.Table8Config { return experiments.DefaultTable8Config() }

// ValidateChainedModel reproduces Table 8: measure the simulated SoC running
// real protobuf serialization chained into real SHA3 hashing, then compare
// the chained model's estimate against the measurement.
func ValidateChainedModel(cfg experiments.Table8Config) (*soc.Table8, error) {
	return experiments.Table8(cfg)
}

// ValidateChain3 runs the extended validation with a real compression stage
// between serialization and hashing (protobuf serialization -> block
// compression -> SHA3), the §6.4 future-work experiment.
func ValidateChain3(seed uint64, messages int) (*soc.Chain3Result, error) {
	return experiments.Chain3Experiment(seed, messages)
}

// Extension studies (§6.4 future work) and renderers of the validation.
var (
	// PartialSyncSweep evaluates intermediate synchronization levels
	// between the paper's fully-sync and fully-async endpoints.
	PartialSyncSweep = experiments.PartialSyncSweep
	// RenderMixedPlacement renders a placement-sensitivity study.
	RenderMixedPlacement = experiments.RenderMixedPlacement
	// RenderPriority renders an accelerator-priority ranking.
	RenderPriority = experiments.RenderPriority
	// RenderTable8 renders the Table 8 validation.
	RenderTable8 = experiments.RenderTable8
	// RenderChain3 renders the extended validation.
	RenderChain3 = experiments.RenderChain3
)
