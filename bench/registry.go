package main

import (
	"fmt"
	"runtime"

	"hyperprof"
)

// metric is one end-to-end metric. Bound is the share of the parent's
// median by which it may worsen before a change counts as a regression;
// 0 marks a metric that is reported but not gated.
type metric struct {
	Name, Unit, Better string
	Bound              float64
}

func (m metric) gated() bool { return m.Bound > 0 }

// endToEnd lists the metrics measured per rep with tracing off. The gated
// ones are BENCHMARK.json's end-to-end metrics. A bound may be at most 10%,
// and on a shared two-vCPU host the study timings drift by more than that
// between runs of one seed, so they are reported but not gated. setup_s is
// a timing too, but the benchmark format requires it; it takes the widest
// bound the format allows. README.md has the measurements.
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0},
	{"ops_per_s", "ops/s", "higher", 0},
	{"cpu_s", "s", "lower", 0},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MiB", "lower", 0.1},
	{"allocs_per_op", "objects/op", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.1},
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ Name, Unit, Better string }

// perLayer lists the traced run's metrics, named <layer>.<metric>. A metric
// whose layer a workload's traced run does not reach reads 0.
var perLayer = []layerMetric{
	{"spanner.new_s", "s", "lower"},
	{"bigtable.new_s", "s", "lower"},
	{"bigquery.new_s", "s", "lower"},
	{"sim.spanner_run_s", "s", "lower"},
	{"sim.bigtable_run_s", "s", "lower"},
	{"sim.bigquery_run_s", "s", "lower"},
	{"sim.virtual_s", "s", "higher"},
	{"sim.ops", "count", "higher"},
	{"sim.ns_per_op", "ns/op", "lower"},
	{"sim.allocs_per_op", "objects/op", "lower"},
	{"platform.env_s", "s", "lower"},
	{"workload.launch_s", "s", "lower"},
	{"experiments.extract_s", "s", "lower"},
	{"experiments.study_s", "s", "lower"},
	{"experiments.cpu_util", "fraction", "higher"},
	{"experiments.export_s", "s", "lower"},
	{"experiments.export_bytes", "B", "lower"},
	{"check.linearizability_s", "s", "lower"},
	{"check.external_s", "s", "lower"},
	{"check.invariants_s", "s", "lower"},
	{"check.history_ops", "count", "higher"},
	{"dispatch.coordinator_cpu_s", "s", "lower"},
	{"dispatch.worker_cpu_s", "s", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"bench.trace_overhead_frac", "fraction", "lower"},
}

// result is one study call's output, reduced to what a rep checks.
type result struct {
	// ops counts completed simulated operations.
	ops int
	// verdict is the study's own pass/fail; nil passes.
	verdict error
	// artifact renders the canonical artifact whose SHA-256 every rep of a
	// run must reproduce.
	artifact func() ([]byte, error)
	// composed renders the bytes the traced composition must reproduce; nil
	// when the workload has no composition.
	composed func() ([]byte, error)
}

// spec is one benchmark workload: a study entry point at a fixed size.
type spec struct {
	Name string
	// Reps is the measured rep count of a full set.
	Reps int
	// Seeds is how many study seeds one rep covers, one fresh child each;
	// a rep's metrics are their mean. More than one evens out how much work
	// a seed draws, which is most of the spread between seeds on the short
	// studies.
	Seeds int
	// call runs the study through the public facade; only it is timed.
	call func(seed uint64, parallel int) (result, error)
	// warmup names the workload whose rep warms this one up and whose
	// digest this one must reproduce (itself when empty).
	warmup string
	// compose rebuilds the study from layer calls under spans; nil means
	// the traced run records coarse spans only.
	compose func(rec *recorder, seed uint64) ([]byte, error)
	// overheadRef marks a composition doing the same work as a sequential
	// study call, so the call's wall time is the untraced reference.
	overheadRef bool
}

// workloads each stress a different layer; BENCHMARK.json and README.md
// record why each was chosen.
var workloads = []*spec{
	{Name: "char", Reps: 6, Seeds: 4, call: callChar, compose: composeChar, overheadRef: true},
	{Name: "safety", Reps: 4, Seeds: 3, call: callSafety(""), compose: composeSafety},
	// Warmed up by an in-process safety rep, so every run also checks that
	// the exec backend reproduces the in-process artifact.
	{Name: "safety_exec", Reps: 4, Seeds: 3, call: callSafety(hyperprof.BackendExec), warmup: "safety"},
	{Name: "overload", Reps: 4, Seeds: 1, call: callOverload},
	{Name: "fleet", Reps: 4, Seeds: 1, call: callFleet, compose: composeFleet, overheadRef: true},
}

// repSeeds are the study seeds one rep of w covers: seed itself first, then
// seeds no other -seed value reaches.
func repSeeds(w *spec, seed uint64) []uint64 {
	s := make([]uint64, w.Seeds)
	for k := range s {
		s[k] = seed + uint64(k)<<32
	}
	return s
}

func lookupWorkload(name string) (*spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func charConfig(seed uint64, parallel int) hyperprof.StudyConfig {
	cfg := hyperprof.DefaultCharStudyConfig()
	cfg.Seed, cfg.Parallel = seed, parallel
	return cfg
}

func callChar(seed uint64, parallel int) (result, error) {
	ch, err := hyperprof.Characterize(charConfig(seed, parallel))
	if err != nil {
		return result{}, err
	}
	ops := 0
	for _, ts := range ch.Traces {
		ops += len(ts)
	}
	report := func() ([]byte, error) { return hyperprof.BuildReport(ch).JSON() }
	return result{ops: ops, artifact: report, composed: report}, nil
}

func safetyConfig(seed uint64, parallel int) hyperprof.StudyConfig {
	cfg := hyperprof.DefaultSafetyStudyConfig()
	cfg.Seed, cfg.Parallel = seed, parallel
	return cfg
}

func callSafety(backend string) func(uint64, int) (result, error) {
	return func(seed uint64, parallel int) (result, error) {
		cfg := safetyConfig(seed, parallel)
		if backend == hyperprof.BackendExec {
			cfg.Backend = backend
			cfg.Exec.Workers = min(2, runtime.NumCPU())
		}
		s, err := hyperprof.SafetyStudy(cfg)
		if err != nil {
			return result{}, err
		}
		r := result{artifact: func() ([]byte, error) { return []byte(hyperprof.RenderSafety(s)), nil }}
		for _, row := range s.Rows {
			r.ops += row.Ops
		}
		if !s.Ok() {
			r.verdict = fmt.Errorf("safety study found %d violations", len(s.Violations))
		}
		// The composition reproduces BigTable's fault-free calibration row.
		for _, row := range s.Rows {
			if row.Platform == hyperprof.BigTable && !row.Faulted {
				r.composed = func() ([]byte, error) { return marshalRow(row) }
			}
		}
		return r, nil
	}
}

func callOverload(seed uint64, parallel int) (result, error) {
	cfg := hyperprof.DefaultOverloadStudyConfig()
	cfg.Seed, cfg.Parallel = seed, parallel
	o, err := hyperprof.OverloadControl(cfg)
	if err != nil {
		return result{}, err
	}
	r := result{artifact: o.JSON}
	for _, row := range o.Rows {
		r.ops += row.Done + row.Errors
	}
	return r, nil
}

// fleetConfig shrinks the default fleet to a quarter of its servers and
// half its operations. On two cores one call then takes 3–4.5 s and peaks
// near 150 MiB; at 1000 servers it took 9.3 s, so a run's warm-up and three
// reps would take twice the 18 s time box (see README.md).
func fleetConfig(seed uint64, parallel int) hyperprof.StudyConfig {
	cfg := hyperprof.DefaultFleetStudyConfig()
	cfg.Seed, cfg.Parallel = seed, parallel
	cfg.Fleet.Servers, cfg.Fleet.Users, cfg.Fleet.Ops = 500, 250_000, 20_000
	return cfg
}

func callFleet(seed uint64, parallel int) (result, error) {
	st, err := hyperprof.FleetScale(fleetConfig(seed, parallel))
	if err != nil {
		return result{}, err
	}
	artifact := func() ([]byte, error) { return hyperprof.MarshalFleet(st) }
	r := result{artifact: artifact, composed: artifact}
	for _, row := range st.Rows {
		r.ops += row.Ops
		if row.Errors > 0 && r.verdict == nil {
			r.verdict = fmt.Errorf("fleet row %s: %d errors", row.Platform, row.Errors)
		}
	}
	return r, nil
}
