// Package platform provides the shared runtime the three platform
// simulations are built on: an environment bundling the simulation kernel,
// network, tracer and profiler; cost recipes that turn one logical operation
// into a sequence of leaf-function CPU work items; and helpers that execute
// that work on a node's cores while annotating traces and feeding the
// profiler.
//
// Cost calibration note (the repro substitution): the paper profiles live
// production traffic; this repository instead drives the platform
// simulations with per-function cost tables whose *relative* weights are
// calibrated to the aggregate distributions the paper publishes (Figures
// 3–6, Tables 6–7). The machinery that executes, samples, classifies and
// aggregates the work is real; only the per-function means are synthetic.
package platform

import (
	"time"

	"hyperprof/internal/netsim"
	"hyperprof/internal/obs"
	"hyperprof/internal/profile"
	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// Env bundles the shared facilities a platform simulation runs against.
type Env struct {
	K   *sim.Kernel
	Net *netsim.Network
	// Tracer records the environment's query traces; nil means tracing is
	// off, and every trace the environment hands out is nil (see
	// trace.Tracer).
	Tracer *trace.Tracer
	Prof   *profile.Profiler
	RNG    *stats.RNG
	// Jitter is the relative noise applied to every step duration.
	Jitter float64
	// Obs is the environment's observability plane; nil (the default) means
	// disabled, and every instrumentation site degrades to a nil-check no-op.
	Obs *obs.Registry
}

// NewEnv builds an environment with its own kernel and network, a tracer at
// the given sampling rate (none when the rate is 0), and a profiler seeded
// from seed.
func NewEnv(seed uint64, traceRate int) *Env {
	return NewEnvOn(sim.New(), seed, traceRate)
}

// NewEnvOn builds an environment on an existing kernel, for multi-platform
// pipelines where several platform stacks must share one simulation clock.
// Each environment still gets its own network, profiler and RNG stream
// (per-stage seeds keep the streams decorrelated); pipeline callers
// typically overwrite Tracer with one shared tracer so a logical request's
// stage spans carry a single trace ID across platforms. A traceRate of 0 (or
// below) leaves Tracer nil: the environment records no traces.
func NewEnvOn(k *sim.Kernel, seed uint64, traceRate int) *Env {
	e := &Env{
		K:      k,
		Net:    netsim.New(k, netsim.DefaultConfig()),
		Prof:   profile.New(nil, seed, profile.WithJitter(0.05)),
		RNG:    stats.NewRNG(seed ^ 0x9e3779b97f4a7c15),
		Jitter: 0.25,
	}
	if traceRate > 0 {
		e.Tracer = trace.NewTracer(traceRate)
	}
	return e
}

// EnableObs attaches an observability registry to the environment and wires
// the shared layers into it: RPC outcome counters on the network, the
// kernel's run-queue depth, and the continuous-profiling hook that snapshots
// per-category cycle attribution ("profile.<platform>.<category>") at every
// sampling tick. Platform constructors add their own series when they see a
// non-nil env.Obs, so EnableObs must run before the platform is built — and
// after any env.Net replacement, since the network holds its own handles.
// The sampler itself starts when the caller invokes env.Obs.Start(env.K)
// (typically right before Run), so quiescent setup work is not sampled.
func (e *Env) EnableObs(cfg obs.Config) *obs.Registry {
	r := obs.NewRegistry(cfg)
	e.Obs = r
	e.Net.EnableMetrics(r)
	r.GaugeFunc("sim.runqueue.depth", func() int64 { return int64(e.K.PendingEvents()) })
	r.AttachProfile("profile.", func(emit func(name string, v int64)) {
		for _, plat := range taxonomy.Platforms() {
			e.Prof.EachCategoryCPU(plat, func(cat taxonomy.Category, cpu time.Duration) {
				emit(string(plat)+"."+string(cat), int64(cpu))
			})
		}
	})
	return r
}

// Step is one leaf-function CPU work item within a recipe.
type Step struct {
	Function string
	Mean     time.Duration
	Micro    profile.Micro
}

// Recipe is an ordered sequence of steps modeling one logical operation's
// CPU side.
type Recipe []Step

// TotalMean returns the sum of mean step durations.
func (r Recipe) TotalMean() time.Duration {
	var t time.Duration
	for _, s := range r {
		t += s.Mean
	}
	return t
}

// Scaled returns a copy of the recipe with all means multiplied by f.
func (r Recipe) Scaled(f float64) Recipe {
	out := make(Recipe, len(r))
	for i, s := range r {
		out[i] = s
		out[i].Mean = time.Duration(float64(s.Mean) * f)
	}
	return out
}

// Split maps leaf function names to fractional weights.
type Split map[string]float64

// BuildRecipe distributes a total CPU budget across functions according to
// split (weights are normalized), assigning each function the micro profile
// from micros (functions absent from micros get the zero profile). Steps are
// emitted in deterministic (sorted-by-name) order.
func BuildRecipe(total time.Duration, split Split, micros map[string]profile.Micro) Recipe {
	names := make([]string, 0, len(split))
	for fn := range split {
		names = append(names, fn)
	}
	sortStrings(names)
	// Normalize in sorted order so float rounding is identical across runs
	// (map iteration order would otherwise perturb the sum by an ulp).
	var sum float64
	for _, fn := range names {
		if split[fn] > 0 {
			sum += split[fn]
		}
	}
	if sum <= 0 {
		return nil
	}
	r := make(Recipe, 0, len(names))
	for _, fn := range names {
		if split[fn] <= 0 {
			continue
		}
		r = append(r, Step{
			Function: fn,
			Mean:     time.Duration(float64(total) * split[fn] / sum),
			Micro:    micros[fn],
		})
	}
	return r
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ExecStep runs one step on a node: it queues for a core, burns the
// (jittered) CPU time, releases the core, reports the work to the profiler,
// and annotates the trace with a CPU interval spanning queueing plus
// execution (time waiting for a local core is CPU time from the query's
// perspective, as in the paper's accounting).
func (e *Env) ExecStep(p *sim.Proc, plat taxonomy.Platform, node *netsim.Node, tr *trace.Trace, s Step) {
	start := p.Now()
	p.Acquire(node.CPU, 1)
	d := time.Duration(e.RNG.Jitter(float64(s.Mean), e.Jitter))
	if d < 0 {
		d = 0
	}
	p.Sleep(d)
	node.CPU.Release(1)
	e.Prof.Record(profile.Work{Platform: plat, Function: s.Function, Duration: d, Micro: s.Micro})
	tr.Annotate(start, p.Now(), trace.CPU)
}

// ExecRecipe runs every step of a recipe in order on the node.
func (e *Env) ExecRecipe(p *sim.Proc, plat taxonomy.Platform, node *netsim.Node, tr *trace.Trace, r Recipe) {
	for _, s := range r {
		e.ExecStep(p, plat, node, tr, s)
	}
}

// AnnotateIO marks a completed storage access on the trace, if any.
func AnnotateIO(tr *trace.Trace, start, end time.Duration) {
	tr.Annotate(start, end, trace.IO)
}

// AnnotateRemote marks a completed remote-work wait on the trace, if any.
func AnnotateRemote(tr *trace.Trace, start, end time.Duration) {
	tr.Annotate(start, end, trace.Remote)
}

// TaxTables carries a platform's calibrated datacenter- and system-tax
// splits, expressed over representative leaf functions whose names classify
// into the right taxonomy categories.
type TaxTables struct {
	DCT    Split
	ST     Split
	Micros map[string]profile.Micro
}

// TaxRecipe builds the tax portion of an operation: dctBudget across the
// datacenter-tax split and stBudget across the system-tax split.
func (t TaxTables) TaxRecipe(dctBudget, stBudget time.Duration) Recipe {
	r := BuildRecipe(dctBudget, t.DCT, t.Micros)
	return append(r, BuildRecipe(stBudget, t.ST, t.Micros)...)
}

// MicroFor replicates one micro profile across every function in the given
// splits, with per-category multipliers applied on top when provided. It is
// the standard way platforms attach Table 7 broad-class profiles to their
// function tables.
func MicroFor(base profile.Micro, fns ...string) map[string]profile.Micro {
	out := make(map[string]profile.Micro, len(fns))
	for _, fn := range fns {
		out[fn] = base
	}
	return out
}

// MergeMicros merges several micro maps; later maps win conflicts.
func MergeMicros(ms ...map[string]profile.Micro) map[string]profile.Micro {
	out := map[string]profile.Micro{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// Keys returns a split's function names (order unspecified).
func (s Split) Keys() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	return out
}
