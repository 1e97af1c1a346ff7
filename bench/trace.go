package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"hyperprof"
)

// span is one call the benchmark made into a layer.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Parent int    `json:"parent"` // index in the recorder's spans; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus the time its children cover
	Allocs uint64 `json:"allocs"`  // heap objects allocated while open
}

// recorder keeps spans in memory for the traced run. Spans nest as calls
// do: one goroutine, one open stack. Counts recorded at the same
// boundaries (operations, simulated time) sit beside them.
type recorder struct {
	t0     time.Time
	spans  []span
	open   []int
	counts map[string]float64
	sample []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{
		t0:     time.Now(),
		counts: map[string]float64{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

func (r *recorder) add(name string, v float64) { r.counts[name] += v }

func (r *recorder) allocs() uint64 {
	metrics.Read(r.sample)
	return r.sample[0].Value.Uint64()
}

// do records fn as one span of layer, nested under the innermost open span,
// and returns the span's index. A nil recorder just calls fn.
func (r *recorder) do(layer, name string, fn func()) int {
	if r == nil {
		fn()
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Layer: layer, Parent: parent})
	r.open = append(r.open, id)
	a0 := r.allocs()
	r.spans[id].Start = time.Since(r.t0).Nanoseconds()
	fn()
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	r.spans[id].Allocs = r.allocs() - a0
	r.open = r.open[:len(r.open)-1]
	return id
}

// finish computes every span's self time.
func (r *recorder) finish() []span {
	for i := range r.spans {
		r.spans[i].Self = r.spans[i].End - r.spans[i].Start
	}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			r.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	return r.spans
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// within reports whether span i is root or lies under it.
func within(spans []span, i, root int) bool {
	for ; i >= 0; i = spans[i].Parent {
		if i == root {
			return true
		}
	}
	return false
}

// under sums the seconds and allocations of the spans within root that
// match; a negative root (a call the run did not make) matches nothing.
func under(spans []span, root int, match func(span) bool) (secs float64, allocs uint64) {
	for i, s := range spans {
		if root >= 0 && within(spans, i, root) && match(s) {
			secs += s.seconds()
			allocs += s.Allocs
		}
	}
	return secs, allocs
}

func named(name string) func(span) bool { return func(s span) bool { return s.Name == name } }

func inLayer(layer string) func(span) bool { return func(s span) bool { return s.Layer == layer } }

// selfByLayer sums self time per layer over the given roots' spans, in
// seconds.
func selfByLayer(spans []span, roots ...int) map[string]float64 {
	out := map[string]float64{}
	for i, s := range spans {
		for _, root := range roots {
			if within(spans, i, root) {
				out[s.Layer] += float64(s.Self) / 1e9
			}
		}
	}
	return out
}

// tracedOut is what a traced child prints.
type tracedOut struct {
	Layers map[string]float64 `json:"layers"`
	// Split is self time per layer in seconds: over the composition when
	// the workload has one, else over the probe, the study call and its
	// export.
	Split  map[string]float64 `json:"split"`
	Spans  []span             `json:"spans"`
	Digest string             `json:"digest"`
	Err    string             `json:"err,omitempty"`
}

// runTraced is the traced child: the constructor probe, the composition,
// the untraced sequential reference call, and the end-to-end study call
// with its export, each under spans. The reference follows the composition
// so that neither pays for growing this fresh process's heap alone.
func runTraced(w *spec, seed uint64) tracedOut {
	fail := func(format string, args ...any) tracedOut { return tracedOut{Err: fmt.Sprintf(format, args...)} }
	rec := newRecorder()
	if err := probe(rec, seed); err != nil {
		return fail("probe: %v", err)
	}
	compose := -1
	var composed []byte
	if w.compose != nil {
		var err error
		compose = len(rec.spans)
		if composed, err = w.compose(rec, seed); err != nil {
			return fail("composition: %v", err)
		}
	}
	var ref call
	if w.overheadRef {
		var err error
		if ref, err = timedCall(w, seed, 1); err != nil {
			return fail("reference call: %v", err)
		}
	}
	var c call
	var art []byte
	var err error
	study := rec.do("experiments", "experiments.study", func() { c, err = timedCall(w, seed, 0) })
	if err != nil {
		return fail("study: %v", err)
	}
	export := rec.do("experiments", "experiments.export", func() { art, err = c.res.artifact() })
	if err != nil {
		return fail("export: %v", err)
	}
	if c.res.verdict != nil {
		return fail("verdict: %v", c.res.verdict)
	}
	if w.compose != nil {
		if c.res.composed == nil {
			return fail("study result has no composed form")
		}
		want, err := c.res.composed()
		if err != nil {
			return fail("study composed form: %v", err)
		}
		if got, want := digest(composed), digest(want); got != want {
			return fail("composed digest %s differs from the study's %s", got, want)
		}
	}
	spans := rec.finish()

	l := map[string]float64{}
	for _, m := range perLayer {
		l[m.Name] = 0
	}
	for _, p := range hyperprof.Platforms() {
		name := strings.ToLower(string(p))
		l[name+".new_s"], _ = under(spans, 0, named(name+".New"))
		l["sim."+name+"_run_s"], _ = under(spans, compose, named("sim.Kernel.Run/"+string(p)))
	}
	runS, runAllocs := under(spans, compose, inLayer("sim"))
	if ops := rec.counts["sim.ops"]; ops > 0 {
		l["sim.ops"] = ops
		l["sim.ns_per_op"] = runS * 1e9 / ops
		l["sim.allocs_per_op"] = float64(runAllocs) / ops
	}
	l["sim.virtual_s"] = rec.counts["sim.virtual_s"]
	l["platform.env_s"], _ = under(spans, compose, named("platform.NewEnv"))
	l["workload.launch_s"], _ = under(spans, compose, inLayer("workload"))
	l["experiments.extract_s"], _ = under(spans, compose, named("experiments.BuildReport"))
	l["experiments.study_s"] = c.wall()
	l["experiments.cpu_util"] = c.cpu() / (c.wall() * float64(runtime.GOMAXPROCS(0)))
	l["experiments.export_s"] = spans[export].seconds()
	l["experiments.export_bytes"] = float64(len(art))
	l["check.linearizability_s"], _ = under(spans, compose, named("check.CheckLinearizability"))
	l["check.external_s"], _ = under(spans, compose, named("check.CheckExternalConsistency"))
	l["check.invariants_s"], _ = under(spans, compose, named("check.Registry.Check"))
	l["check.history_ops"] = rec.counts["check.history_ops"]
	l["dispatch.coordinator_cpu_s"] = c.after.selfCPU - c.before.selfCPU
	l["dispatch.worker_cpu_s"] = c.after.childCPU - c.before.childCPU
	if total := c.after.totalCPU - c.before.totalCPU; total > 0 {
		l["runtime.gc_cpu_frac"] = (c.after.gcCPU - c.before.gcCPU) / total
	}
	l["runtime.gc_cycles"] = float64(c.after.gcCycles - c.before.gcCycles)
	if w.overheadRef {
		l["bench.trace_overhead_frac"] = spans[compose].seconds()/ref.wall() - 1
	}

	out := tracedOut{Layers: l, Spans: spans, Digest: digest(art)}
	if compose >= 0 {
		out.Split = selfByLayer(spans, compose)
	} else {
		out.Split = selfByLayer(spans, 0, study, export)
	}
	return out
}
