// Package profile is the repository's Google-Wide-Profiling equivalent
// (§5.1): it observes the CPU work simulated platforms execute, buckets it
// by leaf function through the taxonomy classifier, and aggregates cycle
// breakdowns (Figures 3–6) and microarchitectural statistics (Tables 6–7).
package profile

import (
	"sort"
	"time"

	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
)

// Micro is a per-function microarchitecture profile: instructions per cycle
// and misses per kilo-instruction for the six counters of Tables 6–7.
type Micro struct {
	IPC    float64
	BR     float64 // branch MPKI
	L1I    float64
	L2I    float64
	LLC    float64
	ITLB   float64
	DTLBLD float64
}

// Work is one unit of CPU execution reported by a platform: a leaf function
// that ran for Duration of CPU time with the given microarchitectural
// behaviour.
type Work struct {
	Platform taxonomy.Platform
	Function string
	Duration time.Duration
	Micro    Micro
}

// agg accumulates cycle- and instruction-weighted counter totals.
type agg struct {
	cpu    time.Duration
	instr  float64 // total instructions
	misses [6]float64
}

func (a *agg) add(cycles float64, m Micro, w time.Duration) {
	a.cpu += w
	in := cycles * m.IPC
	a.instr += in
	for i, mpki := range [6]float64{m.BR, m.L1I, m.L2I, m.LLC, m.ITLB, m.DTLBLD} {
		a.misses[i] += in * mpki / 1000
	}
}

// Stats is an aggregated microarchitecture report (one row of Table 6 or 7).
type Stats struct {
	CPU time.Duration
	Micro
}

func (a *agg) stats(hz float64) Stats {
	s := Stats{CPU: a.cpu}
	cycles := a.cpu.Seconds() * hz
	if cycles > 0 {
		s.IPC = a.instr / cycles
	}
	if a.instr > 0 {
		k := 1000 / a.instr
		s.BR = a.misses[0] * k
		s.L1I = a.misses[1] * k
		s.L2I = a.misses[2] * k
		s.LLC = a.misses[3] * k
		s.ITLB = a.misses[4] * k
		s.DTLBLD = a.misses[5] * k
	}
	return s
}

type key struct {
	platform taxonomy.Platform
	category taxonomy.Category
}

// Profiler collects and aggregates Work reports.
type Profiler struct {
	classifier *taxonomy.Classifier
	rng        *stats.RNG
	hz         float64
	jitter     float64 // relative noise applied per sample to counters

	byCategory map[key]*agg
	byFunction map[taxonomy.Platform]map[string]*agg
}

// Option configures a Profiler.
type Option func(*Profiler)

// WithJitter applies relative noise frac to each sample's counters, modelling
// measurement variance.
func WithJitter(frac float64) Option {
	return func(p *Profiler) { p.jitter = frac }
}

// New creates a profiler using the given classifier (nil for the fleet
// default) and seed.
func New(classifier *taxonomy.Classifier, seed uint64, opts ...Option) *Profiler {
	if classifier == nil {
		classifier = taxonomy.NewClassifier()
	}
	p := &Profiler{
		classifier: classifier,
		rng:        stats.NewRNG(seed),
		hz:         2e9,
		byCategory: map[key]*agg{},
		byFunction: map[taxonomy.Platform]map[string]*agg{},
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Classifier exposes the profiler's classifier so platforms can register
// their function tables.
func (p *Profiler) Classifier() *taxonomy.Classifier { return p.classifier }

// Record reports one unit of CPU work.
func (p *Profiler) Record(w Work) {
	if w.Duration <= 0 {
		return
	}
	m := w.Micro
	if p.jitter > 0 {
		m.IPC = p.rng.Jitter(m.IPC, p.jitter)
		m.BR = p.rng.Jitter(m.BR, p.jitter)
		m.L1I = p.rng.Jitter(m.L1I, p.jitter)
		m.L2I = p.rng.Jitter(m.L2I, p.jitter)
		m.LLC = p.rng.Jitter(m.LLC, p.jitter)
		m.ITLB = p.rng.Jitter(m.ITLB, p.jitter)
		m.DTLBLD = p.rng.Jitter(m.DTLBLD, p.jitter)
	}
	cat := p.classifier.Classify(w.Function)
	cycles := w.Duration.Seconds() * p.hz

	k := key{w.Platform, cat}
	a := p.byCategory[k]
	if a == nil {
		a = &agg{}
		p.byCategory[k] = a
	}
	a.add(cycles, m, w.Duration)

	fns := p.byFunction[w.Platform]
	if fns == nil {
		fns = map[string]*agg{}
		p.byFunction[w.Platform] = fns
	}
	fa := fns[w.Function]
	if fa == nil {
		fa = &agg{}
		fns[w.Function] = fa
	}
	fa.add(cycles, m, w.Duration)
}

// BroadBreakdown returns the fraction of a platform's cycles in each broad
// class (the content of Figure 3).
func (p *Profiler) BroadBreakdown(platform taxonomy.Platform) map[taxonomy.Broad]float64 {
	// Accumulate integer durations first: Duration addition is associative, so
	// the totals are identical regardless of map iteration order, and the
	// float conversion happens once per key.
	cpu := map[taxonomy.Broad]time.Duration{}
	for k, a := range p.byCategory {
		if k.platform == platform {
			cpu[taxonomy.BroadOf(k.category)] += a.cpu
		}
	}
	w := make(map[taxonomy.Broad]float64, len(cpu))
	for b, d := range cpu {
		w[b] = d.Seconds()
	}
	return stats.Fractions(w)
}

// CategoryBreakdown returns, for one platform and broad class, each fine
// category's fraction of that class's cycles (the content of Figures 4–6).
func (p *Profiler) CategoryBreakdown(platform taxonomy.Platform, broad taxonomy.Broad) map[taxonomy.Category]float64 {
	cpu := map[taxonomy.Category]time.Duration{}
	for k, a := range p.byCategory {
		if k.platform == platform && taxonomy.BroadOf(k.category) == broad {
			cpu[k.category] += a.cpu
		}
	}
	w := make(map[taxonomy.Category]float64, len(cpu))
	for c, d := range cpu {
		w[c] = d.Seconds()
	}
	return stats.Fractions(w)
}

// sortedKeys returns the byCategory keys for one platform in category order.
// The instruction and miss totals are float64, and float addition is not
// associative, so summing in Go's randomized map order would drift by an ulp
// between otherwise identical runs. A fixed order makes the stats bit-exact.
func (p *Profiler) sortedKeys(platform taxonomy.Platform) []key {
	var ks []key
	for k := range p.byCategory {
		if k.platform == platform {
			ks = append(ks, k)
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].category < ks[j].category })
	return ks
}

// EachCategoryCPU invokes emit for every taxonomy category the platform has
// accumulated CPU time in, in ascending category order. It is the
// continuous-profiling hook: the obs sampling tick calls it to snapshot the
// live per-category cycle attribution, so the deterministic iteration order
// here directly determines the obs series creation order.
func (p *Profiler) EachCategoryCPU(platform taxonomy.Platform, emit func(cat taxonomy.Category, cpu time.Duration)) {
	for _, k := range p.sortedKeys(platform) {
		emit(k.category, p.byCategory[k].cpu)
	}
}

// PlatformStats returns the platform-wide microarchitecture statistics
// (one column of Table 6).
func (p *Profiler) PlatformStats(platform taxonomy.Platform) Stats {
	var total agg
	for _, k := range p.sortedKeys(platform) {
		a := p.byCategory[k]
		total.cpu += a.cpu
		total.instr += a.instr
		for i := range total.misses {
			total.misses[i] += a.misses[i]
		}
	}
	return total.stats(p.hz)
}

// BroadStats returns per-broad-class microarchitecture statistics (one
// platform's columns of Table 7).
func (p *Profiler) BroadStats(platform taxonomy.Platform) map[taxonomy.Broad]Stats {
	accs := map[taxonomy.Broad]*agg{}
	for _, k := range p.sortedKeys(platform) {
		a := p.byCategory[k]
		b := taxonomy.BroadOf(k.category)
		t := accs[b]
		if t == nil {
			t = &agg{}
			accs[b] = t
		}
		t.cpu += a.cpu
		t.instr += a.instr
		for i := range t.misses {
			t.misses[i] += a.misses[i]
		}
	}
	out := map[taxonomy.Broad]Stats{}
	for b, a := range accs {
		out[b] = a.stats(p.hz)
	}
	return out
}

// FunctionCPU is one row of a hot-function report.
type FunctionCPU struct {
	Function string
	Category taxonomy.Category
	CPU      time.Duration
}

// TopFunctions returns the n hottest leaf functions for a platform by CPU
// time, descending; ties break by name for determinism.
func (p *Profiler) TopFunctions(platform taxonomy.Platform, n int) []FunctionCPU {
	var rows []FunctionCPU
	for fn, a := range p.byFunction[platform] {
		rows = append(rows, FunctionCPU{Function: fn, Category: p.classifier.Classify(fn), CPU: a.cpu})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].CPU != rows[j].CPU {
			return rows[i].CPU > rows[j].CPU
		}
		return rows[i].Function < rows[j].Function
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}
