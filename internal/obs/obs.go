// Package obs is the simulation's always-on observability plane: a
// deterministic, sim-clock-driven metrics registry (counters, gauges,
// windowed histograms with exact quantiles) plus a continuous-profiling hook
// that snapshots per-category cycle attribution at a configurable sampling
// interval — Google-Wide Profiling run *inside* the simulation rather than
// over it.
//
// Design rules (see DESIGN.md §9):
//
//   - Virtual time only. Samples are taken by a kernel-scheduled tick, so a
//     series is a pure function of the simulated history and is byte-identical
//     between sequential and parallel experiment runs.
//   - Integer values only. Points carry int64 values (counts, bytes,
//     nanoseconds); no float enters the export path, so there is no
//     accumulation-order sensitivity to hide.
//   - Allocation-lean fast path. Counter.Add, Gauge.Add and
//     Histogram.Record are a nil check plus a field write (histograms append
//     into a preallocated fixed-capacity buffer). A disabled registry hands
//     out nil handles whose methods are no-ops, so instrumented code pays one
//     predictable branch when observability is off.
package obs

import (
	"sort"
	"time"
)

// Config sizes the observability plane.
type Config struct {
	// Interval is the virtual-time sampling period of the metrics plane: how
	// often every series emits a point and the profiling hook snapshots cycle
	// attribution.
	Interval time.Duration
	// Window caps how many raw observations a histogram holds between
	// samples; observations past the cap within one interval are counted in
	// the ".dropped" series rather than silently lost.
	Window int
}

// DefaultConfig returns the standard sampling setup: 1ms virtual-time
// resolution with 1024-observation histogram windows.
func DefaultConfig() Config {
	return Config{Interval: time.Millisecond, Window: 1024}
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 1024
	}
	return c
}

// Point is one sample: the virtual time it was taken and an integer value.
type Point struct {
	T time.Duration `json:"t"`
	V int64         `json:"v"`
}

// Series is one exported time series.
type Series struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"` // "counter", "gauge" or "histogram"
	Points []Point `json:"points"`
}

// Counter is a monotonically increasing count. A nil Counter is valid and
// Add on it is a no-op, so instrumentation sites never need to know whether
// observability is enabled.
type Counter struct {
	name string
	v    int64
	pts  []Point
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is an instantaneous level (queue depth, active workers). A nil Gauge
// is valid; Add on it is a no-op.
type Gauge struct {
	name string
	v    int64
	fn   func() int64 // non-nil for GaugeFunc-backed gauges
	pts  []Point
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v += delta
}

// Histogram collects raw integer observations (typically latency
// nanoseconds) over each sampling interval and emits windowed quantiles —
// p50, p99, max — plus the observation count at every tick. Quantiles are
// exact over the window. A nil Histogram is valid; Record on it is a no-op.
type Histogram struct {
	name string
	// buf is preallocated to the window capacity; Record appends in place and
	// never grows it, so the record path performs zero allocations.
	buf     []int64
	dropped int64 // observations past the window within one interval

	p50, p99, max, count, drop []Point // per-tick derived series
}

// Record adds one observation to the current window.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if len(h.buf) < cap(h.buf) {
		h.buf = append(h.buf, v)
	} else {
		h.dropped++
	}
}

// RecordSince records the elapsed virtual time from start to now in
// nanoseconds — the standard latency-histogram call shape.
func (h *Histogram) RecordSince(start, now time.Duration) {
	h.Record(int64(now - start))
}

// profileSource is one attached continuous-profiling hook: at every tick,
// each invokes emit once per (name, value) pair in a deterministic order,
// and the registry appends the value to the dynamic series prefix+name.
type profileSource struct {
	prefix string
	each   func(emit func(name string, v int64))
	series map[string]*Gauge // dynamic series by suffix
	order  []string          // creation order, for deterministic ticking
}

// Registry owns every series of one simulation environment. A nil *Registry
// is a valid disabled plane: constructors return nil handles and Snapshot
// returns nil.
type Registry struct {
	cfg      Config
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	profiles []*profileSource
	byName   map[string]bool
}

// NewRegistry creates a registry with the given sampling config (zero fields
// take defaults).
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg.withDefaults(), byName: map[string]bool{}}
}

func (r *Registry) claim(name string) {
	if r.byName[name] {
		panic("obs: duplicate series name " + name)
	}
	r.byName[name] = true
}

// Counter registers and returns a counter series. On a nil registry it
// returns nil (a valid no-op handle).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.claim(name)
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// Gauge registers and returns a gauge series. On a nil registry it returns
// nil (a valid no-op handle).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.claim(name)
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, g)
	return g
}

// GaugeFunc registers a gauge whose value is pulled from fn at every sample
// tick (run-queue depth, apply lag — levels owned by someone else).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.claim(name)
	r.gauges = append(r.gauges, &Gauge{name: name, fn: fn})
}

// Histogram registers and returns a windowed histogram series. On a nil
// registry it returns nil (a valid no-op handle).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.claim(name + ".p50")
	h := &Histogram{name: name, buf: make([]int64, 0, r.cfg.Window)}
	r.hists = append(r.hists, h)
	return h
}

// AttachProfile registers a continuous-profiling source: at every sampling
// tick, each is invoked and must call emit once per (name, value) pair in a
// deterministic order. Series named prefix+name are created on first
// emission, so the set of profile series grows as the simulation discovers
// categories — exactly how a production continuous profiler behaves.
func (r *Registry) AttachProfile(prefix string, each func(emit func(name string, v int64))) {
	if r == nil {
		return
	}
	r.profiles = append(r.profiles, &profileSource{
		prefix: prefix,
		each:   each,
		series: map[string]*Gauge{},
	})
}

// sample records one point on every series at virtual time t. Called by the
// kernel-scheduled sampler tick (see sampler.go).
func (r *Registry) sample(t time.Duration) {
	for _, c := range r.counters {
		c.pts = append(c.pts, Point{T: t, V: c.v})
	}
	for _, g := range r.gauges {
		v := g.v
		if g.fn != nil {
			v = g.fn()
		}
		g.pts = append(g.pts, Point{T: t, V: v})
	}
	for _, h := range r.hists {
		h.tick(t)
	}
	for _, ps := range r.profiles {
		ps.each(func(name string, v int64) {
			g := ps.series[name]
			if g == nil {
				g = &Gauge{name: ps.prefix + name}
				ps.series[name] = g
				ps.order = append(ps.order, name)
			}
			g.pts = append(g.pts, Point{T: t, V: v})
		})
	}
}

// tick closes the current histogram window: it sorts the buffered
// observations in place, emits the derived quantile points, and resets the
// window for the next interval.
func (h *Histogram) tick(t time.Duration) {
	n := len(h.buf)
	if n > 0 {
		sort.Slice(h.buf, func(i, j int) bool { return h.buf[i] < h.buf[j] })
		h.p50 = append(h.p50, Point{T: t, V: h.buf[quantileIndex(n, 50)]})
		h.p99 = append(h.p99, Point{T: t, V: h.buf[quantileIndex(n, 99)]})
		h.max = append(h.max, Point{T: t, V: h.buf[n-1]})
	}
	h.count = append(h.count, Point{T: t, V: int64(n)})
	if h.dropped > 0 {
		h.drop = append(h.drop, Point{T: t, V: h.dropped})
	}
	h.buf = h.buf[:0]
	h.dropped = 0
}

// quantileIndex returns the index of the q-th percentile (nearest-rank) in a
// sorted slice of length n > 0.
func quantileIndex(n, q int) int {
	i := (n*q + 99) / 100 // ceil(n*q/100)
	if i < 1 {
		i = 1
	}
	return i - 1
}

// Snapshot returns every series with at least one point, sorted by name.
// Histograms expand into their derived ".p50"/".p99"/".max"/".count" (and,
// when overflow occurred, ".dropped") series. On a nil registry it returns
// nil.
func (r *Registry) Snapshot() []Series {
	if r == nil {
		return nil
	}
	var out []Series
	for _, c := range r.counters {
		if len(c.pts) > 0 {
			out = append(out, Series{Name: c.name, Kind: "counter", Points: c.pts})
		}
	}
	for _, g := range r.gauges {
		if len(g.pts) > 0 {
			out = append(out, Series{Name: g.name, Kind: "gauge", Points: g.pts})
		}
	}
	for _, h := range r.hists {
		for _, d := range []struct {
			suffix string
			pts    []Point
		}{
			{".p50", h.p50}, {".p99", h.p99}, {".max", h.max},
			{".count", h.count}, {".dropped", h.drop},
		} {
			if len(d.pts) > 0 {
				out = append(out, Series{Name: h.name + d.suffix, Kind: "histogram", Points: d.pts})
			}
		}
	}
	for _, ps := range r.profiles {
		for _, name := range ps.order {
			g := ps.series[name]
			if len(g.pts) > 0 {
				out = append(out, Series{Name: g.name, Kind: "gauge", Points: g.pts})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
