package obs

import (
	"bytes"
	"testing"
	"time"

	"hyperprof/internal/sim"
)

func TestCounterGaugeSampling(t *testing.T) {
	r := NewRegistry(Config{})
	c := r.Counter("c")
	g := r.Gauge("g")
	level := int64(7)
	r.GaugeFunc("gf", func() int64 { return level })

	c.Add(3)
	c.Inc()
	g.Set(10)
	g.Add(-4)
	r.SampleAt(time.Millisecond)
	level = 9
	c.Inc()
	r.SampleAt(2 * time.Millisecond)

	snap := r.Snapshot()
	want := map[string][]Point{
		"c":  {{T: time.Millisecond, V: 4}, {T: 2 * time.Millisecond, V: 5}},
		"g":  {{T: time.Millisecond, V: 6}, {T: 2 * time.Millisecond, V: 6}},
		"gf": {{T: time.Millisecond, V: 7}, {T: 2 * time.Millisecond, V: 9}},
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d series, want %d", len(snap), len(want))
	}
	for _, s := range snap {
		pts, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected series %q", s.Name)
		}
		if len(s.Points) != len(pts) {
			t.Fatalf("%s: %d points, want %d", s.Name, len(s.Points), len(pts))
		}
		for i := range pts {
			if s.Points[i] != pts[i] {
				t.Errorf("%s[%d] = %+v, want %+v", s.Name, i, s.Points[i], pts[i])
			}
		}
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	r := NewRegistry(Config{})
	r.Counter("z").Inc()
	r.Counter("a").Inc()
	r.Gauge("m").Set(1)
	r.SampleAt(time.Millisecond)
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry(Config{Window: 16})
	h := r.Histogram("lat")
	// Record 1..10 out of order; nearest-rank p50 of n=10 is the 5th value,
	// p99 the 10th.
	for _, v := range []int64{10, 3, 7, 1, 9, 2, 8, 4, 6, 5} {
		h.Record(v)
	}
	r.SampleAt(time.Millisecond)
	// Window resets between ticks: a second interval with one observation.
	h.Record(42)
	r.SampleAt(2 * time.Millisecond)

	got := map[string][]Point{}
	for _, s := range r.Snapshot() {
		got[s.Name] = s.Points
	}
	if v := got["lat.p50"][0].V; v != 5 {
		t.Errorf("p50 = %d, want 5", v)
	}
	if v := got["lat.p99"][0].V; v != 10 {
		t.Errorf("p99 = %d, want 10", v)
	}
	if v := got["lat.max"][0].V; v != 10 {
		t.Errorf("max = %d, want 10", v)
	}
	if v := got["lat.count"][0].V; v != 10 {
		t.Errorf("count = %d, want 10", v)
	}
	if v := got["lat.p50"][1].V; v != 42 {
		t.Errorf("second-interval p50 = %d, want 42", v)
	}
	if v := got["lat.count"][1].V; v != 1 {
		t.Errorf("second-interval count = %d, want 1", v)
	}
	if _, ok := got["lat.dropped"]; ok {
		t.Error("dropped series present without overflow")
	}
}

func TestHistogramOverflowCountsDropped(t *testing.T) {
	r := NewRegistry(Config{Window: 4})
	h := r.Histogram("lat")
	for i := int64(0); i < 10; i++ {
		h.Record(i)
	}
	r.SampleAt(time.Millisecond)
	got := map[string][]Point{}
	for _, s := range r.Snapshot() {
		got[s.Name] = s.Points
	}
	if v := got["lat.count"][0].V; v != 4 {
		t.Errorf("count = %d, want 4 (window cap)", v)
	}
	if v := got["lat.dropped"][0].V; v != 6 {
		t.Errorf("dropped = %d, want 6", v)
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	r.GaugeFunc("gf", func() int64 { return 1 })
	r.AttachProfile("p.", func(emit func(string, int64)) { emit("x", 1) })
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	h.Record(1)
	h.RecordSince(0, time.Millisecond)
	r.SampleAt(time.Millisecond)
	r.Start(nil)
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
	if r.Interval() != 0 {
		t.Fatalf("nil registry interval = %v, want 0", r.Interval())
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate series name did not panic")
		}
	}()
	r := NewRegistry(Config{})
	r.Counter("dup")
	r.Gauge("dup")
}

func TestProfileSourceEmitsDynamicSeries(t *testing.T) {
	r := NewRegistry(Config{})
	cats := []struct {
		name string
		v    int64
	}{{"compute", 100}}
	r.AttachProfile("profile.", func(emit func(string, int64)) {
		for _, c := range cats {
			emit(c.name, c.v)
		}
	})
	r.SampleAt(time.Millisecond)
	// A new category appears mid-run, as a real continuous profiler would see.
	cats = append(cats, struct {
		name string
		v    int64
	}{"rpc", 50})
	cats[0].v = 150
	r.SampleAt(2 * time.Millisecond)

	got := map[string][]Point{}
	for _, s := range r.Snapshot() {
		if s.Kind != "gauge" {
			t.Errorf("profile series %s kind = %q, want gauge", s.Name, s.Kind)
		}
		got[s.Name] = s.Points
	}
	if n := len(got["profile.compute"]); n != 2 {
		t.Fatalf("profile.compute has %d points, want 2", n)
	}
	if v := got["profile.compute"][1].V; v != 150 {
		t.Errorf("profile.compute final = %d, want 150", v)
	}
	if n := len(got["profile.rpc"]); n != 1 {
		t.Fatalf("profile.rpc has %d points, want 1", n)
	}
}

// TestSamplerTicksOnKernel runs the sampler against a real kernel: ticks
// land every Interval while work is pending, a final sample fires when the
// queue drains, and the kernel terminates normally.
func TestSamplerTicksOnKernel(t *testing.T) {
	k := sim.New()
	r := NewRegistry(Config{Interval: time.Millisecond})
	c := r.Counter("ops")
	k.Go("worker", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			c.Inc()
		}
	})
	r.Start(k)
	end := k.Run()
	if end < 5*time.Millisecond {
		t.Fatalf("kernel ended at %v, want >= 5ms", end)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d series, want 1", len(snap))
	}
	pts := snap[0].Points
	if len(pts) < 5 {
		t.Fatalf("sampler took %d samples, want >= 5", len(pts))
	}
	if final := pts[len(pts)-1].V; final != 5 {
		t.Errorf("final counter sample = %d, want 5", final)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			t.Fatalf("samples not strictly time-ordered: %v then %v", pts[i-1].T, pts[i].T)
		}
	}
}

func TestMarshalSeriesDeterministic(t *testing.T) {
	mk := func() []byte {
		r := NewRegistry(Config{})
		r.Counter("a").Add(2)
		r.Gauge("b").Set(3)
		r.SampleAt(time.Millisecond)
		data, err := MarshalSeries(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := mk(), mk(); !bytes.Equal(a, b) {
		t.Fatalf("marshal not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// The record paths must not allocate: they run on every simulated RPC,
// storage read and latency measurement.
func TestRecordPathsDoNotAllocate(t *testing.T) {
	r := NewRegistry(Config{Window: 1 << 16})
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Record(5) }); n != 0 {
		t.Errorf("Histogram.Record allocates %.1f/op, want 0", n)
	}
	var nilC *Counter
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilC.Inc() }); n != 0 {
		t.Errorf("nil Counter.Inc allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { nilH.Record(5) }); n != 0 {
		t.Errorf("nil Histogram.Record allocates %.1f/op, want 0", n)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry(Config{})
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	r := NewRegistry(Config{Window: 1024})
	h := r.Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
		if i%1024 == 1023 {
			b.StopTimer()
			h.tick(time.Duration(i))
			b.StartTimer()
		}
	}
}
