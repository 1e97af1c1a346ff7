package workload

import (
	"testing"
	"time"

	"hyperprof/internal/netsim"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/spanner"
	"hyperprof/internal/stats"
	"hyperprof/internal/trace"
)

// probeOps is a single-kind operation source for driver tests: draw makes
// each operation's parameters on the driver's stream, and run executes it.
func probeOps(env *platform.Env, draw func(s *stream) op, run func(p *sim.Proc, x op) error) *Ops {
	return &Ops{
		env:     env,
		name:    "probe",
		weights: []float64{1},
		draw:    draw,
		call:    func(p *sim.Proc, _ *trace.Trace, x op, _ []byte) error { return run(p, x) },
	}
}

// arrivalTrace drives the open-loop helper with an instantaneous no-op
// operation and returns the arrival instants, exposing the arrival process
// itself for shape assertions.
func arrivalTrace(t *testing.T, seed uint64, rate float64, total int, opts OpenLoopOpts) []time.Duration {
	t.Helper()
	env := platform.NewEnv(seed, 1)
	var arrivals []time.Duration
	res := openLoop(probeOps(env, func(*stream) op { return op{} }, func(p *sim.Proc, _ op) error {
		arrivals = append(arrivals, p.Now())
		return nil
	}), rate, total, opts)
	env.K.Run()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != total {
		t.Fatalf("recorded %d arrivals, want %d", len(arrivals), total)
	}
	return arrivals
}

// dispersion returns the variance-to-mean ratio of per-window arrival
// counts — 1 for Poisson, > 1 for bursty traffic.
func dispersion(arrivals []time.Duration, window time.Duration) float64 {
	last := arrivals[len(arrivals)-1]
	counts := make([]float64, int(last/window)+1)
	for _, a := range arrivals {
		counts[int(a/window)]++
	}
	var mean float64
	for _, c := range counts {
		mean += c
	}
	mean /= float64(len(counts))
	var varsum float64
	for _, c := range counts {
		varsum += (c - mean) * (c - mean)
	}
	return varsum / float64(len(counts)) / mean
}

// TestArrivalShapeDeterminism pins the satellite requirement: a shaped run
// is a pure function of the seed — identical arrival instants on replay,
// different instants under a different seed.
func TestArrivalShapeDeterminism(t *testing.T) {
	opts := OpenLoopOpts{Shape: ArrivalShape{Burst: true, Diurnal: true}}
	a := arrivalTrace(t, 7, 4000, 2000, opts)
	b := arrivalTrace(t, 7, 4000, 2000, opts)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := arrivalTrace(t, 8, 4000, 2000, opts)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical shaped arrivals")
	}
}

// TestArrivalShapeBurstIsBurstier checks the Pareto on–off envelope
// actually produces over-dispersed (self-similar-style) arrivals while
// preserving the configured mean rate.
func TestArrivalShapeBurstIsBurstier(t *testing.T) {
	const rate, total = 4000.0, 4000
	plain := arrivalTrace(t, 11, rate, total, OpenLoopOpts{})
	burst := arrivalTrace(t, 11, rate, total, OpenLoopOpts{Shape: ArrivalShape{Burst: true}})

	window := 20 * time.Millisecond
	dPlain, dBurst := dispersion(plain, window), dispersion(burst, window)
	if dBurst < 2*dPlain {
		t.Fatalf("burst dispersion %.2f not clearly above Poisson dispersion %.2f", dBurst, dPlain)
	}

	// The OFF-multiplier compensation keeps the long-run rate in the right
	// ballpark. Convergence of the time-average is slow by construction —
	// infinite-variance period lengths are what make the aggregate
	// self-similar — so this is a coarse corridor, not an equality: the
	// makespan must stay within ~3x of the unshaped run (the envelope peaks
	// at 4x, so an uncompensated envelope would approach that bound over a
	// run that starts ON).
	mPlain, mBurst := plain[len(plain)-1], burst[len(burst)-1]
	if mBurst > 3*mPlain || mBurst < mPlain/3 {
		t.Fatalf("burst makespan %v vs plain %v: mean rate not even coarsely preserved", mBurst, mPlain)
	}
}

// TestArrivalShapeDiurnalFollowsEnvelope checks the sinusoidal envelope:
// with a full period spanning the run, the rising half-period must receive
// more arrivals than the falling one.
func TestArrivalShapeDiurnalFollowsEnvelope(t *testing.T) {
	shape := ArrivalShape{Diurnal: true, DiurnalAmp: 0.9, DiurnalPeriod: time.Second}
	arrivals := arrivalTrace(t, 13, 4000, 3000, OpenLoopOpts{Shape: shape})
	var high, low int
	for _, a := range arrivals {
		phase := a % time.Second
		if phase < 500*time.Millisecond {
			high++ // sin positive: above-mean rate
		} else {
			low++ // sin negative: below-mean rate
		}
	}
	if high <= low*2 {
		t.Fatalf("arrivals high-half=%d low-half=%d: diurnal envelope not expressed", high, low)
	}
}

// TestOpenLoopSketchRecorder checks the Recorder override: a sketch-backed
// open-loop run records every latency into the sketch instead of an exact
// summary.
func TestOpenLoopSketchRecorder(t *testing.T) {
	env := platform.NewEnv(17, 1)
	sk := stats.NewSketch(0.01)
	ops := probeOps(env, func(s *stream) op { return op{shard: 1 + s.rng.Intn(1000)} }, func(p *sim.Proc, x op) error {
		p.Sleep(time.Duration(x.shard) * time.Microsecond)
		return nil
	})
	res := openLoop(ops, 2000, 500, OpenLoopOpts{Latencies: sk})
	env.K.Run()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if sk.N() != 500 {
		t.Fatalf("sketch recorded %d latencies, want 500", sk.N())
	}
	if res.Latencies != stats.Recorder(sk) {
		t.Fatal("result does not expose the caller's recorder")
	}
	if p50 := sk.Quantile(0.5); p50 <= 0 || p50 > 0.0012 {
		t.Fatalf("sketch p50 %.6fs outside the sleep range", p50)
	}
}

// closedLoopElapsed runs a shaped closed-loop Spanner workload and returns
// its drain time.
func closedLoopElapsed(t *testing.T, seed uint64, opts ClosedLoopOpts) time.Duration {
	t.Helper()
	env := platform.NewEnv(seed, 1)
	env.Net = netsim.New(env.K, spanner.RecommendedNetConfig())
	db, err := spanner.New(env, spanner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := Spanner(env, db, DefaultSpannerMix(), 4, 200, opts)
	env.K.Run()
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	if run.Completed != 200 {
		t.Fatalf("completed = %d", run.Completed)
	}
	var at time.Duration
	// Done has fired; the kernel's final event time bounds the drain, so use
	// the trace horizon instead: the last finished operation's end.
	for _, tr := range env.Tracer.Sampled() {
		if tr.End > at {
			at = tr.End
		}
	}
	return at
}

// TestClosedLoopShapeDeterministicAndDistinct pins the satellite wiring for
// the closed-loop drivers: a shaped run replays bit-identically under the
// same seed, and shaping actually changes the schedule relative to the
// legacy homogeneous think times.
func TestClosedLoopShapeDeterministicAndDistinct(t *testing.T) {
	shaped := ClosedLoopOpts{Shape: ArrivalShape{Burst: true, Diurnal: true}}
	a := closedLoopElapsed(t, 21, shaped)
	b := closedLoopElapsed(t, 21, shaped)
	if a != b {
		t.Fatalf("shaped closed-loop run not deterministic: %v vs %v", a, b)
	}
	plain := closedLoopElapsed(t, 21, ClosedLoopOpts{})
	if plain == a {
		t.Fatalf("shaping had no effect on the closed-loop schedule (both drained at %v)", a)
	}
}
