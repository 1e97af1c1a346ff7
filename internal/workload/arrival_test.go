package workload

import (
	"testing"
	"time"

	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
)

// discardRecorder drops every latency, so a run's allocations are the
// driver's own.
type discardRecorder struct{ stats.Summary }

func (*discardRecorder) Add(float64) {}

// instantOps is an operation source whose operations finish at once and
// allocate nothing.
func instantOps(env *platform.Env) *Ops {
	return probeOps(env, func(*stream) op { return op{} }, func(*sim.Proc, op) error { return nil })
}

// perArrivalAllocs returns the objects each arrival past the first n costs:
// the difference between a whole run of 2n arrivals and one of n, over n.
// Set-up and the arrival records' first allocations cancel out.
func perArrivalAllocs(n int, run func(n int)) float64 {
	one := testing.AllocsPerRun(3, func() { run(n) })
	two := testing.AllocsPerRun(3, func() { run(2 * n) })
	return (two - one) / float64(n)
}

// TestOpenLoopArrivalAllocFree pins the open-loop driver's steady-state
// arrival at 0 objects: its record comes from the driver's free list and its
// process from the kernel's.
func TestOpenLoopArrivalAllocFree(t *testing.T) {
	got := perArrivalAllocs(500, func(n int) {
		env := platform.NewEnv(90, 0)
		openLoop(instantOps(env), 1000, n, OpenLoopOpts{Latencies: &discardRecorder{}})
		env.K.Run()
	})
	if got != 0 {
		t.Fatalf("an open-loop arrival allocates %v objects, want 0", got)
	}
}

// TestOverloadArrivalAllocFree pins the overload driver's steady-state
// arrival at 0 objects. One accounting window covers both runs, so the
// window slice does not grow with the horizon. The longer run still
// allocates one object more in all (0.002 per arrival), a one-off of the
// run's length rather than of its arrivals; one object per arrival would read
// about 1.
func TestOverloadArrivalAllocFree(t *testing.T) {
	const rate = 1000
	got := perArrivalAllocs(500, func(n int) {
		env := platform.NewEnv(91, 0)
		Overload(OverloadConfig{
			Duration: time.Duration(n) * time.Second / rate,
			Window:   time.Hour,
			Tenants:  []OverloadTenant{{Name: "a", Weight: 1, RatePerSec: rate}},
		}, instantOps(env))
		env.K.Run()
	})
	if got >= 0.5 {
		t.Fatalf("an overload arrival allocates %v objects, want 0", got)
	}
}

// TestArrivalsAtOneInstantIssueTheirOwnDraw launches arrivals back to back
// from one process, before any of them has started: each must issue the op
// it was launched with, though the earlier ones' records are not yet free.
// A second burst, launched once the first has drained, reuses the records.
func TestArrivalsAtOneInstantIssueTheirOwnDraw(t *testing.T) {
	k := sim.New()
	var issued []int
	l := &arrivalList{k: k, name: "op", issue: func(p *sim.Proc, x op) {
		issued = append(issued, x.shard)
		p.Sleep(time.Millisecond)
	}}
	k.Go("arrivals", func(p *sim.Proc) {
		l.launch(op{shard: 1})
		l.launch(op{shard: 2})
		p.Sleep(10 * time.Millisecond)
		l.launch(op{shard: 3})
		l.launch(op{shard: 4})
		l.launch(op{shard: 5})
	})
	k.Run()
	want := []int{1, 2, 3, 4, 5}
	if len(issued) != len(want) {
		t.Fatalf("issued %v, want %v", issued, want)
	}
	for i := range want {
		if issued[i] != want[i] {
			t.Fatalf("issued %v, want %v", issued, want)
		}
	}
	depth := 0
	for a := l.free; a != nil; a = a.next {
		depth++
	}
	if depth != 3 {
		t.Fatalf("free list holds %d records after bursts of 2 and 3, want 3", depth)
	}
}
