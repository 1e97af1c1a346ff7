package workload

import (
	"errors"
	"testing"
	"time"

	"hyperprof/internal/netsim"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
)

// sleepOps returns an operation source whose operations take d of virtual
// time; every fifth operation (by its drawn parameter) fails.
func sleepOps(env *platform.Env, d time.Duration) *Ops {
	return probeOps(env, func(s *stream) op { return op{shard: s.rng.Intn(5)} }, func(p *sim.Proc, x op) error {
		p.Sleep(d)
		if x.shard == 0 {
			return errors.New("probe failure")
		}
		return nil
	})
}

func TestOverloadTotalsMatchWindows(t *testing.T) {
	env := platform.NewEnv(80, 1)
	gov := netsim.NewTenantGovernor(4)
	run := Overload(OverloadConfig{
		Duration: 500 * time.Millisecond,
		Window:   50 * time.Millisecond,
		Tenants: []OverloadTenant{
			{Name: "a", Weight: 3, RatePerSec: 400},
			{Name: "b", Weight: 1, RatePerSec: 300},
		},
		Governor: gov,
	}, sleepOps(env, 5*time.Millisecond))
	env.K.Run()
	if !run.Done.Fired() {
		t.Fatal("done signal not fired")
	}
	var win OverloadWindow
	for _, w := range run.Windows {
		win.Arrivals += w.Arrivals
		win.Successes += w.Successes
		win.Failures += w.Failures
		win.Throttled += w.Throttled
	}
	arrivals, successes, failures, throttled := run.Totals()
	if arrivals != win.Arrivals || successes != win.Successes || failures != win.Failures || throttled != win.Throttled {
		t.Fatalf("tenant totals %d/%d/%d/%d, window sums %d/%d/%d/%d",
			arrivals, successes, failures, throttled, win.Arrivals, win.Successes, win.Failures, win.Throttled)
	}
	if successes == 0 || failures == 0 || throttled == 0 {
		t.Fatalf("fixture exercised too little: successes=%d failures=%d throttled=%d", successes, failures, throttled)
	}
	if successes+failures+throttled != arrivals {
		t.Fatalf("%d arrivals, but %d completions and %d throttles", arrivals, successes+failures, throttled)
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}

func TestOverloadSetRateMult(t *testing.T) {
	env := platform.NewEnv(81, 1)
	run := Overload(OverloadConfig{
		Duration: time.Second,
		Tenants: []OverloadTenant{
			{Name: "steady", RatePerSec: 200},
			{Name: "surge", RatePerSec: 200},
		},
	}, sleepOps(env, time.Millisecond))
	run.SetRateMult("ghost", 4)
	if _, ok := run.mult["ghost"]; ok {
		t.Fatal("unknown tenant was given a rate multiplier")
	}
	run.SetRateMult("surge", 4)
	env.K.Go("restore", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		run.SetRateMult("surge", 0)
	})
	env.K.Run()
	if m := run.mult["surge"]; m != 1 {
		t.Fatalf("mult <= 0 left surge at %v, want the base rate", m)
	}
	steady, surge := run.Tenants[0].Arrivals, run.Tenants[1].Arrivals
	// Half the run at 4x and half at 1x is 2.5x the steady tenant.
	if surge < 2*steady || surge > 3*steady {
		t.Fatalf("surge tenant %d arrivals vs steady %d: want about 2.5x", surge, steady)
	}
}

func TestOverloadZeroRateTenant(t *testing.T) {
	env := platform.NewEnv(82, 1)
	run := Overload(OverloadConfig{
		Duration: 200 * time.Millisecond,
		Tenants: []OverloadTenant{
			{Name: "busy", RatePerSec: 300},
			{Name: "idle"},
		},
	}, sleepOps(env, time.Millisecond))
	env.K.Run()
	if !run.Done.Fired() {
		t.Fatal("done signal not fired")
	}
	if busy, idle := run.Tenants[0], run.Tenants[1]; busy.Arrivals == 0 || idle.Arrivals != 0 {
		t.Fatalf("busy=%d idle=%d arrivals", busy.Arrivals, idle.Arrivals)
	}
}

func TestOverloadThrottlesCountedAtArrival(t *testing.T) {
	env := platform.NewEnv(83, 1)
	gov := netsim.NewTenantGovernor(1)
	// Operations outlast the whole horizon, so the one admitted operation
	// completes after every arrival, and every other arrival is throttled.
	run := Overload(OverloadConfig{
		Duration: 300 * time.Millisecond,
		Window:   50 * time.Millisecond,
		Tenants:  []OverloadTenant{{Name: "solo", RatePerSec: 200}},
		Governor: gov,
	}, sleepOps(env, time.Second))
	env.K.Run()
	st := run.Tenants[0]
	if st.Throttled != st.Arrivals-1 || gov.ThrottledTotal != st.Throttled {
		t.Fatalf("arrivals=%d throttled=%d governor throttled=%d", st.Arrivals, st.Throttled, gov.ThrottledTotal)
	}
	for i, w := range run.Windows {
		if w.Start >= 300*time.Millisecond {
			if w.Arrivals != 0 || w.Throttled != 0 {
				t.Fatalf("window %d after the horizon has %d arrivals, %d throttles", i, w.Arrivals, w.Throttled)
			}
			continue
		}
		if w.Throttled == 0 || w.Throttled > w.Arrivals {
			t.Fatalf("window %d: %d throttles of %d arrivals", i, w.Throttled, w.Arrivals)
		}
	}
}

func TestOverloadDefaultWindow(t *testing.T) {
	env := platform.NewEnv(84, 1)
	run := Overload(OverloadConfig{
		Duration: 450 * time.Millisecond,
		Tenants:  []OverloadTenant{{Name: "t", RatePerSec: 500}},
	}, sleepOps(env, time.Millisecond))
	env.K.Run()
	if len(run.Windows) != 5 {
		t.Fatalf("%d windows over 450ms, want 5 of 100ms", len(run.Windows))
	}
	for i, w := range run.Windows {
		if want := time.Duration(i) * 100 * time.Millisecond; w.Start != want {
			t.Fatalf("window %d starts at %v, want %v", i, w.Start, want)
		}
	}
}
