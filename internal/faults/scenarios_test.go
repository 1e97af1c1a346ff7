package faults

import (
	"reflect"
	"testing"
	"time"

	"hyperprof/internal/sim"
)

// TestRateSurgeDrivesSetRate checks the RateSurge kind end to end through a
// server-less retry storm (the flash crowd alone): the surge applies the
// multiplier, the clearing event restores the base rate, and targets without
// a SetRate hook skip the event.
func TestRateSurgeDrivesSetRate(t *testing.T) {
	k := sim.New()
	e := NewEngine(k)
	var mults []float64
	e.Register("tenant/flash", Actions{SetRate: func(m float64) { mults = append(mults, m) }})
	e.Register("no-rate", Actions{Crash: func() {}})
	e.InjectAll(RetryStorm(nil, "tenant/flash", 10*time.Millisecond, 20*time.Millisecond, 8, 5))
	e.Inject(Event{At: 40 * time.Millisecond, Kind: RateSurge, Target: "no-rate", Factor: 2})
	k.Run()

	if len(mults) != 2 || mults[0] != 5 || mults[1] != 1 {
		t.Fatalf("SetRate calls = %v, want [5 1]", mults)
	}
	want := []Applied{
		{At: 10 * time.Millisecond, Kind: RateSurge, Target: "tenant/flash"},
		{At: 30 * time.Millisecond, Kind: RateSurge, Target: "tenant/flash"},
	}
	if !reflect.DeepEqual(e.Applied, want) {
		t.Fatalf("Applied = %+v, want %+v", e.Applied, want)
	}
	if e.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1 (target without SetRate)", e.Skipped)
	}
}

// TestRetryStormScenarioShape pins the canned retry-storm schedule: a paired
// slowdown on every server in server order, then a paired surge on the
// tenant; without a tenant, the brownout alone.
func TestRetryStormScenarioShape(t *testing.T) {
	at, dur := 100*time.Millisecond, 50*time.Millisecond
	got := RetryStorm([]string{"s1", "s2"}, "tenant/flash", at, dur, 8, 4)
	want := []Event{
		{At: at, Kind: Straggler, Target: "s1", Factor: 8},
		{At: at + dur, Kind: Straggler, Target: "s1", Factor: 1},
		{At: at, Kind: Straggler, Target: "s2", Factor: 8},
		{At: at + dur, Kind: Straggler, Target: "s2", Factor: 1},
		{At: at, Kind: RateSurge, Target: "tenant/flash", Factor: 4},
		{At: at + dur, Kind: RateSurge, Target: "tenant/flash", Factor: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RetryStorm = %+v, want %+v", got, want)
	}
	if got := RetryStorm([]string{"s1", "s2"}, "", at, dur, 8, 4); !reflect.DeepEqual(got, want[:4]) {
		t.Fatalf("RetryStorm without a tenant = %+v, want the brownout %+v", got, want[:4])
	}
}
