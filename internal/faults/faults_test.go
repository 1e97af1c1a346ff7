package faults

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"hyperprof/internal/sim"
)

// recorder is a fake injectable target that logs what happened to it and when.
type recorder struct {
	k   *sim.Kernel
	log []string
}

func (r *recorder) actions(name string) Actions {
	return Actions{
		Crash:   func() { r.log = append(r.log, name+" crash @"+r.k.Now().String()) },
		Recover: func() { r.log = append(r.log, name+" recover @"+r.k.Now().String()) },
		SetSlowdown: func(f float64) {
			r.log = append(r.log, name+" slow @"+r.k.Now().String())
			_ = f
		},
	}
}

func TestEngineAppliesEventsAtScheduledTimes(t *testing.T) {
	k := sim.New()
	rec := &recorder{k: k}
	e := NewEngine(k)
	e.Register("node-0", rec.actions("node-0"))
	e.InjectAll([]Event{
		{At: 10 * time.Millisecond, Kind: Crash, Target: "node-0"},
		{At: 30 * time.Millisecond, Kind: Recover, Target: "node-0"},
		{At: 50 * time.Millisecond, Kind: Straggler, Target: "node-0", Factor: 3},
	})
	k.Run()

	want := []string{
		"node-0 crash @10ms",
		"node-0 recover @30ms",
		"node-0 slow @50ms",
	}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("log = %v, want %v", rec.log, want)
	}
	if len(e.Applied) != 3 {
		t.Fatalf("Applied = %d events, want 3", len(e.Applied))
	}
	if e.Applied[0].At != 10*time.Millisecond || e.Applied[0].Kind != Crash {
		t.Fatalf("Applied[0] = %+v", e.Applied[0])
	}
}

func TestEngineSkipsUnknownTargetsAndMissingActions(t *testing.T) {
	k := sim.New()
	e := NewEngine(k)
	e.Register("limited", Actions{Crash: func() {}}) // no Recover
	e.InjectAll([]Event{
		{At: time.Millisecond, Kind: Crash, Target: "nope"},
		{At: 2 * time.Millisecond, Kind: Recover, Target: "limited"},
		{At: 3 * time.Millisecond, Kind: GrayLink, Links: []Link{{From: "a", To: "b"}}}, // no link plane registered
		{At: 4 * time.Millisecond, Kind: Crash, Target: "limited"},
	})
	k.Run()
	if e.Skipped != 3 {
		t.Fatalf("Skipped = %d, want 3", e.Skipped)
	}
	if len(e.Applied) != 1 {
		t.Fatalf("Applied = %v, want just the limited crash", e.Applied)
	}
}

// TestEngineNetworkHooks: a GrayLink event hands its delay and loss to
// the link plane's Gray hook for every link it carries, and a zero GrayLink
// clears them through the same hook.
func TestEngineNetworkHooks(t *testing.T) {
	k := sim.New()
	e := NewEngine(k)
	var calls []string
	e.RegisterLinkPlane(LinkPlane{Gray: func(from, to string, extra time.Duration, drop float64) bool {
		calls = append(calls, fmt.Sprintf("%s->%s %v %v", from, to, extra, drop))
		return true
	}})
	links := []Link{{From: "a", To: "b"}, {From: "b", To: "a"}}
	e.Inject(Event{At: time.Millisecond, Kind: GrayLink, Target: "brownout", Links: links, Factor: 0.25, Extra: 5 * time.Millisecond})
	e.Inject(Event{At: 2 * time.Millisecond, Kind: GrayLink, Target: "brownout-end", Links: links})
	k.Run()
	want := []string{"a->b 5ms 0.25", "b->a 5ms 0.25", "a->b 0s 0", "b->a 0s 0"}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("Gray calls = %v, want %v", calls, want)
	}
	if len(e.Applied) != 2 || e.Applied[0].Label() != "gray-link brownout" {
		t.Fatalf("Applied = %+v, want the two brown-out events", e.Applied)
	}
}

func TestScenarioStats(t *testing.T) {
	k := sim.New()
	rec := &recorder{k: k}
	e := NewEngine(k)
	e.Register("a", rec.actions("a"))
	st := e.RunScenario(Scenario{
		Name: "bounce",
		Events: []Event{
			{At: time.Millisecond, Kind: Crash, Target: "a"},
			{At: 2 * time.Millisecond, Kind: Recover, Target: "a"},
			{At: 3 * time.Millisecond, Kind: Crash, Target: "ghost"},
		},
	})
	k.Run()
	if st.Scheduled != 3 || len(st.Applied) != 2 {
		t.Fatalf("scheduled=%d applied=%d, want 3/2", st.Scheduled, len(st.Applied))
	}
	if st.ByKind[Crash] != 1 || st.ByKind[Recover] != 1 {
		t.Fatalf("ByKind = %v", st.ByKind)
	}
	if st.ByLabel["crash a"] != 1 || st.ByLabel["recover a"] != 1 {
		t.Fatalf("ByLabel = %v", st.ByLabel)
	}
	want := `scenario "bounce": 3 scheduled, 2 applied, 1 crash, 1 recover; crash a x1; recover a x1`
	if got := st.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestGenerateScheduleDeterministicAndPaired(t *testing.T) {
	cfg := ScheduleConfig{
		Horizon:        10 * time.Second,
		MTBF:           2 * time.Second,
		MTTR:           300 * time.Millisecond,
		NetDegradeProb: 1,
		NetExtraDelay:  time.Millisecond,
		NetDropProb:    0.1,
		NetNodes:       []string{"m0", "m1", "m2"},
		Seed:           42,
	}
	targets := []string{"n0", "n1", "n2"}
	a := GenerateSchedule(targets, cfg)
	b := GenerateSchedule(targets, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("expected some events over a 10s horizon with 2s MTBF")
	}
	// Every crash must have a later recovery for the same target, the
	// brown-out must close after it opens, and all events must be inside the
	// horizon and time-sorted.
	open := map[string]int{}
	var brownout []Event
	last := time.Duration(-1)
	for _, ev := range a {
		if ev.At < 0 || ev.At > cfg.Horizon {
			t.Fatalf("event outside horizon: %+v", ev)
		}
		if ev.At < last {
			t.Fatalf("events not sorted: %v after %v", ev.At, last)
		}
		last = ev.At
		switch ev.Kind {
		case Crash:
			open[ev.Target]++
		case Recover:
			open[ev.Target]--
			if open[ev.Target] < 0 {
				t.Fatalf("recover before crash for %s", ev.Target)
			}
		case GrayLink:
			brownout = append(brownout, ev)
		}
	}
	if len(brownout) != 2 || brownout[0].Factor != cfg.NetDropProb || brownout[0].Extra != cfg.NetExtraDelay ||
		brownout[1].Factor != 0 || brownout[1].Extra != 0 || !reflect.DeepEqual(brownout[0].Links, brownout[1].Links) {
		t.Fatalf("brown-out events = %+v, want one open and one zero close over the same links", brownout)
	}
	for name, n := range open {
		if n != 0 {
			t.Fatalf("%s left crashed at end of schedule (%d unpaired)", name, n)
		}
	}

	// Different seed, different schedule.
	cfg2 := cfg
	cfg2.Seed = 43
	if reflect.DeepEqual(a, GenerateSchedule(targets, cfg2)) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateSchedulePrefixStableAcrossTargetAdditions(t *testing.T) {
	cfg := ScheduleConfig{Horizon: 10 * time.Second, MTBF: 2 * time.Second, MTTR: 200 * time.Millisecond, Seed: 7}
	two := GenerateSchedule([]string{"n0", "n1"}, cfg)
	three := GenerateSchedule([]string{"n0", "n1", "n2"}, cfg)
	filter := func(evs []Event, names ...string) []Event {
		keep := map[string]bool{}
		for _, n := range names {
			keep[n] = true
		}
		var out []Event
		for _, ev := range evs {
			if keep[ev.Target] {
				out = append(out, ev)
			}
		}
		return out
	}
	if !reflect.DeepEqual(filter(two, "n0", "n1"), filter(three, "n0", "n1")) {
		t.Fatal("adding a target changed existing targets' fault draws")
	}
}

// TestBrownoutCoversEveryDirectedPair: the brown-out window carries every
// directed link between distinct nodes exactly once, a node list too short
// to form a link emits no window, and the crash and straggler draws are the
// same with or without the window.
func TestBrownoutCoversEveryDirectedPair(t *testing.T) {
	nodes := []string{"n0", "n1", "n2", "n3"}
	cfg := ScheduleConfig{
		Horizon:         10 * time.Second,
		MTBF:            time.Second,
		MTTR:            100 * time.Millisecond,
		StragglerProb:   0.3,
		StragglerFactor: 4,
		NetDegradeProb:  1,
		NetExtraDelay:   time.Millisecond,
		NetDropProb:     0.1,
		NetNodes:        nodes,
		Seed:            5,
	}
	targets := []string{"t0", "t1", "t2"}
	split := func(evs []Event) (rest, brownout []Event) {
		for _, ev := range evs {
			if ev.Kind == GrayLink {
				brownout = append(brownout, ev)
			} else {
				rest = append(rest, ev)
			}
		}
		return rest, brownout
	}
	withNodes, brownout := split(GenerateSchedule(targets, cfg))
	if len(brownout) != 2 {
		t.Fatalf("brown-out events = %d, want 2", len(brownout))
	}
	seen := map[Link]bool{}
	for _, l := range brownout[0].Links {
		if l.From == l.To || seen[l] {
			t.Fatalf("brown-out link %v is a self-link or a duplicate", l)
		}
		seen[l] = true
	}
	for _, from := range nodes {
		for _, to := range nodes {
			if from != to && !seen[Link{From: from, To: to}] {
				t.Fatalf("brown-out misses link %s->%s", from, to)
			}
		}
	}
	for _, short := range [][]string{nil, {"n0"}} {
		cfg.NetNodes = short
		without, none := split(GenerateSchedule(targets, cfg))
		if len(none) != 0 {
			t.Fatalf("nodes %v: brown-out emitted %d events, want none", short, len(none))
		}
		if !reflect.DeepEqual(withNodes, without) {
			t.Fatalf("nodes %v: crash and straggler events differ from the schedule with a brown-out", short)
		}
	}
}
