package faults

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hyperprof/internal/sim"
)

func nemesisConfig(seed uint64) NemesisConfig {
	return NemesisConfig{
		ScheduleConfig: ScheduleConfig{
			Horizon: 2 * time.Second,
			MTBF:    150 * time.Millisecond,
			MTTR:    20 * time.Millisecond,
			Seed:    seed,
			// A brown-out over the same nodes rides along, as in the
			// partition study when NetDegradeProb is set.
			NetDegradeProb: 0.7,
			NetExtraDelay:  200 * time.Microsecond,
			NetDropProb:    0.02,
			NetNodes:       []string{"n0", "n1", "n2", "n3", "n4"},
		},
		Nodes:         []string{"n0", "n1", "n2", "n3", "n4"},
		PartitionMTBF: 200 * time.Millisecond,
		PartitionMTTR: 60 * time.Millisecond,
		GrayProb:      0.7,
		GrayExtra:     300 * time.Microsecond,
		GrayDrop:      0.05,
		ClockTargets:  []string{"clk0", "clk1"},
		ClockSkewProb: 0.7,
		ClockSkewMax:  2 * time.Millisecond,
		ClockDriftMax: 1e-4,
	}
}

// linkSetEqual compares two link sets as multisets.
func linkSetEqual(a, b []Link) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]Link(nil), a...)
	bs := append([]Link(nil), b...)
	less := func(s []Link) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].From != s[j].From {
				return s[i].From < s[j].From
			}
			return s[i].To < s[j].To
		}
	}
	sort.Slice(as, less(as))
	sort.Slice(bs, less(bs))
	return reflect.DeepEqual(as, bs)
}

// TestNemesisPartitionWindowsPairExactly: every Partition (and GrayLink)
// opens exactly one window that exactly one matching Heal — same target
// label, same link set — closes strictly later. A heal at the opening
// instant would erase the fault before any message crossed it.
func TestNemesisPartitionWindowsPairExactly(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		cfg := nemesisConfig(seed)
		evs := GenerateNemesisSchedule([]string{"a", "b", "c"}, cfg)
		type openWin struct {
			at    time.Duration
			links []Link
		}
		open := map[string]*openWin{}
		partitions, heals := 0, 0
		for _, ev := range evs {
			if strings.HasPrefix(ev.Target, "brownout") {
				continue // closed by a zero GrayLink, not a Heal
			}
			switch ev.Kind {
			case Partition, GrayLink:
				partitions++
				if open[ev.Target] != nil {
					t.Fatalf("seed %d: %s window at %v opened while one from %v is still open",
						seed, ev.Target, ev.At, open[ev.Target].at)
				}
				open[ev.Target] = &openWin{at: ev.At, links: ev.Links}
			case Heal:
				heals++
				w := open[ev.Target]
				if w == nil {
					t.Fatalf("seed %d: heal of %s at %v with no open window", seed, ev.Target, ev.At)
				}
				if ev.At <= w.at {
					t.Fatalf("seed %d: %s healed at %v, not strictly after its open at %v",
						seed, ev.Target, ev.At, w.at)
				}
				if !linkSetEqual(ev.Links, w.links) {
					t.Fatalf("seed %d: heal of %s covers %d links, window opened with %d",
						seed, ev.Target, len(ev.Links), len(w.links))
				}
				open[ev.Target] = nil
			}
		}
		for name, w := range open {
			if w != nil {
				t.Fatalf("seed %d: %s window opened at %v never heals", seed, name, w.at)
			}
		}
		if partitions == 0 || partitions != heals {
			t.Fatalf("seed %d: %d partition/gray opens vs %d heals", seed, partitions, heals)
		}
	}
}

// TestNemesisTargetPartitionsPair: with no node set, partition windows
// isolate one registered target each through link-less Partition/Heal pairs.
func TestNemesisTargetPartitionsPair(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := nemesisConfig(seed)
		cfg.Nodes = nil
		cfg.GrayProb = 0
		cfg.PartitionTargets = []string{"ts0", "ts2", "ts4"}
		valid := map[string]bool{"ts0": true, "ts2": true, "ts4": true}
		evs := GenerateNemesisSchedule(nil, cfg)
		open := map[string]time.Duration{}
		found := false
		for _, ev := range evs {
			switch ev.Kind {
			case Partition:
				found = true
				if len(ev.Links) != 0 {
					t.Fatalf("seed %d: target-scoped partition carries %d links", seed, len(ev.Links))
				}
				if !valid[ev.Target] {
					t.Fatalf("seed %d: partition of unknown target %q", seed, ev.Target)
				}
				if _, ok := open[ev.Target]; ok {
					t.Fatalf("seed %d: target %s partitioned twice without heal", seed, ev.Target)
				}
				open[ev.Target] = ev.At
			case Heal:
				at, ok := open[ev.Target]
				if !ok {
					t.Fatalf("seed %d: heal of %s with no open partition", seed, ev.Target)
				}
				if ev.At <= at {
					t.Fatalf("seed %d: heal of %s at %v not after open at %v", seed, ev.Target, ev.At, at)
				}
				delete(open, ev.Target)
			}
		}
		if !found {
			t.Fatalf("seed %d: no target-scoped partitions generated", seed)
		}
		if len(open) != 0 {
			t.Fatalf("seed %d: %d partitions never heal", seed, len(open))
		}
	}
}

// TestNemesisScheduleDeterministic: equal configs generate byte-identical
// schedules; different seeds diverge.
func TestNemesisScheduleDeterministic(t *testing.T) {
	targets := []string{"a", "b", "c"}
	a := GenerateNemesisSchedule(targets, nemesisConfig(7))
	b := GenerateNemesisSchedule(targets, nemesisConfig(7))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed generated different schedules (%d vs %d events)", len(a), len(b))
	}
	c := GenerateNemesisSchedule(targets, nemesisConfig(8))
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds generated identical schedules")
	}
}

// TestNemesisDoesNotPerturbCrashSchedule: the nemesis draws fork from an
// independent root, so the crash/straggler/brownout subset of a nemesis
// schedule is exactly the schedule GenerateSchedule draws for the same
// config — enabling partitions must not reshuffle the crashes.
func TestNemesisDoesNotPerturbCrashSchedule(t *testing.T) {
	targets := []string{"a", "b", "c"}
	sortEvs := func(evs []Event) {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].At != evs[j].At {
				return evs[i].At < evs[j].At
			}
			if evs[i].Target != evs[j].Target {
				return evs[i].Target < evs[j].Target
			}
			return evs[i].Kind < evs[j].Kind
		})
	}
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := nemesisConfig(seed)
		base := GenerateSchedule(targets, cfg.ScheduleConfig)
		var filtered []Event
		for _, ev := range GenerateNemesisSchedule(targets, cfg) {
			switch ev.Kind {
			case Crash, Recover, Straggler:
				filtered = append(filtered, ev)
			case GrayLink:
				if strings.HasPrefix(ev.Target, "brownout") {
					filtered = append(filtered, ev)
				}
			}
		}
		sortEvs(base)
		sortEvs(filtered)
		if !reflect.DeepEqual(base, filtered) {
			t.Fatalf("seed %d: crash subset of nemesis schedule (%d events) differs from base schedule (%d events)",
				seed, len(filtered), len(base))
		}
	}
}

// TestNemesisEventsStayInsideHorizon: no nemesis event may leak past the
// horizon — runs must end with links healed and clocks clean.
func TestNemesisEventsStayInsideHorizon(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := nemesisConfig(seed)
		for _, ev := range GenerateNemesisSchedule([]string{"a", "b"}, cfg) {
			if ev.At < 0 || ev.At > cfg.Horizon {
				t.Fatalf("seed %d: event %v %s at %v outside [0, %v]", seed, ev.Kind, ev.Target, ev.At, cfg.Horizon)
			}
		}
	}
}

// TestSkippedUnknownTargetCounted: events naming an unregistered target —
// or a link with an unknown endpoint — must be counted and logged, not lost
// invisibly.
func TestSkippedUnknownTargetCounted(t *testing.T) {
	k := sim.New()
	e := NewEngine(k)
	e.Register("known", Actions{Crash: func() {}})
	known := map[string]bool{"known": true}
	e.RegisterLinkPlane(LinkPlane{
		Block: func(from, to string) bool { return known[from] && known[to] },
		Heal:  func(from, to string) bool { return known[from] && known[to] },
	})
	e.InjectAll([]Event{
		{At: time.Millisecond, Kind: Crash, Target: "known"},
		{At: 2 * time.Millisecond, Kind: Crash, Target: "mispelled"},
		{At: 3 * time.Millisecond, Kind: Partition, Links: []Link{{From: "known", To: "ghost"}}},
		// A target that exists but lacks the action is an ordinary skip, not
		// an unknown target.
		{At: 4 * time.Millisecond, Kind: Recover, Target: "known"},
	})
	k.Run()
	if len(e.Applied) != 1 {
		t.Fatalf("Applied = %d, want 1", len(e.Applied))
	}
	if e.Skipped != 3 {
		t.Fatalf("Skipped = %d, want 3", e.Skipped)
	}
	if e.SkippedUnknownTarget != 2 {
		t.Fatalf("SkippedUnknownTarget = %d, want 2", e.SkippedUnknownTarget)
	}
}
