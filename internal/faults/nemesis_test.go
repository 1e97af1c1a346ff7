package faults

import (
	"fmt"
	"math"
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

// nemesisInput is one fuzzed schedule configuration, bounded so a schedule
// stays small: a horizon of at most 10 s, at most 8 crash targets, nodes,
// partition targets and clock targets, and mean times between failures of at
// least 10 ms (zero disables the draw).
type nemesisInput struct {
	seed                                   uint64
	horizonMs                              uint16
	targets, nodes, partTargets, clocks    uint8
	mtbfMs, mttrMs, partMTBFMs, partMTTRMs uint16
	straggler, netDegrade, gray, skew      float64
}

func (in nemesisInput) add(f *testing.F) {
	f.Add(in.seed, in.horizonMs, in.targets, in.nodes, in.partTargets, in.clocks,
		in.mtbfMs, in.mttrMs, in.partMTBFMs, in.partMTTRMs, in.straggler, in.netDegrade, in.gray, in.skew)
}

// names returns n%9 names prefix0, prefix1, ...
func names(prefix string, n uint8) []string {
	var out []string
	for i := 0; i < int(n%9); i++ {
		out = append(out, fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// prob keeps x in [0, 1] and folds any other finite x into [0, 1); NaN and
// infinities become 0.
func prob(x float64) float64 {
	switch {
	case x >= 0 && x <= 1:
		return x
	case math.IsNaN(x) || math.IsInf(x, 0):
		return 0
	}
	return math.Abs(x - math.Trunc(x))
}

// meanMs is ms milliseconds floored at 10 ms; zero stays zero.
func meanMs(ms uint16) time.Duration {
	if ms == 0 {
		return 0
	}
	return time.Duration(max(ms, 10)) * time.Millisecond
}

func (in nemesisInput) config() ([]string, NemesisConfig) {
	nodes := names("n", in.nodes)
	return names("t", in.targets), NemesisConfig{
		ScheduleConfig: ScheduleConfig{
			Horizon:         time.Duration(min(in.horizonMs, 10000)) * time.Millisecond,
			MTBF:            meanMs(in.mtbfMs),
			MTTR:            time.Duration(in.mttrMs) * time.Millisecond,
			StragglerProb:   prob(in.straggler),
			StragglerFactor: 8,
			NetDegradeProb:  prob(in.netDegrade),
			NetExtraDelay:   200 * time.Microsecond,
			NetDropProb:     0.02,
			NetNodes:        nodes,
			Seed:            in.seed,
		},
		Nodes:            nodes,
		PartitionTargets: names("p", in.partTargets),
		PartitionMTBF:    meanMs(in.partMTBFMs),
		PartitionMTTR:    time.Duration(in.partMTTRMs) * time.Millisecond,
		GrayProb:         prob(in.gray),
		GrayExtra:        300 * time.Microsecond,
		GrayDrop:         0.05,
		ClockTargets:     names("clk", in.clocks),
		ClockSkewProb:    prob(in.skew),
		ClockSkewMax:     2 * time.Millisecond,
		ClockDriftMax:    1e-4,
	}
}

// FuzzNemesisSchedule checks the properties every generated schedule keeps:
//
//   - every event lies inside [0, Horizon], so a run ends with the fleet
//     healthy, links healed and clocks clean;
//   - per target, crash and straggler windows pair exactly, never overlap,
//     and last at least the minimum repair time unless clamped to the
//     horizon — a crash and its recovery never coincide, and a zero-length
//     window would erase its fault the instant it is set;
//   - every Partition or GrayLink opens exactly one window that exactly one
//     Heal with the same label and link set closes strictly later; link
//     windows cut only known, distinct nodes, and target-scoped windows
//     isolate only partition targets;
//   - every clock-skew window is one per target, on a clock target, and
//     cleared strictly later.
//
// Where an empty schedule has probability below e^-25 (a horizon of at
// least 25 mean times between failures), each crash target must get a
// window and partitions must open.
//
// The seed corpus replays the seed loops these checks come from: the
// nemesis mix (2 s, 5 nodes, 2 clocks, gray link and skew at 0.7) over
// three and two crash targets, target-scoped partitions over three targets,
// and the crash-only edge configs at zero, long and horizon-crossing MTTRs.
// It adds horizons of 1-4 ms, where every window shape clamps.
func FuzzNemesisSchedule(f *testing.F) {
	for seed := uint64(1); seed <= 40; seed++ {
		mix := nemesisInput{seed: seed, horizonMs: 2000, targets: 3, nodes: 5, clocks: 2,
			mtbfMs: 150, mttrMs: 20, partMTBFMs: 200, partMTTRMs: 60, netDegrade: 0.7, gray: 0.7, skew: 0.7}
		mix.add(f)
		edge := nemesisInput{seed: seed, horizonMs: 2000, targets: 2, mtbfMs: 80}
		edge.add(f)
		edge.mttrMs = 500
		edge.add(f)
		edge.targets, edge.mttrMs, edge.straggler = 3, 60, 0.5
		edge.add(f)
		// A horizon of a few repair floors, where windows clamp to it.
		tiny := nemesisInput{seed: seed, horizonMs: 1 + uint16(seed%4), targets: 2, nodes: 4, clocks: 2,
			mtbfMs: 10, partMTBFMs: 10, straggler: 0.5, netDegrade: 1, gray: 1, skew: 1}
		tiny.add(f)
		if seed <= 20 {
			mix.targets = 2
			mix.add(f)
			mix.targets, mix.nodes, mix.partTargets, mix.gray = 0, 0, 3, 0
			mix.add(f)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, horizonMs uint16, targets, nodes, partTargets, clocks uint8,
		mtbfMs, mttrMs, partMTBFMs, partMTTRMs uint16, straggler, netDegrade, gray, skew float64) {
		in := nemesisInput{seed, horizonMs, targets, nodes, partTargets, clocks,
			mtbfMs, mttrMs, partMTBFMs, partMTTRMs, straggler, netDegrade, gray, skew}
		crashTargets, cfg := in.config()
		evs := GenerateNemesisSchedule(crashTargets, cfg)
		h := cfg.Horizon
		for _, ev := range evs {
			if ev.At < 0 || ev.At > h {
				t.Fatalf("%+v: %v %s at %v outside [0, %v]", in, ev.Kind, ev.Target, ev.At, h)
			}
		}

		windows := targetWindows(t, evs)
		for name, ws := range windows {
			for i, w := range ws {
				if w.end <= w.start || w.end-w.start < minRepair && w.end != h {
					t.Fatalf("%+v: %s %v window [%v, %v] shorter than the %v repair floor", in, name, w.kind, w.start, w.end, minRepair)
				}
				if i > 0 && w.start < ws[i-1].end {
					t.Fatalf("%+v: %s window [%v, %v] overlaps the previous one ending %v", in, name, w.start, w.end, ws[i-1].end)
				}
			}
		}
		if cfg.MTBF > 0 && h >= 25*cfg.MTBF {
			for _, name := range crashTargets {
				if len(windows[name]) == 0 {
					t.Fatalf("%+v: target %s got no window over %v horizons of MTBF", in, name, h/cfg.MTBF)
				}
			}
		}

		isNode, isPart, isClock := set(cfg.Nodes), set(cfg.PartitionTargets), set(cfg.ClockTargets)
		type openWin struct {
			at    time.Duration
			links []Link
		}
		open := map[string]*openWin{}
		skewed := map[string]time.Duration{}
		opens, heals := 0, 0
		for _, ev := range evs {
			switch ev.Kind {
			case Partition, GrayLink:
				if strings.HasPrefix(ev.Target, "brownout") {
					continue // closed by a zero GrayLink, not a Heal
				}
				opens++
				if open[ev.Target] != nil {
					t.Fatalf("%+v: %s window at %v opened while one from %v is still open", in, ev.Target, ev.At, open[ev.Target].at)
				}
				if len(ev.Links) == 0 && !isPart[ev.Target] {
					t.Fatalf("%+v: target-scoped partition of %q, not a partition target", in, ev.Target)
				}
				for _, l := range ev.Links {
					if !isNode[l.From] || !isNode[l.To] || l.From == l.To {
						t.Fatalf("%+v: %s cuts link %s->%s outside the node set", in, ev.Target, l.From, l.To)
					}
				}
				open[ev.Target] = &openWin{at: ev.At, links: ev.Links}
			case Heal:
				heals++
				w := open[ev.Target]
				if w == nil {
					t.Fatalf("%+v: heal of %s at %v with no open window", in, ev.Target, ev.At)
				}
				if ev.At <= w.at {
					t.Fatalf("%+v: %s healed at %v, not strictly after its open at %v", in, ev.Target, ev.At, w.at)
				}
				if !linkSetEqual(ev.Links, w.links) {
					t.Fatalf("%+v: heal of %s covers %d links, window opened with %d", in, ev.Target, len(ev.Links), len(w.links))
				}
				open[ev.Target] = nil
			case ClockSkew:
				if !isClock[ev.Target] {
					t.Fatalf("%+v: clock skew on %q, not a clock target", in, ev.Target)
				}
				at, ok := skewed[ev.Target]
				switch {
				case !ok:
					skewed[ev.Target] = ev.At
				case at < 0:
					t.Fatalf("%+v: %s skewed twice", in, ev.Target)
				case ev.At <= at || ev.Extra != 0 || ev.Factor != 0:
					t.Fatalf("%+v: %s skew from %v not cleared strictly later (%v, %v, %v)", in, ev.Target, at, ev.At, ev.Extra, ev.Factor)
				default:
					skewed[ev.Target] = -1 // closed
				}
			}
		}
		for name, w := range open {
			if w != nil {
				t.Fatalf("%+v: %s window opened at %v never heals", in, name, w.at)
			}
		}
		for name, at := range skewed {
			if at >= 0 {
				t.Fatalf("%+v: %s skewed at %v never clears", in, name, at)
			}
		}
		if opens != heals {
			t.Fatalf("%+v: %d partition/gray opens vs %d heals", in, opens, heals)
		}
		canPartition := len(cfg.Nodes) >= 2 || len(cfg.PartitionTargets) > 0
		if cfg.PartitionMTBF > 0 && canPartition && h >= 25*cfg.PartitionMTBF && opens == 0 {
			t.Fatalf("%+v: no partition over %v horizons of PartitionMTBF", in, h/cfg.PartitionMTBF)
		}
	})
}

func set(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}
