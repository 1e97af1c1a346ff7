package faults

import (
	"errors"
	"testing"
	"time"

	"hyperprof/internal/netsim"
	"hyperprof/internal/sim"
)

// window pairs one open event (Crash or Straggler start) with its close.
type window struct {
	kind       Kind
	start, end time.Duration
}

// targetWindows reconstructs the per-target fault windows from a schedule,
// failing the test on any unpaired or mis-ordered event.
func targetWindows(t *testing.T, evs []Event) map[string][]window {
	t.Helper()
	open := map[string]*window{}
	out := map[string][]window{}
	for _, ev := range evs {
		switch {
		case ev.Kind == Crash || (ev.Kind == Straggler && ev.Factor > 1):
			if open[ev.Target] != nil {
				t.Fatalf("target %s: window opened at %v while one from %v is still open",
					ev.Target, ev.At, open[ev.Target].start)
			}
			open[ev.Target] = &window{kind: ev.Kind, start: ev.At}
		case ev.Kind == Recover || (ev.Kind == Straggler && ev.Factor <= 1):
			w := open[ev.Target]
			if w == nil {
				t.Fatalf("target %s: close event at %v with no open window", ev.Target, ev.At)
			}
			if ev.Kind == Recover && w.kind != Crash || ev.Kind == Straggler && w.kind != Straggler {
				t.Fatalf("target %s: %v close at %v does not match open %v window", ev.Target, ev.Kind, ev.At, w.kind)
			}
			w.end = ev.At
			out[ev.Target] = append(out[ev.Target], *w)
			open[ev.Target] = nil
		}
	}
	for name, w := range open {
		if w != nil {
			t.Fatalf("target %s: window opened at %v never closes", name, w.start)
		}
	}
	return out
}

func edgeConfig(seed uint64) ScheduleConfig {
	return ScheduleConfig{
		Horizon: 2 * time.Second,
		MTBF:    80 * time.Millisecond,
		Seed:    seed,
	}
}

// TestZeroDurationStragglerWindowsImpossible: even with MTTR forced to zero,
// straggler windows must keep strictly positive duration — a zero-length
// window would clear the slowdown in the same instant it is set, silently
// erasing the fault.
func TestZeroDurationStragglerWindowsImpossible(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		cfg := edgeConfig(seed)
		cfg.MTTR = 0
		cfg.StragglerProb = 1
		cfg.StragglerFactor = 8
		evs := GenerateSchedule([]string{"s0", "s1", "s2"}, cfg)
		for _, ws := range targetWindows(t, evs) {
			for _, w := range ws {
				if w.end <= w.start {
					t.Fatalf("seed %d: straggler window [%v, %v] has non-positive duration", seed, w.start, w.end)
				}
			}
		}
	}
}

// TestCrashRecoverPairsNeverCoincide: a crash and its recovery must never
// land on the same timestamp, even with zero MTTR — an identical-instant pair
// would make the outcome depend on event ordering at one virtual instant.
func TestCrashRecoverPairsNeverCoincide(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		cfg := edgeConfig(seed)
		cfg.MTTR = 0
		evs := GenerateSchedule([]string{"a", "b"}, cfg)
		found := false
		for _, ws := range targetWindows(t, evs) {
			for _, w := range ws {
				found = true
				if w.kind != Crash {
					t.Fatalf("seed %d: unexpected %v window with StragglerProb 0", seed, w.kind)
				}
				if w.end == w.start {
					t.Fatalf("seed %d: crash/recover pair coincides at %v", seed, w.start)
				}
				if w.end-w.start < minRepair && w.end != cfg.Horizon {
					t.Fatalf("seed %d: repair %v below the %v floor", seed, w.end-w.start, minRepair)
				}
			}
		}
		if !found {
			t.Fatalf("seed %d: no windows generated", seed)
		}
	}
}

// TestPerTargetWindowsNeverOverlap: a target must be fully repaired before
// its next fault opens; overlapping windows would crash an already-crashed
// server or stack straggler factors.
func TestPerTargetWindowsNeverOverlap(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		cfg := edgeConfig(seed)
		cfg.MTTR = 60 * time.Millisecond // long repairs, frequent arrivals
		cfg.StragglerProb = 0.5
		cfg.StragglerFactor = 8
		evs := GenerateSchedule([]string{"x", "y", "z"}, cfg)
		for name, ws := range targetWindows(t, evs) {
			for i := 1; i < len(ws); i++ {
				if ws[i].start < ws[i-1].end {
					t.Fatalf("seed %d target %s: window %d [%v, %v] overlaps previous ending %v",
						seed, name, i, ws[i].start, ws[i].end, ws[i-1].end)
				}
			}
		}
	}
}

// TestWindowsClampToHorizon: every event lies inside [0, Horizon], so a run
// always ends with the fleet healthy and no fault leaks past the
// measurement window.
func TestWindowsClampToHorizon(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		cfg := edgeConfig(seed)
		cfg.MTTR = 500 * time.Millisecond // repairs frequently cross the horizon
		evs := GenerateSchedule([]string{"a", "b"}, cfg)
		for _, ev := range evs {
			if ev.At < 0 || ev.At > cfg.Horizon {
				t.Fatalf("seed %d: event at %v outside [0, %v]", seed, ev.At, cfg.Horizon)
			}
		}
	}
}

// brownoutRig is a two-node network with a server on b, wired to an engine
// through the link plane the way the fault studies wire it.
type brownoutRig struct {
	k    *sim.Kernel
	net  *netsim.Network
	e    *Engine
	a    *netsim.Node
	srvB *netsim.Server
}

func newBrownoutRig() *brownoutRig {
	k := sim.New()
	net := netsim.New(k, netsim.DefaultConfig())
	e := NewEngine(k)
	e.RegisterLinkPlane(LinkPlane{Block: net.BlockLink, Gray: net.SetLinkFault, Heal: net.HealLink})
	a, b := net.NewNode("a", 0, 0, 1), net.NewNode("b", 0, 1, 1)
	srv := netsim.NewServer(b, 1)
	srv.Handle("op", func(p *sim.Proc, req netsim.Request) netsim.Response { return netsim.Response{} })
	srv.Start()
	return &brownoutRig{k: k, net: net, e: e, a: a, srvB: srv}
}

// callAt issues one a->b call at the given instant and stores its outcome.
func (r *brownoutRig) callAt(at time.Duration, resp *netsim.Response, elapsed *time.Duration) {
	r.k.Go("caller", func(p *sim.Proc) {
		p.Sleep(at)
		*resp, *elapsed = r.srvB.Call(p, r.a, netsim.Request{Method: "op"})
	})
}

// TestOverlappingBrownoutsReplaceNotStack: two brown-out windows overlapping
// on one network must replace each other's parameters, not accumulate, and a
// single closing event returns the network to healthy.
func TestOverlappingBrownoutsReplaceNotStack(t *testing.T) {
	r := newBrownoutRig()
	links := meshLinks(r.net.NodeNames())
	base := r.net.TransferTime(r.a, r.srvB.Node, 0)
	var during, after time.Duration
	var duringResp, afterResp netsim.Response
	r.e.InjectAll([]Event{
		{At: 10 * time.Millisecond, Kind: GrayLink, Target: "brownout", Links: links, Extra: 5 * time.Millisecond},
		// The second brown-out opens before the first closes: it replaces the
		// 5ms surcharge with 1ms rather than stacking to 6ms.
		{At: 20 * time.Millisecond, Kind: GrayLink, Target: "brownout", Links: links, Extra: time.Millisecond},
		{At: 40 * time.Millisecond, Kind: GrayLink, Target: "brownout-end", Links: links},
	})
	r.callAt(30*time.Millisecond, &duringResp, &during)
	r.callAt(50*time.Millisecond, &afterResp, &after)
	r.k.Run()
	r.k.Close()
	if duringResp.Err != nil || afterResp.Err != nil {
		t.Fatalf("lossless brown-out failed a call: %v / %v", duringResp.Err, afterResp.Err)
	}
	// Request and response both cross a browned-out link.
	if want := 2 * (base + time.Millisecond); during != want {
		t.Fatalf("round trip during overlapping brown-outs = %v, want replaced %v (not stacked %v)",
			during, want, 2*(base+6*time.Millisecond))
	}
	if after != 2*base {
		t.Fatalf("round trip after the brown-out = %v, want %v", after, 2*base)
	}
	if len(r.e.Applied) != 3 {
		t.Fatalf("Applied = %d, want 3", len(r.e.Applied))
	}
}

// TestBrownoutEndKeepsPartitionBlock: a brown-out that closes while a
// partition holds one of its links clears only its own delay and loss; the
// block stays until the partition's Heal.
func TestBrownoutEndKeepsPartitionBlock(t *testing.T) {
	r := newBrownoutRig()
	links := meshLinks(r.net.NodeNames())
	cut := []Link{{From: "a", To: "b"}}
	r.e.InjectAll([]Event{
		{At: 5 * time.Millisecond, Kind: GrayLink, Target: "brownout", Links: links, Extra: time.Millisecond, Factor: 0.5},
		{At: 10 * time.Millisecond, Kind: Partition, Target: "partition/cut", Links: cut},
		{At: 20 * time.Millisecond, Kind: GrayLink, Target: "brownout-end", Links: links},
		{At: 30 * time.Millisecond, Kind: Heal, Target: "partition/cut", Links: cut},
	})
	var inside, healed netsim.Response
	var insideElapsed, healedElapsed time.Duration
	r.callAt(25*time.Millisecond, &inside, &insideElapsed)
	r.callAt(35*time.Millisecond, &healed, &healedElapsed)
	r.k.Run()
	r.k.Close()
	if !errors.Is(inside.Err, netsim.ErrLinkBlocked) {
		t.Fatalf("call after the brown-out ended inside the partition: err = %v, want ErrLinkBlocked", inside.Err)
	}
	base := r.net.TransferTime(r.a, r.srvB.Node, 0)
	if insideElapsed != base {
		t.Fatalf("blocked call took %v, want one unbrowned transfer %v", insideElapsed, base)
	}
	if healed.Err != nil || healedElapsed != 2*base {
		t.Fatalf("call after the heal: err = %v elapsed = %v, want nil/%v", healed.Err, healedElapsed, 2*base)
	}
}
