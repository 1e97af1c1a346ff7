package netsim

import (
	"errors"
	"testing"
	"time"

	"hyperprof/internal/sim"
)

// Tests for the server failure modes (crash, shedding, straggler) and
// network brown-outs on the link plane, plus the Stop drain-semantics
// contract.

func TestCrashFailsQueuedAndInServiceRequests(t *testing.T) {
	k, n := testNet()
	server := n.NewNode("srv", 0, 0, 1)
	client := n.NewNode("cli", 0, 0, 1)
	s := NewServer(server, 1)
	s.Handle("slow", func(p *sim.Proc, req Request) Response {
		p.Sleep(10 * time.Millisecond)
		return Response{Payload: "done"}
	})
	s.Start()

	var resps [2]Response
	for i := 0; i < 2; i++ {
		i := i
		k.Go("client", func(p *sim.Proc) {
			resps[i], _ = s.Call(p, client, Request{Method: "slow"})
		})
	}
	// First call is in service, second queued when the crash lands at 5ms.
	k.Schedule(5*time.Millisecond, s.Crash)
	k.Run()

	for i, r := range resps {
		if !errors.Is(r.Err, ErrServerDown) {
			t.Fatalf("resps[%d].Err = %v, want ErrServerDown", i, r.Err)
		}
	}
	if !s.Crashed() || !s.Stopped() {
		t.Fatal("Crashed()/Stopped() should both report true")
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}

	// Callers learned of the failure at crash time, not at handler completion.
	var after Response
	k.Go("late", func(p *sim.Proc) {
		after, _ = s.Call(p, client, Request{Method: "slow"})
	})
	k.Run()
	if !errors.Is(after.Err, ErrServerDown) {
		t.Fatalf("call to crashed server err = %v, want ErrServerDown", after.Err)
	}
}

func TestCrashUnblocksCallersImmediately(t *testing.T) {
	k, n := testNet()
	server := n.NewNode("srv", 0, 0, 1)
	client := n.NewNode("cli", 0, 0, 1)
	s := NewServer(server, 1)
	s.Handle("slow", func(p *sim.Proc, req Request) Response {
		p.Sleep(time.Second)
		return Response{}
	})
	s.Start()
	var doneAt time.Duration
	k.Go("client", func(p *sim.Proc) {
		s.Call(p, client, Request{Method: "slow"})
		doneAt = p.Now()
	})
	k.Schedule(3*time.Millisecond, s.Crash)
	k.Run()
	// The caller observes the failure at crash time + response transfer,
	// far before the 1s handler would have completed.
	if doneAt >= 10*time.Millisecond {
		t.Fatalf("caller unblocked at %v, want ~3ms", doneAt)
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestBoundedQueueShedsLoad(t *testing.T) {
	k, n := testNet()
	server := n.NewNode("srv", 0, 0, 1)
	client := n.NewNode("cli", 0, 0, 1)
	s := NewServer(server, 1)
	s.SetAdmission(Admission{MaxQueue: 1})
	s.Handle("slow", func(p *sim.Proc, req Request) Response {
		p.Sleep(10 * time.Millisecond)
		return Response{}
	})
	s.Start()
	var overloaded, ok int
	for i := 0; i < 3; i++ {
		k.Go("client", func(p *sim.Proc) {
			resp, _ := s.Call(p, client, Request{Method: "slow"})
			switch {
			case errors.Is(resp.Err, ErrOverloaded):
				overloaded++
			case resp.Err == nil:
				ok++
			default:
				t.Errorf("unexpected err: %v", resp.Err)
			}
		})
	}
	k.Run()
	// 1 in service + 1 queued; the third is shed.
	if ok != 2 || overloaded != 1 || s.Shed != 1 {
		t.Fatalf("ok=%d overloaded=%d Shed=%d, want 2/1/1", ok, overloaded, s.Shed)
	}
	s.Stop()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestStragglerSlowdownStretchesServiceTime(t *testing.T) {
	k, n := testNet()
	server := n.NewNode("srv", 0, 0, 1)
	client := n.NewNode("cli", 0, 0, 1)
	s := NewServer(server, 1)
	s.Handle("op", func(p *sim.Proc, req Request) Response {
		p.Sleep(10 * time.Millisecond)
		return Response{}
	})
	s.Start()
	s.SetSlowdown(3)
	var elapsed time.Duration
	k.Go("client", func(p *sim.Proc) {
		_, elapsed = s.Call(p, client, Request{Method: "op"})
		s.SetSlowdown(1) // clear
		_, e2 := s.Call(p, client, Request{Method: "op"})
		if e2 >= elapsed {
			t.Errorf("clearing slowdown did not restore service time: %v vs %v", e2, elapsed)
		}
		s.Stop()
	})
	k.Run()
	xfer := n.TransferTime(client, server, 0)
	want := 2*xfer + 30*time.Millisecond
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v (3x slowdown)", elapsed, want)
	}
}

// brownOut sets the same gray fault on both directions of the cli<->srv link:
// the brown-out shape a fault schedule applies to every link.
func brownOut(n *Network, extra time.Duration, drop float64) {
	n.SetLinkFault("cli", "srv", extra, drop)
	n.SetLinkFault("srv", "cli", extra, drop)
}

func TestNetworkDegradationAddsDelay(t *testing.T) {
	k, n := testNet()
	server := n.NewNode("srv", 0, 0, 1)
	client := n.NewNode("cli", 0, 0, 1)
	s := NewServer(server, 1)
	s.Handle("op", func(p *sim.Proc, req Request) Response { return Response{} })
	s.Start()
	var normal, degraded time.Duration
	k.Go("client", func(p *sim.Proc) {
		_, normal = s.Call(p, client, Request{Method: "op"})
		brownOut(n, 5*time.Millisecond, 0)
		_, degraded = s.Call(p, client, Request{Method: "op"})
		brownOut(n, 0, 0)
		_, e3 := s.Call(p, client, Request{Method: "op"})
		if e3 != normal {
			t.Errorf("post-brown-out elapsed = %v, want %v", e3, normal)
		}
		s.Stop()
	})
	k.Run()
	// Both message legs pay the extra delay.
	if degraded != normal+10*time.Millisecond {
		t.Fatalf("degraded = %v, normal = %v, want +10ms", degraded, normal)
	}
}

func TestNetworkDegradationDropsRequests(t *testing.T) {
	k, n := testNet()
	server := n.NewNode("srv", 0, 0, 1)
	client := n.NewNode("cli", 0, 0, 1)
	s := NewServer(server, 1)
	executed := 0
	s.Handle("op", func(p *sim.Proc, req Request) Response { executed++; return Response{} })
	s.Start()
	brownOut(n, 0, 1) // drop everything
	var resp Response
	var elapsed time.Duration
	k.Go("client", func(p *sim.Proc) {
		resp, elapsed = s.Call(p, client, Request{Method: "op"})
		s.Stop()
	})
	k.Run()
	if !errors.Is(resp.Err, ErrNetDropped) {
		t.Fatalf("err = %v, want ErrNetDropped", resp.Err)
	}
	if want := n.TransferTime(client, server, 0); elapsed != want {
		t.Fatalf("drop surfaced after %v, want one request transfer %v", elapsed, want)
	}
	if executed != 0 {
		t.Fatalf("handler ran %d times for a lost request", executed)
	}
	if n.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Dropped)
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d (drops must not black-hole callers)", k.Live())
	}
}

// TestLocalCallsExemptFromDegradation: a link with both delay and loss charges
// the delay before the loss surfaces, and local calls never cross the fault
// plane even when their own node's self-link is faulted.
func TestLocalCallsExemptFromDegradation(t *testing.T) {
	k, n := testNet()
	server := n.NewNode("srv", 0, 0, 1)
	client := n.NewNode("cli", 0, 0, 1)
	s := NewServer(server, 1)
	s.Handle("op", func(p *sim.Proc, req Request) Response { return Response{} })
	s.Start()
	brownOut(n, 5*time.Millisecond, 1)
	n.SetLinkFault("srv", "srv", 5*time.Millisecond, 1)
	var remote, local Response
	var remoteElapsed, localElapsed time.Duration
	k.Go("client", func(p *sim.Proc) {
		remote, remoteElapsed = s.Call(p, client, Request{Method: "op"})
		local, localElapsed = s.Call(p, server, Request{Method: "op"})
		s.Stop()
	})
	k.Run()
	if !errors.Is(remote.Err, ErrNetDropped) {
		t.Fatalf("remote err = %v, want ErrNetDropped", remote.Err)
	}
	if want := n.TransferTime(client, server, 0) + 5*time.Millisecond; remoteElapsed != want {
		t.Fatalf("remote drop surfaced after %v, want the delayed transfer %v", remoteElapsed, want)
	}
	if local.Err != nil || localElapsed != 0 {
		t.Fatalf("local call under brown-out: err=%v elapsed=%v, want nil/0", local.Err, localElapsed)
	}
}

// TestStopDrainSemantics pins the documented contract: a request admitted
// (arrived) before Stop completes normally; one arriving after Stop observes
// ErrServerDown. The arrival instant is the sole deciding fact.
func TestStopDrainSemantics(t *testing.T) {
	k, n := testNet()
	server := n.NewNode("srv", 0, 0, 1)
	client := n.NewNode("cli", 0, 0, 1)
	s := NewServer(server, 1)
	s.Handle("slow", func(p *sim.Proc, req Request) Response {
		p.Sleep(10 * time.Millisecond)
		return Response{Payload: "done"}
	})
	s.Start()

	var inService, queued, late Response
	k.Go("c1", func(p *sim.Proc) { // in service when Stop lands
		inService, _ = s.Call(p, client, Request{Method: "slow"})
	})
	k.Go("c2", func(p *sim.Proc) { // queued behind c1 when Stop lands
		queued, _ = s.Call(p, client, Request{Method: "slow"})
	})
	k.Schedule(5*time.Millisecond, s.Stop) // both admitted, neither finished
	k.Go("c3", func(p *sim.Proc) {         // arrives after Stop
		p.Sleep(6 * time.Millisecond)
		late, _ = s.Call(p, client, Request{Method: "slow"})
	})
	k.Run()

	if inService.Err != nil || inService.Payload != "done" {
		t.Fatalf("in-service call = %+v, want drained to completion", inService)
	}
	if queued.Err != nil || queued.Payload != "done" {
		t.Fatalf("queued call = %+v, want drained to completion", queued)
	}
	if !errors.Is(late.Err, ErrServerDown) {
		t.Fatalf("post-Stop arrival err = %v, want ErrServerDown", late.Err)
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}
