package netsim

import (
	"errors"
	"testing"
	"time"

	"hyperprof/internal/sim"
)

func testNet() (*sim.Kernel, *Network) {
	k := sim.New()
	return k, New(k, DefaultConfig())
}

func TestRTTScopes(t *testing.T) {
	k, n := testNet()
	_ = k
	a := n.NewNode("a", 0, 0, 1)
	b := n.NewNode("b", 0, 0, 1) // same rack
	c := n.NewNode("c", 0, 1, 1) // cross rack
	d := n.NewNode("d", 1, 0, 1) // cross region
	cfg := DefaultConfig()
	if n.RTT(a, a) != 0 {
		t.Error("self RTT nonzero")
	}
	if n.RTT(a, b) != cfg.SameRackRTT {
		t.Errorf("same rack = %v", n.RTT(a, b))
	}
	if n.RTT(a, c) != cfg.CrossRackRTT {
		t.Errorf("cross rack = %v", n.RTT(a, c))
	}
	if n.RTT(a, d) != cfg.CrossRegionRTT {
		t.Errorf("cross region = %v", n.RTT(a, d))
	}
}

func TestTransferTime(t *testing.T) {
	_, n := testNet()
	a := n.NewNode("a", 0, 0, 1)
	b := n.NewNode("b", 0, 0, 1)
	cfg := DefaultConfig()
	// Zero bytes: half RTT only.
	if got := n.TransferTime(a, b, 0); got != cfg.SameRackRTT/2 {
		t.Errorf("zero-byte transfer = %v", got)
	}
	// 5 GB at 5 GB/s = 1s.
	got := n.TransferTime(a, b, 5e9)
	want := cfg.SameRackRTT/2 + time.Second
	if got != want {
		t.Errorf("bulk transfer = %v, want %v", got, want)
	}
	if n.TransferTime(a, a, 1<<30) != 0 {
		t.Error("local transfer should be free")
	}
	if got := n.TransferTime(a, b, -5); got != cfg.SameRackRTT/2 {
		t.Errorf("negative size = %v", got)
	}
}

func TestRPCBasicCall(t *testing.T) {
	k, n := testNet()
	server := n.NewNode("srv", 0, 0, 4)
	client := n.NewNode("cli", 0, 0, 4)
	s := NewServer(server, 2)
	s.Handle("echo", func(p *sim.Proc, req Request) Response {
		p.Sleep(time.Millisecond) // service time
		return Response{Bytes: req.Bytes, Payload: req.Payload}
	})
	s.Start()

	var gotResp Response
	var elapsed time.Duration
	k.Go("client", func(p *sim.Proc) {
		gotResp, elapsed = s.Call(p, client, Request{Method: "echo", Bytes: 1000, Payload: "hi"})
		s.Stop()
	})
	k.Run()
	if gotResp.Err != nil || gotResp.Payload != "hi" {
		t.Fatalf("resp = %+v", gotResp)
	}
	// Elapsed = 2 transfers + 1ms service.
	xfer := n.TransferTime(client, server, 1000)
	want := 2*xfer + time.Millisecond
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestRPCUnknownMethod(t *testing.T) {
	k, n := testNet()
	s := NewServer(n.NewNode("srv", 0, 0, 1), 1)
	s.Start()
	cli := n.NewNode("cli", 0, 0, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = s.Call(p, cli, Request{Method: "nope"})
		s.Stop()
	})
	k.Run()
	if !errors.Is(resp.Err, ErrNoMethod) {
		t.Fatalf("err = %v", resp.Err)
	}
}

func TestRPCQueueingOnSingleWorker(t *testing.T) {
	k, n := testNet()
	server := n.NewNode("srv", 0, 0, 1)
	client := n.NewNode("cli", 0, 0, 1)
	s := NewServer(server, 1)
	s.Handle("slow", func(p *sim.Proc, req Request) Response {
		p.Sleep(10 * time.Millisecond)
		return Response{}
	})
	s.Start()
	done := 0
	for i := 0; i < 3; i++ {
		k.Go("client", func(p *sim.Proc) {
			s.Call(p, client, Request{Method: "slow"})
			done++
		})
	}
	end := k.Run()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	// Three serialized 10ms services: completion no earlier than 30ms.
	if end < 30*time.Millisecond {
		t.Fatalf("end = %v, want >= 30ms (queueing)", end)
	}
	s.Stop()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestRPCParallelWorkers(t *testing.T) {
	k, n := testNet()
	server := n.NewNode("srv", 0, 0, 4)
	client := n.NewNode("cli", 0, 0, 1)
	s := NewServer(server, 4)
	s.Handle("slow", func(p *sim.Proc, req Request) Response {
		p.Sleep(10 * time.Millisecond)
		return Response{}
	})
	s.Start()
	for i := 0; i < 4; i++ {
		k.Go("client", func(p *sim.Proc) {
			s.Call(p, client, Request{Method: "slow"})
		})
	}
	end := k.Run()
	// All four run in parallel: ~10ms + transfers, well under 20ms.
	if end >= 20*time.Millisecond {
		t.Fatalf("end = %v, want < 20ms (parallel service)", end)
	}
	s.Stop()
	k.Run()
}

func TestCallBeforeStartReturnsError(t *testing.T) {
	k, n := testNet()
	s := NewServer(n.NewNode("srv", 0, 0, 1), 1)
	cli := n.NewNode("cli", 0, 0, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = s.Call(p, cli, Request{Method: "x"})
	})
	k.Run()
	if !errors.Is(resp.Err, ErrNotStarted) {
		t.Fatalf("err = %v, want ErrNotStarted", resp.Err)
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestServerStartIdempotent(t *testing.T) {
	k, n := testNet()
	s := NewServer(n.NewNode("srv", 0, 0, 1), 2)
	s.Start()
	s.Start() // must not double the workers
	s.Stop()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("live = %d, want 0 (Start idempotent)", k.Live())
	}
}

func TestHandlerCanUseServerCPU(t *testing.T) {
	k, n := testNet()
	server := n.NewNode("srv", 0, 0, 2)
	client := n.NewNode("cli", 0, 0, 1)
	s := NewServer(server, 8)
	s.Handle("compute", func(p *sim.Proc, req Request) Response {
		p.Use(server.CPU, 1, 5*time.Millisecond)
		return Response{}
	})
	s.Start()
	for i := 0; i < 4; i++ {
		k.Go("client", func(p *sim.Proc) {
			s.Call(p, client, Request{Method: "compute"})
		})
	}
	end := k.Run()
	// 4 jobs of 5ms on 2 cores: at least 10ms.
	if end < 10*time.Millisecond {
		t.Fatalf("end = %v, want >= 10ms (CPU contention)", end)
	}
	s.Stop()
	k.Run()
}

func TestCallAfterStopFailsFast(t *testing.T) {
	k, n := testNet()
	s := NewServer(n.NewNode("srv", 0, 0, 1), 1)
	s.Handle("op", func(p *sim.Proc, req Request) Response { return Response{} })
	s.Start()
	cli := n.NewNode("cli", 0, 0, 1)
	var before, after Response
	k.Go("client", func(p *sim.Proc) {
		before, _ = s.Call(p, cli, Request{Method: "op"})
		s.Stop()
		if !s.Stopped() {
			t.Error("Stopped() false after Stop")
		}
		after, _ = s.Call(p, cli, Request{Method: "op"})
	})
	k.Run()
	if before.Err != nil {
		t.Fatalf("call before stop failed: %v", before.Err)
	}
	if !errors.Is(after.Err, ErrServerDown) {
		t.Fatalf("call after stop err = %v, want ErrServerDown", after.Err)
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestStopIdempotent(t *testing.T) {
	k, n := testNet()
	s := NewServer(n.NewNode("srv", 0, 0, 1), 2)
	s.Start()
	s.Stop()
	s.Stop() // second stop must not enqueue more sentinels
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("live = %d", k.Live())
	}
}
