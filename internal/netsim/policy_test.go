package netsim

import (
	"errors"
	"testing"
	"time"

	"hyperprof/internal/sim"
)

func policyFixture(workers int) (*sim.Kernel, *Network, *Node, *Node, *Server) {
	k, n := testNet()
	server := n.NewNode("srv", 0, 0, 4)
	client := n.NewNode("cli", 0, 0, 4)
	s := NewServer(server, workers)
	return k, n, server, client, s
}

func TestZeroPolicyMatchesDirectCall(t *testing.T) {
	k, _, _, client, s := policyFixture(1)
	s.Handle("op", func(p *sim.Proc, req Request) Response {
		p.Sleep(time.Millisecond)
		return Response{Payload: "hi"}
	})
	s.Start()
	c := NewClient(Policy{}, 1)
	var direct, viaClient time.Duration
	k.Go("client", func(p *sim.Proc) {
		_, direct = s.Call(p, client, Request{Method: "op"})
		resp, e := c.Call(p, client, s, Request{Method: "op"})
		viaClient = e
		if resp.Err != nil || resp.Payload != "hi" {
			t.Errorf("resp = %+v", resp)
		}
		s.Stop()
	})
	k.Run()
	if direct != viaClient {
		t.Fatalf("zero-policy client elapsed %v != direct %v", viaClient, direct)
	}
	if c.Calls != 1 || c.Attempts != 1 || c.Retries != 0 {
		t.Fatalf("counters = %+v", c)
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestDeadlineExceeded(t *testing.T) {
	k, _, _, client, s := policyFixture(1)
	s.Handle("slow", func(p *sim.Proc, req Request) Response {
		p.Sleep(50 * time.Millisecond)
		return Response{}
	})
	s.Start()
	c := NewClient(Policy{Deadline: 5 * time.Millisecond}, 1)
	var resp Response
	var elapsed time.Duration
	k.Go("client", func(p *sim.Proc) {
		resp, elapsed = c.Call(p, client, s, Request{Method: "slow"})
	})
	k.Run()
	if !errors.Is(resp.Err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", resp.Err)
	}
	if elapsed != 5*time.Millisecond {
		t.Fatalf("elapsed = %v, want the 5ms deadline", elapsed)
	}
	if c.Deadlines != 1 {
		t.Fatalf("Deadlines = %d, want 1", c.Deadlines)
	}
	s.Stop()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d (abandoned attempts must drain)", k.Live())
	}
}

func TestDeadlineNotHitOnFastCall(t *testing.T) {
	k, _, _, client, s := policyFixture(1)
	s.Handle("fast", func(p *sim.Proc, req Request) Response {
		p.Sleep(time.Millisecond)
		return Response{Payload: 42}
	})
	s.Start()
	c := NewClient(Policy{Deadline: 100 * time.Millisecond}, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = c.Call(p, client, s, Request{Method: "fast"})
		s.Stop()
	})
	k.Run()
	if resp.Err != nil || resp.Payload != 42 {
		t.Fatalf("resp = %+v", resp)
	}
	if c.Deadlines != 0 {
		t.Fatalf("Deadlines = %d, want 0", c.Deadlines)
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestRetryFailsOverAcrossTargets(t *testing.T) {
	k, n := testNet()
	client := n.NewNode("cli", 0, 0, 1)
	bad := NewServer(n.NewNode("bad", 0, 0, 1), 1)
	good := NewServer(n.NewNode("good", 0, 0, 1), 1)
	handler := func(p *sim.Proc, req Request) Response { return Response{Payload: "ok"} }
	bad.Handle("op", handler)
	good.Handle("op", handler)
	bad.Start()
	good.Start()
	bad.Crash()

	c := NewClient(Policy{MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = c.CallAny(p, client, []*Server{bad, good}, Request{Method: "op"})
		good.Stop()
	})
	k.Run()
	if resp.Err != nil || resp.Payload != "ok" {
		t.Fatalf("resp = %+v, want failover success", resp)
	}
	if c.Attempts != 2 || c.Retries != 1 || c.Failovers != 1 {
		t.Fatalf("Attempts=%d Retries=%d Failovers=%d, want 2/1/1", c.Attempts, c.Retries, c.Failovers)
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestRetryExhaustionReturnsLastError(t *testing.T) {
	k, n := testNet()
	client := n.NewNode("cli", 0, 0, 1)
	s := NewServer(n.NewNode("srv", 0, 0, 1), 1)
	s.Handle("op", func(p *sim.Proc, req Request) Response { return Response{} })
	s.Start()
	s.Crash()
	c := NewClient(Policy{MaxAttempts: 3}, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = c.Call(p, client, s, Request{Method: "op"})
	})
	k.Run()
	if !errors.Is(resp.Err, ErrServerDown) {
		t.Fatalf("err = %v, want ErrServerDown", resp.Err)
	}
	if c.Attempts != 3 || c.Retries != 2 {
		t.Fatalf("Attempts=%d Retries=%d, want 3/2", c.Attempts, c.Retries)
	}
}

func TestNonRetryableErrorStopsRetries(t *testing.T) {
	k, n := testNet()
	client := n.NewNode("cli", 0, 0, 1)
	s := NewServer(n.NewNode("srv", 0, 0, 1), 1)
	s.Start() // no handler registered: ErrNoMethod is an application error
	c := NewClient(Policy{MaxAttempts: 5}, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = c.Call(p, client, s, Request{Method: "nope"})
		s.Stop()
	})
	k.Run()
	if !errors.Is(resp.Err, ErrNoMethod) {
		t.Fatalf("err = %v", resp.Err)
	}
	if c.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1 (no retry on application errors)", c.Attempts)
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	p := Policy{BackoffBase: 2 * time.Millisecond, BackoffMax: 10 * time.Millisecond}
	a := NewClient(p, 99)
	b := NewClient(p, 99)
	for i := 1; i <= 8; i++ {
		da, db := a.backoff(i), b.backoff(i)
		if da != db {
			t.Fatalf("retry %d: same seed gave %v vs %v", i, da, db)
		}
		// Jitter is ±50%, so the cap bounds the result at 1.5*BackoffMax.
		if da < 0 || da > 15*time.Millisecond {
			t.Fatalf("retry %d: backoff %v outside jittered cap", i, da)
		}
	}
	if NewClient(p, 100).backoff(1) == a.backoff(1) {
		// Not strictly impossible, but with distinct seeds the first draws
		// colliding would indicate the seed is ignored.
		t.Fatal("different seeds gave identical first backoff")
	}
}

func TestHedgedCallBackupWins(t *testing.T) {
	k, n := testNet()
	client := n.NewNode("cli", 0, 0, 1)
	slow := NewServer(n.NewNode("slow", 0, 0, 1), 1)
	fast := NewServer(n.NewNode("fast", 0, 0, 1), 1)
	slow.Handle("op", func(p *sim.Proc, req Request) Response {
		p.Sleep(100 * time.Millisecond)
		return Response{Payload: "slow"}
	})
	fast.Handle("op", func(p *sim.Proc, req Request) Response {
		p.Sleep(time.Millisecond)
		return Response{Payload: "fast"}
	})
	slow.Start()
	fast.Start()
	c := NewClient(Policy{HedgeDelay: 5 * time.Millisecond, HedgeQuantile: 0.95}, 1)
	var resp Response
	var elapsed time.Duration
	k.Go("client", func(p *sim.Proc) {
		resp, elapsed = c.CallHedged(p, client, []*Server{slow, fast}, Request{Method: "op"})
	})
	k.Run()
	if resp.Err != nil || resp.Payload != "fast" {
		t.Fatalf("resp = %+v, want backup's answer", resp)
	}
	if c.Hedges != 1 || c.HedgeWins != 1 {
		t.Fatalf("Hedges=%d HedgeWins=%d, want 1/1", c.Hedges, c.HedgeWins)
	}
	// Hedge fired at 5ms; backup took ~1ms + transfers. Nowhere near 100ms.
	if elapsed >= 20*time.Millisecond {
		t.Fatalf("elapsed = %v, want well under the slow primary", elapsed)
	}
	slow.Stop()
	fast.Stop()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestHedgeNotSentWhenPrimaryFast(t *testing.T) {
	k, n := testNet()
	client := n.NewNode("cli", 0, 0, 1)
	a := NewServer(n.NewNode("a", 0, 0, 1), 1)
	b := NewServer(n.NewNode("b", 0, 0, 1), 1)
	h := func(p *sim.Proc, req Request) Response {
		p.Sleep(time.Millisecond)
		return Response{Payload: "a"}
	}
	a.Handle("op", h)
	b.Handle("op", h)
	a.Start()
	b.Start()
	c := NewClient(Policy{HedgeDelay: 50 * time.Millisecond}, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = c.CallHedged(p, client, []*Server{a, b}, Request{Method: "op"})
		a.Stop()
		b.Stop()
	})
	k.Run()
	if resp.Err != nil {
		t.Fatalf("resp = %+v", resp)
	}
	if c.Hedges != 0 || c.Attempts != 1 {
		t.Fatalf("Hedges=%d Attempts=%d, want 0/1", c.Hedges, c.Attempts)
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestHedgeWaitsForOutstandingAttemptOnRetryableFailure(t *testing.T) {
	k, n := testNet()
	client := n.NewNode("cli", 0, 0, 1)
	// Primary is slow but will succeed; backup crashes mid-flight.
	slow := NewServer(n.NewNode("slow", 0, 0, 1), 1)
	crashy := NewServer(n.NewNode("crashy", 0, 0, 1), 1)
	slow.Handle("op", func(p *sim.Proc, req Request) Response {
		p.Sleep(30 * time.Millisecond)
		return Response{Payload: "slow-ok"}
	})
	crashy.Handle("op", func(p *sim.Proc, req Request) Response {
		p.Sleep(100 * time.Millisecond)
		return Response{Payload: "never"}
	})
	slow.Start()
	crashy.Start()
	k.Schedule(10*time.Millisecond, crashy.Crash) // backup fails after hedging
	c := NewClient(Policy{HedgeDelay: 5 * time.Millisecond}, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = c.CallHedged(p, client, []*Server{slow, crashy}, Request{Method: "op"})
		slow.Stop()
	})
	k.Run()
	if resp.Err != nil || resp.Payload != "slow-ok" {
		t.Fatalf("resp = %+v, want the slow primary's success", resp)
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestHedgeDelayUsesObservedQuantile(t *testing.T) {
	c := NewClient(Policy{HedgeQuantile: 0.5, HedgeDelay: time.Millisecond}, 1)
	// Before enough samples, the bootstrap delay applies.
	if got := c.hedgeDelay(); got != time.Millisecond {
		t.Fatalf("bootstrap hedge delay = %v", got)
	}
	for i := 0; i < hedgeMinSamples; i++ {
		c.observe(10 * time.Millisecond)
	}
	if got := c.hedgeDelay(); got != 10*time.Millisecond {
		t.Fatalf("quantile hedge delay = %v, want 10ms", got)
	}
}

// TestClientKeepsNoLatenciesWithoutQuantileHedging pins the memory bound: a
// client without quantile hedging records no latency samples, whichever call
// path succeeds.
func TestClientKeepsNoLatenciesWithoutQuantileHedging(t *testing.T) {
	k, n := testNet()
	client := n.NewNode("cli", 0, 0, 1)
	a := NewServer(n.NewNode("a", 0, 0, 1), 1)
	b := NewServer(n.NewNode("b", 0, 0, 1), 1)
	h := func(p *sim.Proc, req Request) Response {
		p.Sleep(time.Millisecond)
		return Response{Payload: "ok"}
	}
	a.Handle("op", h)
	b.Handle("op", h)
	a.Start()
	b.Start()
	c := NewClient(Policy{HedgeDelay: 50 * time.Millisecond, MaxAttempts: 2}, 1)
	k.Go("client", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if resp, _ := c.CallAny(p, client, []*Server{a, b}, Request{Method: "op"}); resp.Err != nil {
				t.Errorf("CallAny: %v", resp.Err)
			}
			if resp, _ := c.CallHedged(p, client, []*Server{a, b}, Request{Method: "op"}); resp.Err != nil {
				t.Errorf("CallHedged: %v", resp.Err)
			}
		}
		a.Stop()
		b.Stop()
	})
	k.Run()
	if c.Attempts == 0 {
		t.Fatal("no attempts made")
	}
	if got := c.lats.N(); got != 0 {
		t.Fatalf("client without quantile hedging kept %d latency samples, want 0", got)
	}
}
