package netsim

import (
	"errors"
	"fmt"
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
	var resp, again Response
	var elapsed time.Duration
	k.Go("client", func(p *sim.Proc) {
		resp, elapsed = c.Call(p, client, s, Request{Method: "slow"})
		again, _ = c.Call(p, client, s, Request{Method: "slow"})
	})
	k.Run()
	if !errors.Is(resp.Err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", resp.Err)
	}
	if want := fmt.Sprintf("%v: slow after 5ms", ErrDeadlineExceeded); resp.Err.Error() != want {
		t.Fatalf("err = %q, want %q", resp.Err, want)
	}
	// The method's error is built once and shared by every missed attempt.
	if again.Err != resp.Err {
		t.Fatalf("second miss err = %v, want the first's %v", again.Err, resp.Err)
	}
	if elapsed != 5*time.Millisecond {
		t.Fatalf("elapsed = %v, want the 5ms deadline", elapsed)
	}
	if c.Deadlines != 2 {
		t.Fatalf("Deadlines = %d, want 2", c.Deadlines)
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

func TestRetrySucceedsAfterRetryableFailure(t *testing.T) {
	k, _, _, client, s := policyFixture(1)
	// The first attempt is shed with a retryable error; the retry is served.
	served := 0
	s.Handle("op", func(p *sim.Proc, req Request) Response {
		served++
		if served == 1 {
			return Response{Err: fmt.Errorf("%w: first attempt", ErrOverloaded)}
		}
		return Response{Payload: "ok"}
	})
	s.Start()

	c := NewClient(Policy{MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = c.Call(p, client, s, Request{Method: "op"})
		s.Stop()
	})
	k.Run()
	if resp.Err != nil || resp.Payload != "ok" {
		t.Fatalf("resp = %+v, want the retry's success", resp)
	}
	if c.Attempts != 2 || c.Retries != 1 || served != 2 {
		t.Fatalf("Attempts=%d Retries=%d served=%d, want 2/1/2", c.Attempts, c.Retries, served)
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
