package netsim

import (
	"errors"
	"testing"
	"time"

	"hyperprof/internal/sim"
)

// countingServer wires a handler that counts executions and sleeps for svc.
func countingServer(n *Network, name string, svc time.Duration, execs *int) *Server {
	s := NewServer(n.NewNode(name, 0, 0, 2), 2)
	s.Handle("op", func(p *sim.Proc, req Request) Response {
		*execs++
		p.Sleep(svc)
		return Response{Payload: name}
	})
	s.Start()
	return s
}

func TestDedupSuppressesRetryReexecution(t *testing.T) {
	// A slow handler misses the client's first-attempt deadline; the retry
	// re-delivers the same call ID to the same server. With dedup on, the
	// handler must run once: the retry joins the in-flight execution and
	// returns its result.
	k, n := testNet()
	n.EnableDeliveryAccounting()
	client := n.NewNode("cli", 0, 0, 1)
	execs := 0
	s := countingServer(n, "srv", 3*time.Millisecond, &execs)
	s.SetDedup(true)

	c := NewClient(Policy{Deadline: 2 * time.Millisecond, MaxAttempts: 3}, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = c.Call(p, client, s, Request{Method: "op"})
		s.Stop()
	})
	k.Run()
	if resp.Err != nil {
		t.Fatalf("resp.Err = %v (the joined retry should return the original result)", resp.Err)
	}
	if execs != 1 {
		t.Fatalf("handler executed %d times, want 1", execs)
	}
	if s.DupSuppressed == 0 {
		t.Fatal("DupSuppressed = 0, want at least 1 suppressed duplicate")
	}
	if dups := n.DupExecs(); len(dups) != 0 {
		t.Fatalf("DupExecs = %v, want none", dups)
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestDedupReplaysCachedSuccess(t *testing.T) {
	// A second delivery arriving after the first finished replays the cached
	// response without executing the handler again.
	k, n := testNet()
	n.EnableDeliveryAccounting()
	client := n.NewNode("cli", 0, 0, 1)
	execs := 0
	s := countingServer(n, "srv", time.Millisecond, &execs)
	s.SetDedup(true)

	var second Response
	k.Go("client", func(p *sim.Proc) {
		req := Request{Method: "op", CallID: 42}
		if resp, _ := s.Call(p, client, req); resp.Err != nil {
			t.Errorf("first call failed: %v", resp.Err)
		}
		second, _ = s.Call(p, client, req)
		s.Stop()
	})
	k.Run()
	if second.Err != nil || second.Payload != "srv" {
		t.Fatalf("replayed resp = %+v", second)
	}
	if execs != 1 {
		t.Fatalf("handler executed %d times, want 1", execs)
	}
	if got := n.admits[deliveryKey{"srv", 42}]; got != 2 {
		t.Fatalf("Admits = %d, want 2", got)
	}
	if got := n.execs[deliveryKey{"srv", 42}]; got != 1 {
		t.Fatalf("Execs = %d, want 1", got)
	}
}

func TestWithoutDedupDuplicateExecutesTwice(t *testing.T) {
	// Control: the same double delivery without dedup runs the handler twice,
	// and delivery accounting reports the at-most-once violation.
	k, n := testNet()
	n.EnableDeliveryAccounting()
	client := n.NewNode("cli", 0, 0, 1)
	execs := 0
	s := countingServer(n, "srv", time.Millisecond, &execs)

	k.Go("client", func(p *sim.Proc) {
		req := Request{Method: "op", CallID: 42}
		s.Call(p, client, req)
		s.Call(p, client, req)
		s.Stop()
	})
	k.Run()
	if execs != 2 {
		t.Fatalf("handler executed %d times, want 2", execs)
	}
	dups := n.DupExecs()
	if len(dups) != 1 {
		t.Fatalf("DupExecs = %v, want exactly one violation", dups)
	}
}

func TestDedupDoesNotCacheFailures(t *testing.T) {
	// A crashed execution must not poison the cache: after the server is
	// replaced, a retry of the same call ID executes fresh.
	k, n := testNet()
	node := n.NewNode("srv", 0, 0, 1)
	client := n.NewNode("cli", 0, 0, 1)
	execs := 0
	mk := func() *Server {
		s := NewServer(node, 1)
		s.Handle("op", func(p *sim.Proc, req Request) Response {
			execs++
			p.Sleep(time.Millisecond)
			return Response{Payload: "ok"}
		})
		s.SetDedup(true)
		s.Start()
		return s
	}
	s := mk()
	var first, second Response
	k.Go("client", func(p *sim.Proc) {
		first, _ = s.Call(p, client, Request{Method: "op", CallID: 7})
		s2 := mk()
		second, _ = s2.Call(p, client, Request{Method: "op", CallID: 7})
		s2.Stop()
	})
	k.Schedule(500*time.Microsecond, s.Crash)
	k.Run()
	if !errors.Is(first.Err, ErrServerDown) {
		t.Fatalf("first = %+v, want crash error", first)
	}
	if second.Err != nil || second.Payload != "ok" {
		t.Fatalf("second = %+v, want fresh success", second)
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestCallIDsDistinctAcrossClientsAndCalls(t *testing.T) {
	k, n := testNet()
	client := n.NewNode("cli", 0, 0, 1)
	execs := 0
	s := countingServer(n, "srv", time.Millisecond, &execs)

	seen := map[uint64]bool{}
	s.Handle("op", func(p *sim.Proc, req Request) Response {
		if req.CallID == 0 {
			t.Error("policy call delivered with zero CallID")
		}
		if seen[req.CallID] {
			t.Errorf("call ID %#x reused across logical calls", req.CallID)
		}
		seen[req.CallID] = true
		return Response{}
	})
	c1 := NewClient(Policy{MaxAttempts: 2}, 1)
	c2 := NewClient(Policy{MaxAttempts: 2}, 2)
	k.Go("clients", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			c1.Call(p, client, s, Request{Method: "op"})
			c2.Call(p, client, s, Request{Method: "op"})
		}
		s.Stop()
	})
	k.Run()
	if len(seen) != 6 {
		t.Fatalf("distinct call IDs = %d, want 6", len(seen))
	}
}

// Dedup record lifetime: a server holds a call's dedup records only while
// the call is in flight. Each case checks that pendingByID and doneByID are
// empty once every call settles, and that the delivery counts are the ones
// a forever-kept record gives (settling changes no lookup).

func assertSettled(t *testing.T, s *Server) {
	t.Helper()
	if len(s.pendingByID) != 0 || len(s.doneByID) != 0 {
		t.Errorf("after settle: %d pending and %d done dedup records, want none",
			len(s.pendingByID), len(s.doneByID))
	}
}

// assertDeliveries checks one call ID's admissions and executions at srv,
// and the server's suppressed duplicates.
func assertDeliveries(t *testing.T, n *Network, s *Server, id uint64, admits, execs, dups int) {
	t.Helper()
	if got := n.admits[deliveryKey{s.Node.Name, id}]; got != admits {
		t.Errorf("Admits = %d, want %d", got, admits)
	}
	if got := n.execs[deliveryKey{s.Node.Name, id}]; got != execs {
		t.Errorf("Execs = %d, want %d", got, execs)
	}
	if s.DupSuppressed != dups {
		t.Errorf("DupSuppressed = %d, want %d", s.DupSuppressed, dups)
	}
}

// firstCallID is the ID a fresh client's first call gets on a fresh network.
const firstCallID = 1<<32 | 1

func TestDedupRecordSettlesInline(t *testing.T) {
	// With no deadline every attempt runs inline, so the record settles as
	// Client.Call returns: between calls the server holds nothing.
	k, n := testNet()
	n.EnableDeliveryAccounting()
	client := n.NewNode("cli", 0, 0, 1)
	execs := 0
	s := countingServer(n, "srv", time.Millisecond, &execs)
	s.SetDedup(true)

	c := NewClient(Policy{MaxAttempts: 3}, 1)
	k.Go("client", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if resp, _ := c.Call(p, client, s, Request{Method: "op"}); resp.Err != nil {
				t.Errorf("call %d: %v", i, resp.Err)
			}
			assertSettled(t, s)
		}
		s.Stop()
	})
	k.Run()
	if execs != 4 {
		t.Fatalf("handler executed %d times, want 4", execs)
	}
	assertDeliveries(t, n, s, firstCallID, 1, 1, 0)
}

func TestDedupRecordSettlesAfterTimedOutAttemptDrains(t *testing.T) {
	// The only attempt misses its deadline: Client.Call returns while the
	// helper still waits on the handler. The record must outlive the call
	// and settle when that helper returns.
	k, n := testNet()
	n.EnableDeliveryAccounting()
	client := n.NewNode("cli", 0, 0, 1)
	execs := 0
	s := countingServer(n, "srv", 3*time.Millisecond, &execs)
	s.SetDedup(true)

	c := NewClient(Policy{Deadline: 2 * time.Millisecond, MaxAttempts: 1}, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = c.Call(p, client, s, Request{Method: "op"})
		if len(s.pendingByID) != 1 {
			t.Errorf("pending records when the call returned = %d, want 1 (its attempt still drains)", len(s.pendingByID))
		}
		s.Stop()
	})
	k.Run()
	if !errors.Is(resp.Err, ErrDeadlineExceeded) {
		t.Fatalf("resp.Err = %v, want a missed deadline", resp.Err)
	}
	if execs != 1 {
		t.Fatalf("handler executed %d times, want 1", execs)
	}
	assertSettled(t, s)
	assertDeliveries(t, n, s, firstCallID, 1, 1, 0)
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

func TestDedupRecordSettlesAfterJoinedRetry(t *testing.T) {
	// The first attempt times out, the retry joins it in flight; both the
	// call and its first attempt's helper return before the record settles.
	k, n := testNet()
	n.EnableDeliveryAccounting()
	client := n.NewNode("cli", 0, 0, 1)
	execs := 0
	s := countingServer(n, "srv", 3*time.Millisecond, &execs)
	s.SetDedup(true)

	c := NewClient(Policy{Deadline: 2 * time.Millisecond, MaxAttempts: 3}, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = c.Call(p, client, s, Request{Method: "op"})
		s.Stop()
	})
	k.Run()
	if resp.Err != nil {
		t.Fatalf("resp.Err = %v", resp.Err)
	}
	assertSettled(t, s)
	assertDeliveries(t, n, s, firstCallID, 2, 1, 1)
}

func TestDedupRecordReplaysLostResponseThenSettles(t *testing.T) {
	// The handler runs, but a fully lossy reverse link drops its response.
	// The retry must still find the cached success and replay it rather
	// than execute again; the record settles when the call returns.
	k, n := testNet()
	n.EnableDeliveryAccounting()
	client := n.NewNode("cli", 0, 0, 1)
	execs := 0
	s := countingServer(n, "srv", time.Millisecond, &execs)
	s.SetDedup(true)
	n.SetLinkFault("srv", "cli", 0, 1)
	k.Schedule(1200*time.Microsecond, func() { n.HealLink("srv", "cli") })

	c := NewClient(Policy{MaxAttempts: 3, BackoffBase: time.Millisecond}, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = c.Call(p, client, s, Request{Method: "op"})
		s.Stop()
	})
	k.Run()
	if resp.Err != nil || resp.Payload != "srv" {
		t.Fatalf("resp = %+v, want the replayed success", resp)
	}
	if c.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one lost response, one replay)", c.Attempts)
	}
	assertSettled(t, s)
	assertDeliveries(t, n, s, firstCallID, 2, 1, 1)
}

func TestDedupRecordSettlesAfterCrash(t *testing.T) {
	// A crash mid-call fails the in-service attempt; the retry finds the
	// server down. Nothing is cached and the pending record clears.
	k, n := testNet()
	n.EnableDeliveryAccounting()
	client := n.NewNode("cli", 0, 0, 1)
	execs := 0
	s := countingServer(n, "srv", time.Millisecond, &execs)
	s.SetDedup(true)
	k.Schedule(500*time.Microsecond, s.Crash)

	c := NewClient(Policy{MaxAttempts: 2}, 1)
	var resp Response
	k.Go("client", func(p *sim.Proc) {
		resp, _ = c.Call(p, client, s, Request{Method: "op"})
	})
	k.Run()
	if !errors.Is(resp.Err, ErrServerDown) {
		t.Fatalf("resp.Err = %v, want the crash error", resp.Err)
	}
	assertSettled(t, s)
	assertDeliveries(t, n, s, firstCallID, 1, 1, 0)
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}
