package netsim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"hyperprof/internal/sim"
)

// The tests in this file pin the lifetime of the recycled call records: a
// record goes back on the network's free list only when nothing can read it
// again, so the call that takes it next cannot be disturbed by its last user.

// echoServer serves "op" by sleeping the request's Bytes as microseconds and
// answering with the request's payload.
func echoServer(n *Network, name string, workers int) *Server {
	s := NewServer(n.NewNode(name, 0, 0, workers), workers)
	s.Handle("op", func(p *sim.Proc, req Request) Response {
		p.Sleep(time.Duration(req.Bytes) * time.Microsecond)
		return Response{Payload: req.Payload}
	})
	s.Start()
	return s
}

// TestJoinerReadsItsResponseAfterRecordReuse: a dedup joiner that wakes after
// the call's caller has released the record still reads the response it
// joined. The caller calls from the server's own node, so its response
// transfer is free and it issues a second call, which takes a record from the
// free list, before the joiner runs.
func TestJoinerReadsItsResponseAfterRecordReuse(t *testing.T) {
	k, n := testNet()
	s := echoServer(n, "srv", 1)
	s.SetDedup(true)
	var joined Response
	k.Go("caller", func(p *sim.Proc) {
		s.Call(p, s.Node, Request{Method: "op", CallID: 7, Bytes: 1000, Payload: "first"})
		s.Call(p, s.Node, Request{Method: "op", CallID: 8, Bytes: 1000, Payload: "second"})
		s.Stop()
	})
	k.Go("joiner", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		joined, _ = s.Call(p, s.Node, Request{Method: "op", CallID: 7, Payload: "first"})
	})
	k.Run()
	if joined.Err != nil || joined.Payload != "first" {
		t.Fatalf("joiner read %+v, want the joined call's payload %q", joined, "first")
	}
	if s.DupSuppressed != 1 {
		t.Fatalf("DupSuppressed = %d, want 1 (the joiner must join)", s.DupSuppressed)
	}
}

// TestStaleWorkerLeavesNextUserAlone: a crash fails a call in service, its
// caller releases the record, and a call to a second server on the same
// network could take it (a crashed server admits nothing, so the next user
// is always on another server). When the crashed server's handler returns
// later, its worker must not fire the record: the next call still gets its
// own server's response at its own server's time, and leaves service there.
func TestStaleWorkerLeavesNextUserAlone(t *testing.T) {
	k, n := testNet()
	s1 := echoServer(n, "s1", 1)
	s2 := echoServer(n, "s2", 1)
	k.Schedule(time.Millisecond, s1.Crash)
	var first, next Response
	var nextTook time.Duration
	k.Go("caller", func(p *sim.Proc) {
		first, _ = s1.Call(p, s1.Node, Request{Method: "op", Bytes: 10000, Payload: "s1"})
		next, nextTook = s2.Call(p, s2.Node, Request{Method: "op", Bytes: 20000, Payload: "s2"})
		s2.Stop()
	})
	k.Run()
	if !errors.Is(first.Err, ErrServerDown) {
		t.Fatalf("crashed call: %v, want ErrServerDown", first.Err)
	}
	if next.Err != nil || next.Payload != "s2" || nextTook != 20*time.Millisecond {
		t.Fatalf("next call: %+v after %v, want payload s2 after 20ms", next, nextTook)
	}
	if len(s2.inService) != 0 || k.Live() != 0 {
		t.Fatalf("after the run: %d in service on s2, %d live procs; want 0 and 0", len(s2.inService), k.Live())
	}
}

// TestDeadlineTimerHoldsAttemptRecord: an attempt that finishes before its
// deadline leaves its deadline event pending, and that event fires on the
// record later. Until it has, the record must not be reused: the next call's
// attempt, still in flight when the first deadline passes, must not see its
// gate fired by it.
func TestDeadlineTimerHoldsAttemptRecord(t *testing.T) {
	k, n := testNet()
	s := echoServer(n, "srv", 1)
	c := NewClient(Policy{Deadline: 10 * time.Millisecond}, 1)
	var fast, slow Response
	k.Go("caller", func(p *sim.Proc) {
		fast, _ = c.Call(p, s.Node, s, Request{Method: "op", Bytes: 1000, Payload: "fast"})
		// In flight from 1ms to 10.5ms: across the first attempt's deadline
		// at 10ms, inside its own at 11ms.
		slow, _ = c.Call(p, s.Node, s, Request{Method: "op", Bytes: 9500, Payload: "slow"})
		s.Stop()
	})
	k.Run()
	if fast.Err != nil || slow.Err != nil || slow.Payload != "slow" || c.Deadlines != 0 {
		t.Fatalf("fast %+v, slow %+v, %d deadlines; want both served and 0 deadlines", fast, slow, c.Deadlines)
	}
}

// TestClientCallAllocFree pins the steady-state RPC round trip at zero
// allocations, for the inline path (no deadline) and the deadline path (a
// helper process per attempt): the server's call record, the deadline
// policy's call and attempt records and the helper's Proc all come from free
// lists. Each run is one call through a client process woken by a queue; the
// Gosched lets an exited helper goroutine finish so the runtime reuses it.
func TestClientCallAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"inline", Policy{}},
		{"deadline", Policy{Deadline: time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, n := testNet()
			s := echoServer(n, "srv", 1)
			s.SetDedup(true)
			from := n.NewNode("cli", 0, 0, 1)
			c := NewClient(tc.policy, 1)
			next := sim.NewQueue[*Request](k)
			served := 0
			k.Go("client", func(p *sim.Proc) {
				for req := sim.GetQueue(p, next); req != nil; req = sim.GetQueue(p, next) {
					if resp, _ := c.Call(p, from, s, *req); resp.Err == nil {
						served++
					}
				}
			})
			req := &Request{Method: "op", Bytes: 64}
			avg := testing.AllocsPerRun(100, func() {
				next.Put(req)
				k.Run()
				runtime.Gosched()
			})
			if avg != 0 || served != 101 {
				t.Fatalf("Client.Call: %.2f allocs/call, %d of 101 served; want 0 and 101", avg, served)
			}
			k.Close()
		})
	}
}
