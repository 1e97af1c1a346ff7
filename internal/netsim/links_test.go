package netsim

import (
	"errors"
	"testing"
	"time"

	"hyperprof/internal/sim"
)

// Tests for the per-directed-link fault plane: asymmetry, replace-not-stack
// semantics, gray response loss after the handler ran, heal, reachability,
// and the zero-allocation guarantee on the messageDelay hot path.

// linkRig is a two-node network with one echo server per node.
type linkRig struct {
	k        *sim.Kernel
	net      *Network
	a, b     *Node
	sa, sb   *Server
	executed map[string]int
}

func newLinkRig() *linkRig {
	k := sim.New()
	net := New(k, DefaultConfig())
	r := &linkRig{
		k:   k,
		net: net,
		a:   net.NewNode("a", 0, 0, 1),
		b:   net.NewNode("b", 0, 1, 1),
	}
	r.executed = map[string]int{}
	r.sa = NewServer(r.a, 1)
	r.sb = NewServer(r.b, 1)
	for _, s := range []*Server{r.sa, r.sb} {
		name := s.Node.Name
		s.Handle("echo", func(p *sim.Proc, req Request) Response {
			r.executed[name]++
			return Response{Payload: req.Payload}
		})
		s.Start()
	}
	return r
}

func (r *linkRig) call(from *Node, to *Server) error {
	var err error
	r.k.Go("caller", func(p *sim.Proc) {
		resp, _ := to.Call(p, from, Request{Method: "echo"})
		err = resp.Err
	})
	r.k.Run()
	return err
}

func TestBlockedLinkIsAsymmetric(t *testing.T) {
	r := newLinkRig()
	if !r.net.BlockLink("a", "b") {
		t.Fatalf("BlockLink(a, b) reported unknown endpoints")
	}
	if err := r.call(r.a, r.sb); !errors.Is(err, ErrLinkBlocked) {
		t.Fatalf("a->b call error = %v, want ErrLinkBlocked", err)
	}
	if r.executed["b"] != 0 {
		t.Fatalf("handler on b executed %d times across a blocked request link", r.executed["b"])
	}
	// The reverse request direction is untouched: b's call reaches a and the
	// handler runs — but the acknowledgment must cross the blocked a->b link,
	// so b still sees an error for work that happened. That is exactly the
	// "A hears B, B cannot hear A" asymmetry.
	err := r.call(r.b, r.sa)
	if !errors.Is(err, ErrLinkBlocked) {
		t.Fatalf("b->a call error = %v, want ErrLinkBlocked (response lost)", err)
	}
	if r.executed["a"] != 1 {
		t.Fatalf("handler on a executed %d times, want 1 (request direction healthy)", r.executed["a"])
	}
	if r.net.Blocked != 2 {
		t.Fatalf("Blocked = %d, want 2", r.net.Blocked)
	}
}

func TestLinkFaultReplacesNotStacks(t *testing.T) {
	r := newLinkRig()
	r.net.SetLinkFault("a", "b", 5*time.Millisecond, 0)
	// The second window replaces the 5ms surcharge with 1ms.
	r.net.SetLinkFault("a", "b", time.Millisecond, 0)
	base := r.net.TransferTime(r.a, r.b, 0)
	if got, want := r.net.messageDelay(r.a, r.b, 0), base+time.Millisecond; got != want {
		t.Fatalf("messageDelay = %v, want replaced %v (not stacked %v)", got, want, base+6*time.Millisecond)
	}
	// The reverse direction never took a fault.
	if got := r.net.messageDelay(r.b, r.a, 0); got != base {
		t.Fatalf("reverse messageDelay = %v, want unfaulted %v", got, base)
	}
}

func TestGrayResponseLinkLosesAckAfterHandlerRan(t *testing.T) {
	r := newLinkRig()
	// Fault only the response direction b->a: the request arrives, the
	// handler executes, and the acknowledgment is lost — the caller sees an
	// error for work that happened (the indeterminate-outcome case).
	r.net.SetLinkFault("b", "a", 0, 1)
	err := r.call(r.a, r.sb)
	if !errors.Is(err, ErrNetDropped) {
		t.Fatalf("call error = %v, want ErrNetDropped", err)
	}
	if r.executed["b"] != 1 {
		t.Fatalf("handler executed %d times, want 1 (gray loss happens after execution)", r.executed["b"])
	}
}

func TestBlockedResponseLinkIsGrayToo(t *testing.T) {
	r := newLinkRig()
	r.net.BlockLink("b", "a")
	err := r.call(r.a, r.sb)
	if !errors.Is(err, ErrLinkBlocked) {
		t.Fatalf("call error = %v, want ErrLinkBlocked", err)
	}
	if r.executed["b"] != 1 {
		t.Fatalf("handler executed %d times, want 1 (request direction was healthy)", r.executed["b"])
	}
}

func TestHealLinkClearsAllFaults(t *testing.T) {
	r := newLinkRig()
	r.net.BlockLink("a", "b")
	r.net.SetLinkFault("a", "b", time.Millisecond, 0.5)
	r.net.HealLink("a", "b")
	if err := r.call(r.a, r.sb); err != nil {
		t.Fatalf("call after HealLink failed: %v", err)
	}
	base := r.net.TransferTime(r.a, r.b, 0)
	if got := r.net.messageDelay(r.a, r.b, 0); got != base {
		t.Fatalf("messageDelay after heal = %v, want %v", got, base)
	}
}

func TestReachableRequiresBothDirections(t *testing.T) {
	r := newLinkRig()
	if !r.net.Reachable(r.a, r.b) {
		t.Fatalf("healthy pair not reachable")
	}
	r.net.BlockLink("a", "b")
	if r.net.Reachable(r.a, r.b) || r.net.Reachable(r.b, r.a) {
		t.Fatalf("pair with one blocked direction still reachable")
	}
	r.net.HealLink("a", "b")
	// A gray (slow, lossy, unblocked) link still counts as reachable: only
	// full blocks may justify partition recovery.
	r.net.SetLinkFault("a", "b", time.Millisecond, 0.9)
	if !r.net.Reachable(r.a, r.b) {
		t.Fatalf("gray link tripped reachability")
	}
}

func TestLinkFaultUnknownEndpointReportsFalse(t *testing.T) {
	r := newLinkRig()
	if r.net.BlockLink("a", "ghost") || r.net.SetLinkFault("ghost", "b", 0, 1) || r.net.HealLink("ghost", "ghost") {
		t.Fatalf("fault injection on unknown endpoints reported success")
	}
	if err := r.call(r.a, r.sb); err != nil {
		t.Fatalf("call affected by fault against unknown endpoint: %v", err)
	}
}

func TestLinkRNGStreamsDeterministicAcrossFaultOrder(t *testing.T) {
	// The loss decisions a link draws depend only on its endpoints and the
	// link seed — never on the order links were faulted in.
	draw := func(faultOrder [][2]string) []bool {
		k := sim.New()
		net := New(k, DefaultConfig())
		a, b := net.NewNode("a", 0, 0, 1), net.NewNode("b", 0, 1, 1)
		c := net.NewNode("c", 0, 2, 1)
		net.SetLinkSeed(42)
		for _, l := range faultOrder {
			net.SetLinkFault(l[0], l[1], 0, 0.5)
		}
		var out []bool
		for i := 0; i < 32; i++ {
			out = append(out, net.linkDrop(a, b))
		}
		_ = c
		return out
	}
	x := draw([][2]string{{"a", "b"}, {"c", "b"}, {"b", "a"}})
	y := draw([][2]string{{"b", "a"}, {"c", "b"}, {"a", "b"}})
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("draw %d differs across fault-injection orders", i)
		}
	}
}

// TestMessageDelayZeroAllocs pins the RPC hot path: computing a message's
// delay must not allocate, faulted or not — a per-call allocation would turn
// every study into a GC benchmark.
func TestMessageDelayZeroAllocs(t *testing.T) {
	k := sim.New()
	net := New(k, DefaultConfig())
	a, b := net.NewNode("a", 0, 0, 1), net.NewNode("b", 0, 1, 1)
	if n := testing.AllocsPerRun(200, func() { net.messageDelay(a, b, 4096) }); n != 0 {
		t.Fatalf("messageDelay allocates %v times/op on an unfaulted network", n)
	}
	net.SetLinkFault("a", "b", time.Millisecond, 0.1)
	if n := testing.AllocsPerRun(200, func() { net.messageDelay(a, b, 4096) }); n != 0 {
		t.Fatalf("messageDelay allocates %v times/op with a faulted link", n)
	}
}

// BenchmarkNetMessageDelay is the bench-gate guard for the same hot path:
// one faulted link in the map, so the benchmark pays the lookup.
func BenchmarkNetMessageDelay(bm *testing.B) {
	k := sim.New()
	net := New(k, DefaultConfig())
	a, b := net.NewNode("a", 0, 0, 1), net.NewNode("b", 0, 1, 1)
	net.SetLinkFault("a", "b", time.Millisecond, 0.1)
	bm.ReportAllocs()
	var sink time.Duration
	for i := 0; i < bm.N; i++ {
		sink += net.messageDelay(a, b, 4096)
	}
	benchSink = sink
}

var benchSink time.Duration
