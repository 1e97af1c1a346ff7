package netsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
)

// TestAdmissionHardBoundAndPriorityLane fills a 1-worker server's bounded
// queue with slow requests and checks: a further normal arrival is shed with
// ErrOverloaded, while a priority arrival is admitted (doubled bound) and
// overtakes the backlog.
func TestAdmissionHardBoundAndPriorityLane(t *testing.T) {
	k, _, _, client, s := policyFixture(1)
	s.SetAdmission(Admission{MaxQueue: 2})
	var order []string
	s.Handle("op", func(p *sim.Proc, req Request) Response {
		p.Sleep(10 * time.Millisecond)
		order = append(order, req.Payload.(string))
		return Response{}
	})
	s.Start()

	var shedErr, priErr error
	// n1 goes straight to the idle worker; n2 and n3 occupy the two queue
	// slots; n4 finds the queue full and is shed; the priority request uses
	// the doubled bound and jumps the backlog.
	for i, name := range []string{"n1", "n2", "n3"} {
		name := name
		_ = i
		k.Go(name, func(p *sim.Proc) {
			resp, _ := s.Call(p, client, Request{Method: "op", Payload: name})
			if resp.Err != nil {
				t.Errorf("%s: unexpected error %v", name, resp.Err)
			}
		})
	}
	k.Go("n4", func(p *sim.Proc) {
		resp, _ := s.Call(p, client, Request{Method: "op", Payload: "n4"})
		shedErr = resp.Err
	})
	k.Go("pri", func(p *sim.Proc) {
		resp, _ := s.Call(p, client, Request{Method: "op", Payload: "pri", Priority: true})
		priErr = resp.Err
	})
	k.Run()

	if !errors.Is(shedErr, ErrOverloaded) {
		t.Fatalf("normal arrival past bound: err = %v, want ErrOverloaded", shedErr)
	}
	if priErr != nil {
		t.Fatalf("priority arrival: err = %v, want admitted", priErr)
	}
	if s.Shed != 1 || s.ShedAdaptive != 0 || s.Expired != 0 {
		t.Fatalf("Shed=%d ShedAdaptive=%d Expired=%d, want 1/0/0", s.Shed, s.ShedAdaptive, s.Expired)
	}
	// Service order: n1 was in service, then the priority request overtakes
	// the queued n2 and n3.
	want := []string{"n1", "pri", "n2", "n3"}
	if len(order) != len(want) {
		t.Fatalf("served %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
	s.Stop()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

// TestAdaptiveShedRampsWithDepth drives arrivals into a deep standing queue
// and checks that probabilistic shedding engages between the threshold and
// the hard bound, deterministically for a fixed seed.
func TestAdaptiveShedRampsWithDepth(t *testing.T) {
	k, _, _, client, s := policyFixture(1)
	s.SetAdmission(Admission{MaxQueue: 20, ShedStartFrac: 0.5, Seed: 7})
	s.Handle("op", func(p *sim.Proc, req Request) Response {
		p.Sleep(time.Millisecond)
		return Response{}
	})
	s.Start()
	var admitted, shed int
	k.Go("storm", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			k.Go("call", func(cp *sim.Proc) {
				resp, _ := s.Call(cp, client, Request{Method: "op"})
				if resp.Err == nil {
					admitted++
				} else if errors.Is(resp.Err, ErrOverloaded) {
					shed++
				}
			})
			p.Sleep(50 * time.Microsecond) // 20000/s offered vs 1000/s capacity
		}
	})
	k.Run()
	if s.ShedAdaptive == 0 {
		t.Fatalf("adaptive shedding never engaged (Shed=%d ShedAdaptive=%d)", s.Shed, s.ShedAdaptive)
	}
	if admitted+shed != 200 {
		t.Fatalf("admitted %d + shed %d != 200", admitted, shed)
	}
	// Replay with the same seed must give identical decisions.
	k2, _, _, client2, s2 := policyFixture(1)
	s2.SetAdmission(Admission{MaxQueue: 20, ShedStartFrac: 0.5, Seed: 7})
	s2.Handle("op", func(p *sim.Proc, req Request) Response {
		p.Sleep(time.Millisecond)
		return Response{}
	})
	s2.Start()
	k2.Go("storm", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			k2.Go("call", func(cp *sim.Proc) { s2.Call(cp, client2, Request{Method: "op"}) })
			p.Sleep(50 * time.Microsecond)
		}
	})
	k2.Run()
	if s2.Shed != s.Shed || s2.ShedAdaptive != s.ShedAdaptive {
		t.Fatalf("replay diverged: (%d,%d) vs (%d,%d)", s2.Shed, s2.ShedAdaptive, s.Shed, s.ShedAdaptive)
	}
}

// TestCoDelExpiryCountedOnceNotTwice is the satellite edge case: with a
// bounded queue AND queue-deadline expiry armed, each failed request is
// counted in exactly one bucket — shed at arrival or expired at dequeue,
// never both.
func TestCoDelExpiryCountedOnceNotTwice(t *testing.T) {
	k, _, _, client, s := policyFixture(1)
	s.SetAdmission(Admission{MaxQueue: 2, Target: time.Millisecond, Interval: 2 * time.Millisecond})
	s.Handle("op", func(p *sim.Proc, req Request) Response {
		p.Sleep(10 * time.Millisecond)
		return Response{}
	})
	s.Start()
	var overloaded, expired, ok int
	for i := 0; i < 4; i++ {
		k.Go("call", func(p *sim.Proc) {
			resp, _ := s.Call(p, client, Request{Method: "op"})
			switch {
			case resp.Err == nil:
				ok++
			case errors.Is(resp.Err, ErrOverloaded):
				overloaded++
			case errors.Is(resp.Err, ErrExpired):
				expired++
			default:
				t.Errorf("unexpected error: %v", resp.Err)
			}
		})
	}
	k.Run()
	// c1 runs immediately; c2 and c3 queue; c4 is shed at the hard bound.
	// c2 dequeues at 10ms with sojourn over target (arms the CoDel state but
	// is serviced); c3 dequeues at 20ms, still above target a full interval
	// later, and expires.
	if ok != 2 || overloaded != 1 || expired != 1 {
		t.Fatalf("ok=%d overloaded=%d expired=%d, want 2/1/1", ok, overloaded, expired)
	}
	if s.Shed != 1 || s.Expired != 1 {
		t.Fatalf("server counters Shed=%d Expired=%d, want 1/1", s.Shed, s.Expired)
	}
	if s.Shed+s.ShedAdaptive+s.Expired != overloaded+expired {
		t.Fatalf("a request was double-counted: server %d+%d+%d vs client %d+%d",
			s.Shed, s.ShedAdaptive, s.Expired, overloaded, expired)
	}
	s.Stop()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

// TestRetryBudgetExhaustedMidBackoff is the satellite edge case: two calls
// share a client whose bucket holds one token; both fail their first attempt
// and back off, the first waker spends the last token, and the second finds
// the bucket empty when its backoff ends — the retry it already committed to
// is suppressed.
func TestRetryBudgetExhaustedMidBackoff(t *testing.T) {
	k, _, _, client, s := policyFixture(1)
	// Server never started: every attempt fails fast with ErrNotStarted.
	c := NewClient(Policy{
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		RetryBudget: 1,
	}, 42)
	var errs []error
	for i := 0; i < 2; i++ {
		k.Go("call", func(p *sim.Proc) {
			resp, _ := c.Call(p, client, s, Request{Method: "op"})
			errs = append(errs, resp.Err)
		})
	}
	k.Run()
	if c.BudgetExhausted == 0 {
		t.Fatalf("budget never exhausted (Retries=%d, tokens=%v)", c.Retries, c.budget)
	}
	if c.Retries != 1 {
		t.Fatalf("Retries = %d, want exactly the 1 budgeted retry", c.Retries)
	}
	for _, err := range errs {
		if !errors.Is(err, ErrNotStarted) {
			t.Fatalf("err = %v, want ErrNotStarted", err)
		}
	}
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

// TestRetryBudgetRefillsOnSuccess checks the token-bucket refill: each
// success credits retryRefill tokens up to the cap, re-arming retries only
// while the fleet is healthy.
func TestRetryBudgetRefillsOnSuccess(t *testing.T) {
	k, _, _, client, s := policyFixture(1)
	s.Handle("op", func(p *sim.Proc, req Request) Response { return Response{} })
	s.Start()
	c := NewClient(Policy{MaxAttempts: 2, RetryBudget: 2}, 1)
	// Drain the bucket: impossible method errors are application-level and
	// not retryable, so instead drain via a second, never-started server.
	dead := NewServer(s.Node.net.NewNode("dead", 0, 0, 1), 1)
	k.Go("drain", func(p *sim.Proc) {
		c.Call(p, client, dead, Request{Method: "op"}) // spends 1 token
		c.Call(p, client, dead, Request{Method: "op"}) // spends 1 token
		if c.budget != 0 {
			t.Errorf("tokens = %v after drain, want 0", c.budget)
		}
		for i := 0; i < 5; i++ {
			c.Call(p, client, s, Request{Method: "op"})
		}
		// Sums of 0.1 are not exact in floating point.
		if got := c.budget; math.Abs(got-5*retryRefill) > 1e-9 {
			t.Errorf("tokens = %v after 5 successes, want %v", got, 5*retryRefill)
		}
		for i := 0; i < 20; i++ {
			c.Call(p, client, s, Request{Method: "op"})
		}
		if got := c.budget; got != 2 {
			t.Errorf("tokens = %v after 25 successes, want the cap 2", got)
		}
	})
	k.Run()
	s.Stop()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

// TestBreakerOpensFastFailsAndProbes walks the breaker lifecycle: consecutive
// failures open it, opens fast-fail without network attempts, the cooldown
// admits a single half-open probe, and a probe success closes it.
func TestBreakerOpensFastFailsAndProbes(t *testing.T) {
	k, _, _, client, s := policyFixture(1)
	healthy := false
	s.Handle("op", func(p *sim.Proc, req Request) Response {
		if !healthy {
			p.Sleep(10 * time.Millisecond) // force the deadline to trip
		}
		return Response{}
	})
	s.Start()
	c := NewClient(Policy{
		Deadline:        time.Millisecond,
		MaxAttempts:     1,
		BreakerFailures: 3,
		BreakerCooldown: 20 * time.Millisecond,
	}, 9)
	k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			resp, _ := c.Call(p, client, s, Request{Method: "op"})
			if !errors.Is(resp.Err, ErrDeadlineExceeded) {
				t.Errorf("call %d: err = %v, want deadline", i, resp.Err)
			}
		}
		if !breakerIsOpen(c, s) {
			t.Errorf("breaker not open after 3 consecutive failures")
		}
		attemptsBefore := c.Attempts
		resp, _ := c.Call(p, client, s, Request{Method: "op"})
		if !errors.Is(resp.Err, ErrCircuitOpen) {
			t.Errorf("open-breaker call: err = %v, want ErrCircuitOpen", resp.Err)
		}
		if c.Attempts != attemptsBefore {
			t.Errorf("open breaker sent a network attempt")
		}
		if c.BreakerFastFails != 1 {
			t.Errorf("BreakerFastFails = %d, want 1", c.BreakerFastFails)
		}
		// Wait out the cooldown; the next call is the half-open probe and
		// succeeds, closing the breaker.
		healthy = true
		p.Sleep(25 * time.Millisecond)
		resp, _ = c.Call(p, client, s, Request{Method: "op"})
		if resp.Err != nil {
			t.Errorf("probe call failed: %v", resp.Err)
		}
		if breakerIsOpen(c, s) {
			t.Errorf("breaker still open after successful probe")
		}
		if c.BreakerOpens != 1 {
			t.Errorf("BreakerOpens = %d, want 1", c.BreakerOpens)
		}
	})
	k.Run()
	s.Stop()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
}

// TestTenantGovernorIsolationAndFairness checks the reserved weighted shares:
// a flash-crowd tenant saturating its own share is throttled there while the
// other tenants' admissions are untouched, and the fairness index reflects
// weight-normalized goodput.
func TestTenantGovernorIsolationAndFairness(t *testing.T) {
	g := NewTenantGovernor(10)
	a := g.AddTenant("interactive", 3)
	b := g.AddTenant("batch", 1)
	fl := g.AddTenant("flash", 1)
	// Shares: 10*3/5=6, 10*1/5=2, 10*1/5=2.

	// Flash crowd: 50 arrivals, only its share of 2 admitted.
	for i := 0; i < 50; i++ {
		if g.Admit(fl) {
			continue
		}
	}
	if fl.Admitted != 2 || fl.Throttled != 48 {
		t.Fatalf("flash Admitted=%d Throttled=%d, want 2/48", fl.Admitted, fl.Throttled)
	}
	// The other tenants still get their full shares despite the crowd.
	for i := 0; i < 6; i++ {
		if !g.Admit(a) {
			t.Fatalf("interactive throttled at inFlight=%d, share should be 6", i)
		}
	}
	if g.Admit(a) {
		t.Fatalf("interactive admitted past its share")
	}
	for i := 0; i < 2; i++ {
		if !g.Admit(b) {
			t.Fatalf("batch throttled at inFlight=%d, share should be 2", i)
		}
	}
	// Complete everything successfully and check fairness accounting.
	for i := 0; i < 6; i++ {
		g.Done(a, true)
	}
	for i := 0; i < 2; i++ {
		g.Done(b, true)
	}
	for i := 0; i < 2; i++ {
		g.Done(fl, true)
	}
	// Weight-normalized goodput: 6/3=2, 2/1=2, 2/1=2 — perfectly fair.
	if f := jainFairness(g.tenants); f < 0.999 {
		t.Fatalf("fairness = %v, want ~1.0 for proportional goodput", f)
	}
	if g.ThrottledTotal != 49 {
		t.Fatalf("ThrottledTotal = %d, want 49", g.ThrottledTotal)
	}
}

// overloadRun drives a fixed open-loop Poisson arrival schedule against one
// echo server and returns goodput (successful completions) per 100ms window,
// indexed by completion time. The trigger is an 8x service-time brownout over
// [500ms, 800ms). Arrival draws come from a dedicated RNG so the schedule is
// identical across configurations — only the control plane differs.
func overloadRun(t *testing.T, pol Policy, adm Admission) []int {
	t.Helper()
	k, n := testNet()
	serverNode := n.NewNode("srv", 0, 0, 8)
	clientNode := n.NewNode("cli", 0, 0, 8)
	s := NewServer(serverNode, 4) // 4 workers x 1ms service = 4000/s capacity
	s.SetAdmission(adm)
	s.Handle("op", func(p *sim.Proc, req Request) Response {
		p.Sleep(time.Millisecond)
		return Response{}
	})
	s.Start()
	c := NewClient(pol, 99)

	const (
		horizon  = 2 * time.Second
		window   = 100 * time.Millisecond
		meanGap  = 312500 * time.Nanosecond // ~3200/s offered (80% of capacity)
		trigAt   = 500 * time.Millisecond
		trigEnd  = 800 * time.Millisecond
		trigMult = 8.0
	)
	k.Schedule(trigAt, func() { s.SetSlowdown(trigMult) })
	k.Schedule(trigEnd, func() { s.SetSlowdown(1) })

	windows := make([]int, int(horizon/window)+1)
	arrivals := stats.NewRNG(1234)
	k.Go("open-loop", func(p *sim.Proc) {
		for {
			p.Sleep(time.Duration(arrivals.Exp(float64(meanGap))))
			if p.Now() >= horizon {
				return
			}
			k.Go("op", func(op *sim.Proc) {
				resp, _ := c.Call(op, clientNode, s, Request{Method: "op"})
				if resp.Err == nil {
					w := int(op.Now() / window)
					if w < len(windows) {
						windows[w]++
					}
				}
			})
		}
	})
	k.Run()
	s.Stop()
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("leaked procs: %d", k.Live())
	}
	return windows
}

// TestRetryStormMetastability is the acceptance-criteria regression test: an
// open-loop workload at 80% utilization with a transient 8x brownout. The
// naive configuration (unbounded queue, eager retries, no budget) enters a
// metastable state — goodput stays collapsed long after the trigger clears,
// because retry amplification keeps offered load above capacity and the
// standing queue keeps every request past its deadline. The overload plane
// (bounded queue + CoDel expiry + adaptive shed + retry budget + breaker)
// recovers to healthy goodput.
func TestRetryStormMetastability(t *testing.T) {
	naivePol := Policy{
		Deadline:    20 * time.Millisecond,
		MaxAttempts: 4,
		BackoffBase: 500 * time.Microsecond,
		BackoffMax:  2 * time.Millisecond,
	}
	protectedPol := naivePol
	protectedPol.RetryBudget = 50
	protectedPol.BreakerFailures = 10
	protectedPol.BreakerCooldown = 50 * time.Millisecond
	adm := Admission{
		MaxQueue:      64,
		Target:        5 * time.Millisecond,
		Interval:      20 * time.Millisecond,
		ShedStartFrac: 0.5,
		Seed:          77,
	}

	naive := overloadRun(t, naivePol, Admission{})
	protected := overloadRun(t, protectedPol, adm)

	// Goodput in completions per window: pre-trigger [0, 500ms), and the
	// post-trigger steady state [1500ms, 2000ms) — 700ms after the trigger
	// cleared.
	sum := func(w []int, from, to int) int {
		total := 0
		for i := from; i < to && i < len(w); i++ {
			total += w[i]
		}
		return total
	}
	naivePre, naivePost := sum(naive, 0, 5), sum(naive, 15, 20)
	protPre, protPost := sum(protected, 0, 5), sum(protected, 15, 20)

	if naivePre < 1000 || protPre < 1000 {
		t.Fatalf("pre-trigger goodput implausibly low: naive=%d protected=%d", naivePre, protPre)
	}
	// Metastability: the naive config never recovers after the trigger clears.
	if float64(naivePost) >= 0.3*float64(naivePre) {
		t.Fatalf("naive config recovered (pre=%d post=%d): retry storm not metastable", naivePre, naivePost)
	}
	// The overload plane restores at least 90% of pre-trigger goodput.
	if float64(protPost) < 0.9*float64(protPre) {
		t.Fatalf("overload plane failed to recover (pre=%d post=%d)", protPre, protPost)
	}
}

// TestOverloadRunDeterministic pins the byte-level reproducibility of the
// metastability scenario: two identical runs produce identical goodput
// windows.
func TestOverloadRunDeterministic(t *testing.T) {
	pol := Policy{
		Deadline:        20 * time.Millisecond,
		MaxAttempts:     4,
		BackoffBase:     500 * time.Microsecond,
		BackoffMax:      2 * time.Millisecond,
		RetryBudget:     50,
		BreakerFailures: 10,
		BreakerCooldown: 50 * time.Millisecond,
	}
	adm := Admission{MaxQueue: 64, Target: 5 * time.Millisecond, Interval: 20 * time.Millisecond, ShedStartFrac: 0.5, Seed: 77}
	a := overloadRun(t, pol, adm)
	b := overloadRun(t, pol, adm)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("window %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

// breakerIsOpen reports whether c's breaker for s is open.
func breakerIsOpen(c *Client, s *Server) bool {
	b := c.breakers[s]
	return b != nil && b.state == breakerOpen
}

// jainFairness is Jain's fairness index over the tenants' weight-normalized
// success counts: 1.0 means every tenant got goodput exactly proportional
// to its weight, 1/n means one tenant got everything.
func jainFairness(tenants []*Tenant) float64 {
	var sum, sumSq float64
	for _, t := range tenants {
		x := float64(t.Successes) / t.Weight
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(tenants)) * sumSq)
}
