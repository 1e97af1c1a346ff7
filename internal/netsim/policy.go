package netsim

// This file implements client-side RPC resilience policies: per-call
// deadlines, retries with exponential backoff and deterministic jitter, and
// hedged backup requests after a p-quantile delay. Together with the
// server-side bounded queues these are the production mechanisms that shape
// the tail behaviour the paper's SLO discussion (§5.6) attributes to
// resilience machinery rather than raw service time.

import (
	"errors"
	"fmt"
	"time"

	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
)

// Policy configures client-side call resilience. The zero value is a plain
// call: no deadline, single attempt, no hedging — and takes a fast path that
// is event-for-event identical to Server.Call, so wiring a Client through a
// platform does not perturb fault-free runs.
type Policy struct {
	// Deadline bounds each attempt; 0 disables. An attempt that misses its
	// deadline returns ErrDeadlineExceeded; the late response is discarded
	// when it eventually arrives (its server-side work is wasted, as in
	// production).
	Deadline time.Duration
	// MaxAttempts is the total attempt budget including the first; values
	// below 1 mean 1 (no retry).
	MaxAttempts int
	// BackoffBase is the backoff before the first retry; it doubles each
	// further retry and is capped at BackoffMax. A zero base retries
	// immediately.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HedgeQuantile, when in (0,1], arms hedging: once the client has
	// observed at least hedgeMinSamples completed calls, a backup request is
	// sent to the next replica if the primary has not answered within that
	// quantile of observed latencies. Before enough samples exist,
	// HedgeDelay (if nonzero) is used as the bootstrap delay.
	HedgeQuantile float64
	// HedgeDelay is the fixed (or bootstrap) hedge delay; 0 with a zero
	// HedgeQuantile disables hedging.
	HedgeDelay time.Duration
	// Retryable decides which errors are retried/failed-over; nil means
	// DefaultRetryable.
	Retryable func(error) bool

	// RetryBudget arms the per-client retry token bucket: the bucket starts
	// full at RetryBudget tokens, every retry spends one, and every
	// successful call refills RetryRefill tokens (capped at RetryBudget).
	// Retries therefore amplify only while the fleet is healthy — the
	// defense against retry-storm metastability. 0 disables budgeting.
	RetryBudget float64
	// RetryRefill is the token refill per success; 0 with a nonzero
	// RetryBudget means the default 0.1 (one retry earned per ten
	// successes).
	RetryRefill float64

	// BreakerFailures arms per-target circuit breakers: after this many
	// consecutive retryable failures against one target, the breaker opens
	// and attempts fast-fail with ErrCircuitOpen (no network traffic) until
	// BreakerCooldown has elapsed, when a single half-open probe decides
	// whether to close it. 0 disables breakers.
	BreakerFailures int
	BreakerCooldown time.Duration
}

// hedgeMinSamples is how many completed calls the client needs before it
// trusts its latency histogram for quantile-based hedge delays.
const hedgeMinSamples = 16

// DefaultRetryable reports whether an RPC error is safely retryable at
// another replica or a later time: connection-level failures (server down or
// not yet started), shed load, missed deadlines, and degradation drops.
// Application-level handler errors are not retryable by default.
func DefaultRetryable(err error) bool {
	return errors.Is(err, ErrServerDown) || errors.Is(err, ErrNotStarted) ||
		errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, ErrNetDropped) || errors.Is(err, ErrExpired) ||
		errors.Is(err, ErrCircuitOpen)
}

// Client issues RPCs under a resilience policy and accounts what the policy
// did. It is not safe for concurrent use from real threads, but the
// simulation kernel's strict alternation makes per-kernel sharing safe.
type Client struct {
	policy Policy
	rng    *stats.RNG
	lats   stats.Summary

	// Call-ID assignment: id is handed out lazily by the network of the first
	// call's target, seq increments per logical call. Retries and hedges of
	// one logical call share its ID so servers can deduplicate them.
	id      uint64
	nextSeq uint64

	// Retry-budget state: the token bucket, shared by every call through
	// this client (see Policy.RetryBudget).
	budget float64
	// breakers holds one circuit breaker per target this client has called.
	breakers map[*Server]*breaker

	// Counters for reports and tests.
	Calls, Attempts, Retries int
	Hedges, HedgeWins        int
	Deadlines, Failovers     int
	// BudgetExhausted counts retries suppressed by an empty token bucket,
	// BreakerOpens counts closed/half-open -> open transitions, and
	// BreakerFastFails counts attempts answered with ErrCircuitOpen without
	// touching the network.
	BudgetExhausted  int
	BreakerOpens     int
	BreakerFastFails int
}

// NewClient creates a client with the given policy; seed drives backoff
// jitter (and nothing else), so equal seeds give bit-identical behaviour.
func NewClient(policy Policy, seed uint64) *Client {
	if policy.RetryBudget > 0 && policy.RetryRefill <= 0 {
		policy.RetryRefill = 0.1
	}
	return &Client{policy: policy, rng: stats.NewRNG(seed), budget: policy.RetryBudget}
}

// Policy returns the client's policy.
func (c *Client) Policy() Policy { return c.policy }

// callID mints the next logical call ID: client ID in the high bits, per-call
// sequence in the low. The client ID comes from the target's network so equal
// seeds on independent simulations stay bit-identical.
func (c *Client) callID(n *Network) uint64 {
	if c.id == 0 {
		n.nextClientID++
		c.id = uint64(n.nextClientID)
	}
	c.nextSeq++
	return c.id<<32 | c.nextSeq
}

func (c *Client) retryable(err error) bool {
	if c.policy.Retryable != nil {
		return c.policy.Retryable(err)
	}
	return DefaultRetryable(err)
}

// backoff returns the jittered backoff before retry number retry (1-based).
func (c *Client) backoff(retry int) time.Duration {
	if c.policy.BackoffBase <= 0 {
		return 0
	}
	d := c.policy.BackoffBase << uint(retry-1)
	if c.policy.BackoffMax > 0 && d > c.policy.BackoffMax {
		d = c.policy.BackoffMax
	}
	// Deterministic jitter: ±50% from the client's seeded stream, decorrelating
	// retry storms without real randomness.
	return time.Duration(c.rng.Jitter(float64(d), 0.5))
}

// observe records a completed call latency for quantile-based hedging. Only
// a client with quantile hedging armed keeps samples: the summary is
// unbounded, and nothing else reads it.
func (c *Client) observe(d time.Duration) {
	if c.policy.HedgeQuantile > 0 {
		c.lats.Add(float64(d))
	}
}

// spendRetryToken takes one token from the retry budget, reporting whether
// the retry may proceed. With budgeting disabled it always allows. The check
// happens after the backoff sleep, so a concurrent call through the shared
// client can drain the bucket while this call backs off — exactly the
// behaviour that stops a storm already in flight.
func (c *Client) spendRetryToken(net *Network) bool {
	if c.policy.RetryBudget <= 0 {
		return true
	}
	if c.budget < 1 {
		c.BudgetExhausted++
		net.m.budgetExhausted.Inc()
		return false
	}
	c.budget--
	return true
}

// refillBudget credits the bucket for one successful call.
func (c *Client) refillBudget() {
	if c.policy.RetryBudget <= 0 {
		return
	}
	c.budget += c.policy.RetryRefill
	if c.budget > c.policy.RetryBudget {
		c.budget = c.policy.RetryBudget
	}
}

// RetryTokens returns the current retry-budget balance (tests/monitoring).
func (c *Client) RetryTokens() float64 { return c.budget }

// breakerFor returns the target's breaker, creating it on first use; nil
// when breakers are disabled.
func (c *Client) breakerFor(s *Server) *breaker {
	if c.policy.BreakerFailures <= 0 {
		return nil
	}
	if c.breakers == nil {
		c.breakers = map[*Server]*breaker{}
	}
	b := c.breakers[s]
	if b == nil {
		b = &breaker{}
		c.breakers[s] = b
	}
	return b
}

// breakerAllows decides whether an attempt against s may go out now. An
// open breaker whose cooldown has elapsed moves to half-open and admits this
// one attempt as the probe; while half-open, every other attempt fast-fails.
func (c *Client) breakerAllows(s *Server, now time.Duration) bool {
	b := c.breakerFor(s)
	if b == nil {
		return true
	}
	switch b.state {
	case breakerOpen:
		if now-b.openedAt >= c.policy.BreakerCooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	case breakerHalfOpen:
		return false
	}
	return true
}

// noteResult feeds one definite attempt outcome into the target's breaker:
// any success (or non-retryable application error — the server is healthy,
// the request was wrong) closes it; consecutive retryable failures open it,
// and a failed half-open probe re-opens it immediately.
func (c *Client) noteResult(s *Server, err error, now time.Duration) {
	b := c.breakerFor(s)
	if b == nil {
		return
	}
	if err == nil || !c.retryable(err) {
		b.state = breakerClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == breakerHalfOpen || b.fails >= c.policy.BreakerFailures {
		if b.state != breakerOpen {
			c.BreakerOpens++
			s.Node.net.m.breakerOpens.Inc()
		}
		b.state = breakerOpen
		b.openedAt = now
	}
}

// BreakerOpenFor reports whether the client's breaker for s is currently
// open (tests/monitoring).
func (c *Client) BreakerOpenFor(s *Server) bool {
	if c.policy.BreakerFailures <= 0 || c.breakers == nil {
		return false
	}
	b := c.breakers[s]
	return b != nil && b.state == breakerOpen
}

// hedgeDelay returns the current hedge trigger delay, or 0 if hedging is
// disabled.
func (c *Client) hedgeDelay() time.Duration {
	if c.policy.HedgeQuantile > 0 && c.lats.N() >= hedgeMinSamples {
		return time.Duration(c.lats.Quantile(c.policy.HedgeQuantile))
	}
	return c.policy.HedgeDelay
}

// attempt performs one attempt against s, honoring the per-attempt deadline.
// Without a deadline it calls inline (zero overhead); with one, the attempt
// runs in a helper process so the caller can give up at the deadline while
// the attempt drains in the background (every server failure mode produces a
// response, so helpers never leak).
func (c *Client) attempt(p *sim.Proc, from *Node, s *Server, req Request) Response {
	c.Attempts++
	s.Node.net.m.attempts.Inc()
	if c.policy.Deadline <= 0 {
		resp, _ := s.Call(p, from, req)
		return resp
	}
	k := s.Node.net.k
	var resp Response
	done := sim.NewSignal(k)
	k.Go(fmt.Sprintf("rpc-attempt/%s", req.Method), func(ap *sim.Proc) {
		r, _ := s.Call(ap, from, req)
		resp = r
		done.Fire()
	})
	gate := sim.NewSignal(k)
	done.OnFire(gate.Fire)
	k.Schedule(c.policy.Deadline, gate.Fire)
	p.Wait(gate)
	if !done.Fired() {
		c.Deadlines++
		s.Node.net.m.deadlines.Inc()
		return Response{Err: fmt.Errorf("%w: %s after %v", ErrDeadlineExceeded, req.Method, c.policy.Deadline)}
	}
	return resp
}

// Call performs a policy-driven RPC against a single server: deadline per
// attempt, retries with exponential backoff and jitter.
func (c *Client) Call(p *sim.Proc, from *Node, s *Server, req Request) (Response, time.Duration) {
	return c.CallAny(p, from, []*Server{s}, req)
}

// CallAny performs a policy-driven RPC that fails over across targets:
// attempt i goes to targets[i mod len(targets)], so retries rotate through
// the replica set. It returns the last response and total elapsed time.
func (c *Client) CallAny(p *sim.Proc, from *Node, targets []*Server, req Request) (Response, time.Duration) {
	if len(targets) == 0 {
		return Response{Err: fmt.Errorf("netsim: no targets for %s", req.Method)}, 0
	}
	net := targets[0].Node.net
	c.Calls++
	net.m.calls.Inc()
	if req.CallID == 0 {
		req.CallID = c.callID(net)
	}
	start := p.Now()
	attempts := c.policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var resp Response
	for i := 0; i < attempts; i++ {
		if i > 0 {
			// Sleep the backoff before spending the token: a concurrent call
			// through the shared client may drain the bucket meanwhile, which
			// is what cuts off a storm already in flight.
			p.Sleep(c.backoff(i))
			if !c.spendRetryToken(net) {
				break
			}
			c.Retries++
			net.m.retries.Inc()
			if targets[i%len(targets)] != targets[(i-1)%len(targets)] {
				c.Failovers++
				net.m.failovers.Inc()
			}
		}
		target := targets[i%len(targets)]
		if !c.breakerAllows(target, p.Now()) {
			c.BreakerFastFails++
			net.m.breakerFastFails.Inc()
			resp = Response{Err: fmt.Errorf("%w: %s", ErrCircuitOpen, target.Node.Name)}
		} else {
			resp = c.attempt(p, from, target, req)
			c.noteResult(target, resp.Err, p.Now())
		}
		if resp.Err == nil || !c.retryable(resp.Err) {
			break
		}
	}
	elapsed := p.Now() - start
	if resp.Err == nil {
		c.observe(elapsed)
		c.refillBudget()
	}
	return resp, elapsed
}

// CallHedged performs a policy-driven RPC with a hedged backup: the primary
// goes to targets[0]; if it has not answered within the hedge delay (the
// policy's latency quantile once observed, HedgeDelay before that), a backup
// request is sent to targets[1] and the first successful response wins. With
// hedging disabled or fewer than two targets it degrades to CallAny.
func (c *Client) CallHedged(p *sim.Proc, from *Node, targets []*Server, req Request) (Response, time.Duration) {
	hd := c.hedgeDelay()
	if hd <= 0 || len(targets) < 2 {
		return c.CallAny(p, from, targets, req)
	}
	net := targets[0].Node.net
	c.Calls++
	net.m.calls.Inc()
	if req.CallID == 0 {
		req.CallID = c.callID(net)
	}
	start := p.Now()
	k := net.k

	launch := func(s *Server) (*Response, *sim.Signal) {
		var resp Response
		done := sim.NewSignal(k)
		c.Attempts++
		net.m.attempts.Inc()
		k.Go(fmt.Sprintf("rpc-hedge/%s", req.Method), func(ap *sim.Proc) {
			r, _ := s.Call(ap, from, req)
			resp = r
			c.noteResult(s, r.Err, ap.Now())
			done.Fire()
		})
		return &resp, done
	}

	priResp, priDone := launch(targets[0])
	gate := sim.NewSignal(k)
	priDone.OnFire(gate.Fire)
	k.Schedule(hd, gate.Fire)
	p.Wait(gate)

	resp := *priResp
	fromBackup := false
	if !priDone.Fired() && !c.breakerAllows(targets[1], p.Now()) {
		// The backup's breaker is open: hedging would only hammer a target
		// already deemed unhealthy, so wait out the primary instead.
		c.BreakerFastFails++
		net.m.breakerFastFails.Inc()
		p.Wait(priDone)
		resp = *priResp
	} else if !priDone.Fired() {
		// Primary is straggling: send the backup and take the first answer.
		c.Hedges++
		net.m.hedges.Inc()
		bakResp, bakDone := launch(targets[1])
		first := sim.NewSignal(k)
		priDone.OnFire(first.Fire)
		bakDone.OnFire(first.Fire)
		p.Wait(first)
		switch {
		case bakDone.Fired() && (!priDone.Fired() || (*priResp).Err != nil):
			resp = *bakResp
			fromBackup = true
		case priDone.Fired():
			resp = *priResp
		}
		// If the winner failed retryably and the other attempt is still out,
		// wait for it rather than giving up with a losable error.
		if resp.Err != nil && c.retryable(resp.Err) {
			both := sim.NewSignal(k)
			remaining := 0
			for _, d := range []*sim.Signal{priDone, bakDone} {
				if !d.Fired() {
					remaining++
					d.OnFire(both.Fire)
				}
			}
			if remaining > 0 {
				p.Wait(both)
				if bakDone.Fired() && (*bakResp).Err == nil {
					resp = *bakResp
					fromBackup = true
				} else if priDone.Fired() && (*priResp).Err == nil {
					resp = *priResp
					fromBackup = false
				}
			}
		}
		// A hedge win means the backup's *successful* response is the one the
		// caller gets. A backup that raced ahead only to fail — while the
		// primary's success was ultimately adopted — is not a win.
		if fromBackup && resp.Err == nil {
			c.HedgeWins++
			net.m.hedgeWins.Inc()
		}
	}
	elapsed := p.Now() - start
	if resp.Err == nil {
		c.observe(elapsed)
	}
	return resp, elapsed
}
