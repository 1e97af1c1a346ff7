package netsim

// This file implements the client-side RPC resilience policy: one target per
// call, a per-attempt deadline, retries with exponential backoff and
// deterministic jitter, a per-client retry budget and per-target circuit
// breakers. Together with the server-side admission control these are the
// production mechanisms that shape the tail behaviour the paper's SLO
// discussion (§5.6) attributes to resilience machinery rather than raw
// service time.

import (
	"errors"
	"fmt"
	"time"

	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
)

// Policy configures client-side call resilience. The zero value is a plain
// call: no deadline, single attempt — and takes a fast path that
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

	// RetryBudget arms the per-client retry token bucket: the bucket starts
	// full at RetryBudget tokens, every retry spends one, and every
	// successful call refills retryRefill tokens (capped at RetryBudget).
	// Retries therefore amplify only while the fleet is healthy — the
	// defense against retry-storm metastability. 0 disables budgeting.
	RetryBudget float64

	// BreakerFailures arms per-target circuit breakers: after this many
	// consecutive retryable failures against one target, the breaker opens
	// and attempts fast-fail with ErrCircuitOpen (no network traffic) until
	// BreakerCooldown has elapsed, when a single half-open probe decides
	// whether to close it. 0 disables breakers.
	BreakerFailures int
	BreakerCooldown time.Duration
}

// retryRefill is the retry-budget refill per successful call: one retry
// earned per ten successes.
const retryRefill = 0.1

// retryable reports whether an RPC error is safely retryable at a later
// time: connection-level failures (server down or not yet started), shed
// load, missed deadlines, link losses and open breakers. Application-level
// handler errors are not retried.
func retryable(err error) bool {
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

	// Call-ID assignment: id is handed out lazily by the network of the first
	// call's target, seq increments per logical call. Retries of one logical
	// call share its ID so servers can deduplicate them.
	id      uint64
	nextSeq uint64

	// Retry-budget state: the token bucket, shared by every call through
	// this client (see Policy.RetryBudget).
	budget float64
	// breakers holds one circuit breaker per target this client has called.
	breakers map[*Server]*breaker
	// methods holds, per method, what its deadline attempts reuse, built on
	// the method's first such attempt.
	methods map[string]methodAttempts

	// Counters for reports and tests.
	Calls, Attempts, Retries, Deadlines int
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
	return &Client{policy: policy, rng: stats.NewRNG(seed), budget: policy.RetryBudget}
}

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

// Backoff returns the nominal backoff before retry number retry (1-based):
// BackoffBase doubled per further retry, capped at BackoffMax. A Client
// jitters it; callers that retry something other than an RPC under this
// policy's schedule use it as is.
func (p Policy) Backoff(retry int) time.Duration {
	if p.BackoffBase <= 0 {
		return 0
	}
	d := p.BackoffBase << uint(retry-1)
	if p.BackoffMax > 0 && d > p.BackoffMax {
		d = p.BackoffMax
	}
	return d
}

// Attempts returns the policy's total attempt budget: MaxAttempts, at least 1.
func (p Policy) Attempts() int { return max(p.MaxAttempts, 1) }

// backoff returns the jittered backoff before retry number retry (1-based).
func (c *Client) backoff(retry int) time.Duration {
	d := c.policy.Backoff(retry)
	if d == 0 {
		return 0
	}
	// Deterministic jitter: ±50% from the client's seeded stream, decorrelating
	// retry storms without real randomness.
	return time.Duration(c.rng.Jitter(float64(d), 0.5))
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
	c.budget += retryRefill
	if c.budget > c.policy.RetryBudget {
		c.budget = c.policy.RetryBudget
	}
}

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
	if err == nil || !retryable(err) {
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

// deadlineCall is the state one logical call shares with its attempts under
// a deadline policy. Each attempt runs in a helper process, and a timed-out
// attempt keeps draining after the call gave up on it, so the call's dedup
// record settles when the last of the call itself and its helpers is done.
// The record then goes back on its network's free list.
type deadlineCall struct {
	s *Server
	// id is the call ID to settle, or 0 when the caller supplied the ID and
	// so owns its lifetime.
	id uint64
	// running counts the call, until it returns, and each helper, until it
	// leaves Server.Call.
	running int
	next    *deadlineCall // on the free list
}

// newDeadlineCall returns a recycled record for a logical call against s,
// counting the call itself as running.
func (n *Network) newDeadlineCall(s *Server, id uint64) *deadlineCall {
	d := n.freeDeadline
	if d != nil {
		n.freeDeadline = d.next
	} else {
		d = &deadlineCall{}
	}
	*d = deadlineCall{s: s, id: id, running: 1}
	return d
}

// exit records that the call returned or one helper left Server.Call,
// settling the call's record and recycling d when nothing that carries its
// ID is left.
func (d *deadlineCall) exit() {
	d.running--
	if d.running > 0 {
		return
	}
	net := d.s.Node.net
	if d.id != 0 {
		d.s.settle(d.id)
	}
	*d = deadlineCall{next: net.freeDeadline}
	net.freeDeadline = d
}

// deadlineAttempt is one attempt under a deadline policy: what the helper
// process calls with, its response, and the gate the caller waits on, which
// fires when the attempt returns or its deadline passes, whichever comes
// first. The record is recycled once the caller, the helper and the deadline
// event are all done with it: holds counts the three, and the deadline event
// fires on the record even after a fast attempt has returned.
type deadlineAttempt struct {
	s        *Server
	from     *Node
	req      Request
	dc       *deadlineCall
	resp     Response
	finished bool
	gate     sim.Signal
	holds    int
	// body is run, bound once when the record is made, so spawning a helper
	// makes no closure.
	body func(*sim.Proc)
	next *deadlineAttempt // on the free list
}

// newAttempt returns a recycled attempt record, held by the caller, the
// helper and the deadline event.
func (n *Network) newAttempt() *deadlineAttempt {
	a := n.freeAttempts
	if a != nil {
		n.freeAttempts = a.next
		a.next = nil
	} else {
		a = &deadlineAttempt{}
		a.body = a.run
	}
	a.holds = 3
	return a
}

// run is the helper process's body: the attempt's server call.
func (a *deadlineAttempt) run(ap *sim.Proc) {
	a.resp, _ = a.s.Call(ap, a.from, a.req)
	a.finished = true
	a.gate.Fire()
	a.dc.exit()
	a.release()
}

// release drops one hold on a; the last one clears the record and returns
// it to its network's free list.
func (a *deadlineAttempt) release() {
	a.holds--
	if a.holds > 0 {
		return
	}
	net := a.s.Node.net
	*a = deadlineAttempt{body: a.body, next: net.freeAttempts}
	net.freeAttempts = a
}

// fireGate is the deadline event's callback, hoisted so scheduling it
// allocates nothing.
var fireGate = func(arg any) {
	a := arg.(*deadlineAttempt)
	a.gate.Fire()
	a.release()
}

// attempt performs one attempt against s, honoring the per-attempt deadline.
// Without a deadline (dc is nil) it calls inline (zero overhead); with one,
// the attempt runs in a helper process so the caller can give up at the
// deadline while the attempt drains in the background (every server failure
// mode produces a response, so helpers never leak).
func (c *Client) attempt(p *sim.Proc, from *Node, s *Server, req Request, dc *deadlineCall) Response {
	c.Attempts++
	net := s.Node.net
	net.m.attempts.Inc()
	if dc == nil {
		resp, _ := s.Call(p, from, req)
		return resp
	}
	a := net.newAttempt()
	a.s, a.from, a.req, a.dc = s, from, req, dc
	dc.running++
	m := c.attemptsFor(req.Method)
	net.k.Go(m.name, a.body)
	net.k.ScheduleArg(c.policy.Deadline, fireGate, a)
	p.Wait(&a.gate)
	finished, resp := a.finished, a.resp
	a.release()
	if !finished {
		c.Deadlines++
		net.m.deadlines.Inc()
		return Response{Err: m.deadlineErr}
	}
	return resp
}

// methodAttempts is what every deadline attempt of one method shares: the
// helper process name, "rpc-attempt/<method>", and the error a missed
// deadline returns. The error is immutable and its text names the policy's
// deadline, which is fixed when the client is made, so one value serves
// every attempt.
type methodAttempts struct {
	name        string
	deadlineErr error
}

// attemptsFor returns method's shared attempt state, building it on the
// method's first deadline attempt.
func (c *Client) attemptsFor(method string) methodAttempts {
	m, ok := c.methods[method]
	if !ok {
		if c.methods == nil {
			c.methods = map[string]methodAttempts{}
		}
		m = methodAttempts{
			name:        "rpc-attempt/" + method,
			deadlineErr: fmt.Errorf("%w: %s after %v", ErrDeadlineExceeded, method, c.policy.Deadline),
		}
		c.methods[method] = m
	}
	return m
}

// Call performs a policy-driven RPC against one server: a deadline per
// attempt, retries with exponential backoff and jitter under the retry budget,
// and the target's circuit breaker. It returns the last response and the
// total elapsed time.
//
// A call ID that Call mints is settled at the server once no request carrying
// it can arrive again: when Call returns, or with a deadline when its last
// draining attempt returns. A caller-supplied ID is never settled.
func (c *Client) Call(p *sim.Proc, from *Node, s *Server, req Request) (Response, time.Duration) {
	net := s.Node.net
	c.Calls++
	net.m.calls.Inc()
	var owned uint64
	if req.CallID == 0 {
		req.CallID = c.callID(net)
		owned = req.CallID
	}
	var dc *deadlineCall
	if c.policy.Deadline > 0 {
		dc = net.newDeadlineCall(s, owned)
	}
	start := p.Now()
	var resp Response
	for i := 0; i < c.policy.Attempts(); i++ {
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
		}
		if !c.breakerAllows(s, p.Now()) {
			c.BreakerFastFails++
			net.m.breakerFastFails.Inc()
			resp = Response{Err: fmt.Errorf("%w: %s", ErrCircuitOpen, s.Node.Name)}
		} else {
			resp = c.attempt(p, from, s, req, dc)
			c.noteResult(s, resp.Err, p.Now())
		}
		if resp.Err == nil || !retryable(resp.Err) {
			break
		}
	}
	if resp.Err == nil {
		c.refillBudget()
	}
	if dc != nil {
		dc.exit()
	} else if owned != 0 {
		s.settle(owned)
	}
	return resp, p.Now() - start
}
