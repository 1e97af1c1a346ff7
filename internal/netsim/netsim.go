// Package netsim models the datacenter network and RPC substrate the
// platforms communicate over (§2.1): nodes with CPU resources placed in
// racks and regions, latency/bandwidth transfer costs, and an RPC layer with
// real server-side queueing on worker pools. Time classification of RPC
// waits (remote work vs IO) is the caller's concern and is annotated at the
// platform layer. Network faults enter through one plane, the per-directed-
// link faults of links.go; a network-wide brown-out is that plane applied to
// every link.
package netsim

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"hyperprof/internal/obs"
	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
)

// Config sets the network's latency and bandwidth parameters. The defaults
// approximate a Jupiter-class Clos fabric with cross-region WAN links.
type Config struct {
	SameRackRTT    time.Duration
	CrossRackRTT   time.Duration
	CrossRegionRTT time.Duration
	BytesPerSec    float64
}

// DefaultConfig returns representative parameters: 10µs in-rack RTT, 50µs
// cross-rack, 30ms cross-region, 5 GB/s per-flow bandwidth.
func DefaultConfig() Config {
	return Config{
		SameRackRTT:    10 * time.Microsecond,
		CrossRackRTT:   50 * time.Microsecond,
		CrossRegionRTT: 30 * time.Millisecond,
		BytesPerSec:    5e9,
	}
}

// Network is a set of nodes and the cost model between them.
type Network struct {
	k   *sim.Kernel
	cfg Config

	// The fault plane (see links.go): extra delay, loss probability or a
	// full block per directed (from, to) node pair. nodesByName backs name-addressed link injection; linkSeed is
	// the base of the per-link RNG streams. Dropped counts messages lost to
	// lossy links, Blocked messages lost to fully blocked links.
	links       map[linkKey]*linkFault
	nodesByName map[string]*Node
	linkSeed    uint64
	Dropped     int
	Blocked     int

	// Delivery accounting (safety checking): when enabled, the network counts
	// per-(server, call-ID) request arrivals and handler executions, so a
	// checker can prove at-most-once execution under retries.
	accounting bool
	admits     map[deliveryKey]int
	execs      map[deliveryKey]int

	// nextClientID hands out per-network client IDs for call-ID assignment;
	// keeping the counter on the network (not a package global) preserves
	// determinism across independent simulations.
	nextClientID uint32

	// m aggregates RPC outcomes network-wide into the observability plane.
	// The zero value (all-nil handles) is the disabled state: every record
	// site costs one nil check.
	m netMetrics

	// Recycled call records, each list linked through its records' next
	// field: server calls (see inFlight), and the logical calls and attempts
	// of the deadline policy (see deadlineCall and deadlineAttempt). A
	// steady-state RPC takes its records from here and allocates none.
	freeCalls    *inFlight
	freeDeadline *deadlineCall
	freeAttempts *deadlineAttempt
}

// netMetrics holds the network's obs series handles. Per-network (not
// per-client/server) aggregation keeps the series set small and stable while
// still separating platforms, which each own their Network.
type netMetrics struct {
	calls, attempts, retries, deadlines *obs.Counter
	sheds, drops, dedupSuppressed       *obs.Counter
	// Overload-control plane series: adaptive sheds, CoDel queue expiries,
	// retry-budget exhaustions, breaker transitions, and the network-wide
	// queued-request level.
	shedsAdaptive, expired         *obs.Counter
	budgetExhausted                *obs.Counter
	breakerOpens, breakerFastFails *obs.Counter
	queueDepth                     *obs.Gauge
}

// EnableMetrics registers the network's RPC-outcome counters ("rpc.*") with
// an observability registry. Calling it with a nil registry is a no-op (the
// handles stay nil and record sites remain single-branch no-ops).
func (n *Network) EnableMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	n.m = netMetrics{
		calls:            r.Counter("rpc.calls"),
		attempts:         r.Counter("rpc.attempts"),
		retries:          r.Counter("rpc.retries"),
		deadlines:        r.Counter("rpc.deadlines"),
		sheds:            r.Counter("rpc.sheds"),
		drops:            r.Counter("rpc.drops"),
		dedupSuppressed:  r.Counter("rpc.dedup_suppressed"),
		shedsAdaptive:    r.Counter("rpc.sheds_adaptive"),
		expired:          r.Counter("rpc.expired"),
		budgetExhausted:  r.Counter("rpc.retry_budget_exhausted"),
		breakerOpens:     r.Counter("rpc.breaker.opens"),
		breakerFastFails: r.Counter("rpc.breaker.fast_fails"),
		queueDepth:       r.Gauge("rpc.queue.depth"),
	}
}

// deliveryKey identifies one logical call's deliveries to one server.
type deliveryKey struct {
	server string
	id     uint64
}

// EnableDeliveryAccounting turns on per-(server, call-ID) delivery counting.
// Only requests carrying a nonzero CallID are tracked.
func (n *Network) EnableDeliveryAccounting() {
	n.accounting = true
	if n.admits == nil {
		n.admits = map[deliveryKey]int{}
		n.execs = map[deliveryKey]int{}
	}
}

// DupExecs returns a sorted description of every (server, call-ID) pair whose
// handler executed more than once — the at-most-once violations. Retried
// requests legitimately admit twice; with server-side dedup enabled they must
// still execute at most once per server.
func (n *Network) DupExecs() []string {
	var out []string
	for k, c := range n.execs {
		if c > 1 {
			out = append(out, fmt.Sprintf("%s call %#x executed %d times", k.server, k.id, c))
		}
	}
	sort.Strings(out)
	return out
}

// New creates a network on the given kernel.
func New(k *sim.Kernel, cfg Config) *Network {
	if cfg.BytesPerSec <= 0 {
		cfg.BytesPerSec = DefaultConfig().BytesPerSec
	}
	return &Network{k: k, cfg: cfg}
}

// messageDelay is TransferTime plus the directed link's injected
// per-message delay; local messages are exempt (they never cross the
// fabric). This is the RPC hot path: the len check skips the map lookup
// entirely on unfaulted networks, and the lookup itself uses a value-typed
// key, so the function allocates nothing (pinned by
// TestMessageDelayZeroAllocs and BenchmarkNetMessageDelay).
func (n *Network) messageDelay(a, b *Node, size int64) time.Duration {
	d := n.TransferTime(a, b, size)
	if a != b && len(n.links) != 0 {
		if lf := n.links[linkKey{a.Name, b.Name}]; lf != nil {
			d += lf.extra
		}
	}
	return d
}

// Node is one server: a location plus a CPU core pool.
type Node struct {
	Name   string
	Region int
	Rack   int
	CPU    *sim.Resource
	net    *Network
}

// NewNode creates a node with the given core count and registers its name
// for link-plane addressing (later registrations of the same name win).
func (n *Network) NewNode(name string, region, rack, cores int) *Node {
	nd := &Node{
		Name:   name,
		Region: region,
		Rack:   rack,
		CPU:    sim.NewResource(n.k, name+"/cpu", cores),
		net:    n,
	}
	if n.nodesByName == nil {
		n.nodesByName = map[string]*Node{}
	}
	n.nodesByName[name] = nd
	return nd
}

// RTT returns the round-trip latency between two nodes.
func (n *Network) RTT(a, b *Node) time.Duration {
	switch {
	case a == b:
		return 0
	case a.Region != b.Region:
		return n.cfg.CrossRegionRTT
	case a.Rack != b.Rack:
		return n.cfg.CrossRackRTT
	default:
		return n.cfg.SameRackRTT
	}
}

// TransferTime returns the one-way time to move size bytes from a to b:
// half the RTT plus serialization at per-flow bandwidth. Local transfers are
// free.
func (n *Network) TransferTime(a, b *Node, size int64) time.Duration {
	if a == b {
		return 0
	}
	if size < 0 {
		size = 0
	}
	xfer := time.Duration(float64(size) / n.cfg.BytesPerSec * float64(time.Second))
	return n.RTT(a, b)/2 + xfer
}

// Request is an RPC request. CallID, when nonzero, identifies the logical
// call across retries: policy clients stamp one ID per logical call so
// servers can deduplicate re-deliveries and the network can account
// at-most-once execution. Zero means untracked (plain Server.Call).
type Request struct {
	Method  string
	Bytes   int64
	CallID  uint64
	Payload interface{}
	// Priority routes the request through the server's priority lane: it
	// overtakes the normal-band backlog, bypasses adaptive shedding and CoDel
	// expiry, and gets a doubled hard queue bound — the lane that keeps
	// system and checker traffic (elections, recovery, lease confirmation)
	// alive through a brownout.
	Priority bool
}

// Response is an RPC response.
type Response struct {
	Bytes   int64
	Payload interface{}
	Err     error
}

// Handler services one request on a server worker process.
type Handler func(p *sim.Proc, req Request) Response

// ErrNoMethod is returned for calls to unregistered methods.
var ErrNoMethod = errors.New("netsim: no such method")

// ErrServerDown is returned for calls to a stopped or crashed server; the
// caller observes it after one request transfer, like a connection refused.
var ErrServerDown = errors.New("netsim: server down")

// ErrNotStarted is returned for calls that arrive before Server.Start, so
// fault scenarios that race startup degrade to a retryable error instead of
// crashing the whole simulation.
var ErrNotStarted = errors.New("netsim: server not started")

// ErrOverloaded is returned when a request arrives at a server whose bounded
// queue is full: the server sheds load instead of building an unbounded
// backlog (the production defense the paper's SLO discussion leans on).
var ErrOverloaded = errors.New("netsim: server overloaded")

// ErrDeadlineExceeded is returned by policy-driven calls whose attempt did
// not complete within the configured deadline.
var ErrDeadlineExceeded = errors.New("netsim: deadline exceeded")

// ErrNetDropped is returned when a lossy link loses the request or the
// response. It models a reset connection: the caller learns of the loss after
// one transfer rather than hanging forever.
var ErrNetDropped = errors.New("netsim: request dropped by degraded network")

// Server is an RPC endpoint with a bounded worker pool: calls queue in FIFO
// order and each worker services one call at a time, which is where
// server-side queueing delay comes from.
//
// Admission semantics: a request is admitted when it *arrives* (after the
// request transfer). Admitted requests always run to completion under Stop
// (graceful drain) but fail under Crash; requests arriving after either
// observe ErrServerDown. Whether a concurrent Stop lands before or after a
// request's arrival instant is therefore the single fact that decides its
// outcome — there is no window where an admitted call can still observe
// ErrServerDown, and no window where a post-Stop arrival can sneak in.
type Server struct {
	Node     *Node
	handlers map[string]Handler
	queue    *sim.Queue[*inFlight]
	workers  int
	slowdown float64
	started  bool
	stopped  bool
	// inService tracks requests currently being handled, in admission order,
	// so Crash can fail them immediately. A slice (not a set) keeps the
	// failure order deterministic: Crash wakes the waiters in the order the
	// requests entered service.
	inService []*inFlight
	// Shed counts requests rejected by the hard queue bound.
	Shed int

	// Overload admission control (see Admission); the zero value admits
	// everything.
	adm     Admission
	shedRNG *stats.RNG
	// ShedAdaptive counts requests rejected by utilization-driven shedding
	// (below the hard bound), Expired counts admitted requests discarded at
	// dequeue by the CoDel sojourn rule. A request is counted in at most one
	// of Shed/ShedAdaptive/Expired — the paths are mutually exclusive.
	ShedAdaptive int
	Expired      int
	// CoDel state: the instant dequeues first went above the sojourn target.
	aboveSince time.Duration
	aboveSet   bool

	// Duplicate suppression (at-most-once execution): with dedup enabled, a
	// second delivery of the same nonzero CallID joins the in-flight execution
	// (singleflight) or replays the cached successful response instead of
	// running the handler again. Production RPC stacks need this so retried
	// mutations are not applied twice. A doneByID record lives until the
	// Client.Call that minted its ID settles it (see settle), so the maps
	// hold in-flight calls, not completed ones.
	dedup         bool
	pendingByID   map[uint64]*inFlight
	doneByID      map[uint64]Response
	DupSuppressed int
}

// inFlight is one admitted server call. Records are recycled through the
// network's free list, so a record is returned only when nothing can read it
// again: holds counts the caller until it has copied resp, each dedup joiner
// until it has copied the response it joined, and the worker from dequeue to
// the end of its loop iteration. The worker's hold matters because Crash can
// fire a call that is still in service: the worker then reads done.Fired()
// and scans inService for the record after the caller has gone.
type inFlight struct {
	req  Request
	resp Response
	done sim.Signal
	// deduped marks a call registered in pendingByID: its completion clears
	// that entry and caches a success in doneByID (see fire).
	deduped bool
	// enqueuedAt is the admission instant, the basis of the CoDel sojourn.
	enqueuedAt time.Duration
	holds      int
	next       *inFlight // on the free list
}

// newCall returns a cleared call record for req, held once by its caller.
func (n *Network) newCall(req Request, now time.Duration) *inFlight {
	c := n.freeCalls
	if c != nil {
		n.freeCalls = c.next
		c.next = nil
	} else {
		c = &inFlight{}
	}
	c.req, c.enqueuedAt, c.holds = req, now, 1
	return c
}

// releaseCall drops one hold on c; the last one clears the record, so it
// pins no payload or waiter, and returns it to the free list.
func (n *Network) releaseCall(c *inFlight) {
	c.holds--
	if c.holds == 0 {
		*c = inFlight{next: n.freeCalls}
		n.freeCalls = c
	}
}

// fire completes c with the response already in c.resp: its waiters wake
// first, then the dedup bookkeeping runs. The pending entry always clears,
// and only definite successes are cached. Every completion point (CoDel
// expiry, handler return, Crash) goes through here, once per call.
func (s *Server) fire(c *inFlight) {
	c.done.Fire()
	if c.deduped {
		id := c.req.CallID
		delete(s.pendingByID, id)
		if c.resp.Err == nil {
			s.doneByID[id] = c.resp
		}
	}
}

// settle drops the cached response of call ID id. Client.Call calls it once
// the logical call that minted id has returned and every attempt it started
// has returned from Call: no request carrying id can arrive after that, so
// the record can never be read again. Deleting from a nil map (dedup off) is
// a no-op.
func (s *Server) settle(id uint64) { delete(s.doneByID, id) }

// NewServer creates a server on a node with the given worker pool size.
func NewServer(node *Node, workers int) *Server {
	if workers < 1 {
		workers = 1
	}
	return &Server{
		Node:     node,
		handlers: map[string]Handler{},
		queue:    sim.NewQueue[*inFlight](node.net.k),
		workers:  workers,
	}
}

// Handle registers a handler for a method name.
func (s *Server) Handle(method string, h Handler) { s.handlers[method] = h }

// SetDedup enables duplicate suppression for requests carrying a CallID: a
// re-delivered ID joins the in-flight execution or replays the cached
// successful response. Failed executions are not cached, so a retry after a
// definite failure executes fresh.
func (s *Server) SetDedup(on bool) {
	s.dedup = on
	if on && s.pendingByID == nil {
		s.pendingByID = map[uint64]*inFlight{}
		s.doneByID = map[uint64]Response{}
	}
}

// SetSlowdown injects a straggler: each request's service time is multiplied
// by factor. factor <= 1 clears the injection.
func (s *Server) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	s.slowdown = factor
}

// Start launches the worker pool. It must be called once before any Call.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	net := s.Node.net
	for i := 0; i < s.workers; i++ {
		name := fmt.Sprintf("%s/rpc-worker-%d", s.Node.Name, i)
		net.k.Go(name, func(p *sim.Proc) {
			for {
				c := sim.GetQueue(p, s.queue)
				if c == nil {
					return // shutdown sentinel
				}
				c.holds++
				s.serve(p, c)
				net.releaseCall(c)
			}
		})
	}
}

// serve completes one dequeued call on worker process p: it expires the call
// under CoDel or runs its handler, then fires it unless Crash already has.
func (s *Server) serve(p *sim.Proc, c *inFlight) {
	s.Node.net.m.queueDepth.Add(-1)
	if s.expireAtDequeue(p.Now(), c) {
		// CoDel expiry: the request waited above target for a full interval —
		// discard it instead of servicing it, so a deep backlog drains at
		// dequeue speed rather than at service speed (the mechanism that
		// breaks metastable queues).
		s.Expired++
		s.Node.net.m.expired.Inc()
		if !c.done.Fired() {
			c.resp = Response{Err: fmt.Errorf("%w: %s after %v queued",
				ErrExpired, s.Node.Name, p.Now()-c.enqueuedAt)}
			s.fire(c)
		}
		return
	}
	if s.Node.net.accounting && c.req.CallID != 0 {
		s.Node.net.execs[deliveryKey{s.Node.Name, c.req.CallID}]++
	}
	s.inService = append(s.inService, c)
	svcStart := p.Now()
	var resp Response
	h, ok := s.handlers[c.req.Method]
	if !ok {
		resp = Response{Err: fmt.Errorf("%w: %q", ErrNoMethod, c.req.Method)}
	} else {
		resp = h(p, c.req)
	}
	if s.slowdown > 1 {
		// Straggler injection: stretch the observed service time.
		p.Sleep(time.Duration(float64(p.Now()-svcStart) * (s.slowdown - 1)))
	}
	for i, e := range s.inService {
		if e == c {
			s.inService = append(s.inService[:i], s.inService[i+1:]...)
			break
		}
	}
	// A crash may have failed this call while it was in service; its
	// response already went out, so drop the handler's.
	if !c.done.Fired() {
		c.resp = resp
		s.fire(c)
	}
}

// Stop gracefully drains the server: requests already admitted (queued or in
// service) complete in FIFO order, then the workers exit; requests arriving
// after Stop fail fast with ErrServerDown. See the Server admission-semantics
// note: the arrival instant alone decides a racing call's outcome.
func (s *Server) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	for i := 0; i < s.workers; i++ {
		s.queue.Put(nil)
	}
}

// Crash fails the server immediately: every queued and in-service request
// errors out with ErrServerDown right now (the work in progress is lost),
// and later arrivals are refused. Unlike Stop there is no drain. A crashed
// server can be replaced by constructing and starting a new Server on the
// same node (see spanner.RestartReplica for the pattern).
func (s *Server) Crash() {
	if s.stopped {
		return
	}
	s.stopped = true
	downErr := fmt.Errorf("%w: %s (crashed)", ErrServerDown, s.Node.Name)
	for _, c := range s.queue.Drain() {
		if c != nil {
			s.Node.net.m.queueDepth.Add(-1)
			if !c.done.Fired() {
				c.resp = Response{Err: downErr}
				s.fire(c)
			}
		}
	}
	for _, c := range s.inService {
		if !c.done.Fired() {
			c.resp = Response{Err: downErr}
			s.fire(c)
		}
	}
	// Workers blocked on the (now empty) queue exit via sentinels; workers
	// mid-handler exit after their current (already-failed) call.
	for i := 0; i < s.workers; i++ {
		s.queue.Put(nil)
	}
}

// Stopped reports whether the server has been stopped or crashed.
func (s *Server) Stopped() bool { return s.stopped }

// Call performs a blocking RPC from the calling process located at `from`:
// request transfer, server queueing and handler execution, response
// transfer. It returns the response and the total elapsed virtual time.
//
// Failures surface as Response.Err after one request transfer (connection
// refused/reset semantics): ErrNotStarted before Start, ErrServerDown after
// Stop or Crash, ErrOverloaded when the bounded queue is full, and
// ErrLinkBlocked or ErrNetDropped when a faulted link loses the request.
func (s *Server) Call(p *sim.Proc, from *Node, req Request) (Response, time.Duration) {
	start := p.Now()
	net := s.Node.net
	p.Sleep(net.messageDelay(from, s.Node, req.Bytes))
	// Admission point: the request has arrived. All admission checks happen
	// here and nowhere else, so a call's outcome is decided by whether
	// Stop/Crash landed before or after this instant.
	switch {
	case net.linkBlocked(from, s.Node):
		net.Blocked++
		return Response{Err: fmt.Errorf("%w: %s -> %s", ErrLinkBlocked, from.Name, s.Node.Name)}, p.Now() - start
	case net.linkDrop(from, s.Node):
		return Response{Err: fmt.Errorf("%w: to %s", ErrNetDropped, s.Node.Name)}, p.Now() - start
	case !s.started:
		return Response{Err: fmt.Errorf("%w: %s", ErrNotStarted, s.Node.Name)}, p.Now() - start
	case s.stopped:
		return Response{Err: fmt.Errorf("%w: %s", ErrServerDown, s.Node.Name)}, p.Now() - start
	}
	tracked := req.CallID != 0
	if net.accounting && tracked {
		net.admits[deliveryKey{s.Node.Name, req.CallID}]++
	}
	if s.dedup && tracked {
		// Duplicate delivery of a finished call: replay the cached success.
		if resp, ok := s.doneByID[req.CallID]; ok {
			s.DupSuppressed++
			net.m.dedupSuppressed.Inc()
			return s.respond(p, from, resp), p.Now() - start
		}
		// Duplicate of an in-flight call: join it (singleflight) instead of
		// executing the handler a second time.
		if prev, ok := s.pendingByID[req.CallID]; ok {
			s.DupSuppressed++
			net.m.dedupSuppressed.Inc()
			prev.holds++
			p.Wait(&prev.done)
			resp := prev.resp
			net.releaseCall(prev)
			return s.respond(p, from, resp), p.Now() - start
		}
	}
	if err := s.admit(req); err != nil {
		return Response{Err: err}, p.Now() - start
	}
	c := net.newCall(req, p.Now())
	if s.dedup && tracked {
		c.deduped = true
		s.pendingByID[req.CallID] = c
	}
	net.m.queueDepth.Add(1)
	if req.Priority {
		s.queue.PutHigh(c)
	} else {
		s.queue.Put(c)
	}
	p.Wait(&c.done)
	resp := c.resp
	net.releaseCall(c)
	return s.respond(p, from, resp), p.Now() - start
}

// respond models the response transfer back to the caller at `from`: the
// message pays the reverse direction's delay and may be lost to a blocked or
// lossy reverse link. This is the gray-failure half of the link plane — the
// handler has already executed (or the cached response already exists), so a
// lost response costs the caller an error for work that actually happened.
func (s *Server) respond(p *sim.Proc, from *Node, resp Response) Response {
	net := s.Node.net
	p.Sleep(net.messageDelay(s.Node, from, resp.Bytes))
	switch {
	case net.linkBlocked(s.Node, from):
		net.Blocked++
		return Response{Err: fmt.Errorf("%w: %s -> %s (response lost)", ErrLinkBlocked, s.Node.Name, from.Name)}
	case net.linkDrop(s.Node, from):
		return Response{Err: fmt.Errorf("%w: response from %s", ErrNetDropped, s.Node.Name)}
	}
	return resp
}
