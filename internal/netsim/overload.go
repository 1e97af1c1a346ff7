package netsim

// This file is the server-side half of the overload control plane plus the
// per-tenant QoS governor. The mechanisms are the production defenses against
// metastable overload (retry storms that keep goodput collapsed after the
// trigger clears): bounded request queues, CoDel-style queue-deadline
// admission that expires requests whose sojourn stayed above target for a
// full interval, utilization-driven probabilistic shedding before the hard
// bound, a priority lane that lets system/checker traffic overtake the
// backlog, and weighted per-tenant admission so a flash-crowd tenant cannot
// starve the others. Everything is a pure function of the sim clock and
// seeded streams; no wall-clock reads.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"hyperprof/internal/obs"
	"hyperprof/internal/stats"
)

// ErrExpired is returned for requests that were admitted but whose queue
// sojourn exceeded the CoDel target for a full interval: the server discards
// them at dequeue instead of burning service time on work the client has
// almost certainly given up on. An expired request is never also counted as
// shed — shedding happens at arrival, expiry at dequeue, and the two paths
// are mutually exclusive.
var ErrExpired = errors.New("netsim: request expired in queue")

// ErrCircuitOpen is returned (without touching the network) for attempts
// against a target whose circuit breaker is open. It is retryable: the call
// backs off and retries, and a retry after the cooldown is the half-open
// probe.
var ErrCircuitOpen = errors.New("netsim: circuit breaker open")

// Admission configures a server's overload admission control. The zero value
// disables everything (unbounded queue, no expiry, no shedding), preserving
// pre-existing behaviour.
type Admission struct {
	// MaxQueue bounds the normal-priority request queue: an arrival finding
	// MaxQueue requests already waiting is shed with ErrOverloaded.
	// Priority requests get a separate 2x bound so system traffic survives
	// brownouts that saturate the user lane. 0 leaves the queue unbounded.
	MaxQueue int
	// Target is the CoDel sojourn target: as long as dequeued requests have
	// waited less than Target, nothing expires. 0 disables expiry.
	Target time.Duration
	// Interval is the CoDel grace window: once every dequeue has been above
	// Target continuously for Interval, further above-target requests are
	// expired with ErrExpired until sojourn drops below Target again.
	Interval time.Duration
	// ShedStartFrac arms utilization-driven shedding: when the queue is
	// fuller than this fraction of MaxQueue, arrivals are shed with
	// probability rising linearly from 0 at the threshold to 1 at a full
	// queue. 0 disables adaptive shedding.
	ShedStartFrac float64
	// Seed seeds the server's shedding stream; equal seeds replay
	// bit-identically in arrival order.
	Seed uint64
}

// SetAdmission installs overload admission control on the server: the hard
// queue bound, the CoDel expiry parameters and the adaptive shedding
// threshold all come from one Admission value.
func (s *Server) SetAdmission(a Admission) {
	s.adm = a
	if a.ShedStartFrac > 0 && s.shedRNG == nil {
		s.shedRNG = stats.NewRNG(a.Seed ^ 0x53484544) // "SHED"
	}
}

// admit runs the arrival-side admission checks for a request that has
// already passed the started/stopped/dedup gates. It returns nil to admit or
// the shedding error. Priority requests bypass adaptive shedding and get a
// doubled hard bound.
func (s *Server) admit(req Request) error {
	depth := s.queue.Len()
	limit := s.adm.MaxQueue
	if req.Priority && limit > 0 {
		limit *= 2
	}
	if limit > 0 && depth >= limit {
		s.Shed++
		s.Node.net.m.sheds.Inc()
		return fmt.Errorf("%w: %s (queue depth %d)", ErrOverloaded, s.Node.Name, depth)
	}
	if !req.Priority && s.adm.ShedStartFrac > 0 && s.adm.MaxQueue > 0 {
		frac := float64(depth) / float64(s.adm.MaxQueue)
		if frac >= s.adm.ShedStartFrac {
			p := (frac - s.adm.ShedStartFrac) / (1 - s.adm.ShedStartFrac)
			if s.shedRNG.Bool(p) {
				s.ShedAdaptive++
				s.Node.net.m.shedsAdaptive.Inc()
				return fmt.Errorf("%w: %s (adaptive shed at depth %d)", ErrOverloaded, s.Node.Name, depth)
			}
		}
	}
	return nil
}

// expireAtDequeue implements the CoDel dequeue side for one request: it
// reports whether the request should be expired instead of serviced, and
// maintains the above-target state machine. Priority requests are never
// expired but do reset the state when they dequeue quickly.
func (s *Server) expireAtDequeue(now time.Duration, c *inFlight) bool {
	if s.adm.Target <= 0 {
		return false
	}
	sojourn := now - c.enqueuedAt
	if sojourn < s.adm.Target {
		s.aboveSince = 0
		s.aboveSet = false
		return false
	}
	if !s.aboveSet {
		s.aboveSince = now
		s.aboveSet = true
		return false
	}
	if now-s.aboveSince < s.adm.Interval {
		return false
	}
	return !c.req.Priority
}

// breakerState is a circuit breaker's position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one client's per-target circuit breaker: consecutive retryable
// failures open it, opens fast-fail without touching the network, and after
// the cooldown a single half-open probe decides whether to close or re-open.
type breaker struct {
	state    breakerState
	fails    int
	openedAt time.Duration
}

// Tenant is one workload tenant under a TenantGovernor: a name, a QoS
// weight, and admission/outcome accounting.
type Tenant struct {
	Name   string
	Weight float64

	// share is the tenant's reserved concurrency (weighted slice of the
	// governor's capacity, at least 1).
	share    int
	inFlight int

	// Admitted, Throttled, Successes and Failures count admission decisions
	// and completed-operation outcomes.
	Admitted  int
	Throttled int
	Successes int
	Failures  int
}

// TenantGovernor enforces weighted per-tenant admission over a shared
// concurrency capacity: each tenant gets a reserved share proportional to
// its weight, and an arrival finding its tenant at the share is throttled:
// Admit returns false. Because shares are reservations (not borrowable), a
// flash-crowd tenant saturating its own share leaves every other tenant's
// capacity untouched — the starvation-isolation property the overload study
// asserts with its fairness index.
type TenantGovernor struct {
	capacity int
	tenants  []*Tenant

	// ThrottledTotal counts throttles across all tenants.
	ThrottledTotal int

	mThrottled *obs.Counter
}

// NewTenantGovernor creates a governor with the given total concurrency
// capacity (must be >= 1).
func NewTenantGovernor(capacity int) *TenantGovernor {
	if capacity < 1 {
		capacity = 1
	}
	return &TenantGovernor{capacity: capacity}
}

// AddTenant registers a tenant with a positive QoS weight and returns its
// handle. Shares are recomputed over all registered tenants: tenant i
// reserves max(1, floor(capacity * w_i / sum(w))) concurrent operations.
func (g *TenantGovernor) AddTenant(name string, weight float64) *Tenant {
	if weight <= 0 {
		weight = 1
	}
	t := &Tenant{Name: name, Weight: weight}
	g.tenants = append(g.tenants, t)
	var sum float64
	for _, tn := range g.tenants {
		sum += tn.Weight
	}
	for _, tn := range g.tenants {
		tn.share = int(float64(g.capacity) * tn.Weight / sum)
		if tn.share < 1 {
			tn.share = 1
		}
	}
	return t
}

// Tenants returns the registered tenants in registration order.
func (g *TenantGovernor) Tenants() []*Tenant { return g.tenants }

// Capacity returns the governor's total concurrency capacity.
func (g *TenantGovernor) Capacity() int { return g.capacity }

// Admit decides whether one operation of tenant t may start. Admitted
// operations must be completed with Done.
func (g *TenantGovernor) Admit(t *Tenant) bool {
	if t.inFlight >= t.share {
		t.Throttled++
		g.ThrottledTotal++
		g.mThrottled.Inc()
		return false
	}
	t.inFlight++
	t.Admitted++
	return true
}

// Done completes an operation previously admitted for tenant t.
func (g *TenantGovernor) Done(t *Tenant, success bool) {
	if t.inFlight > 0 {
		t.inFlight--
	}
	if success {
		t.Successes++
	} else {
		t.Failures++
	}
}

// EnableMetrics registers the governor's series: a throttle counter and one
// goodput gauge per tenant ("qos.tenant.<name>.goodput", the cumulative
// success count sampled on the sim clock). Tenant names are registered in
// sorted order so the export is deterministic regardless of registration
// order. A nil registry is a no-op.
func (g *TenantGovernor) EnableMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	g.mThrottled = r.Counter("qos.throttled")
	names := make([]string, 0, len(g.tenants))
	byName := make(map[string]*Tenant, len(g.tenants))
	for _, t := range g.tenants {
		names = append(names, t.Name)
		byName[t.Name] = t
	}
	sort.Strings(names)
	for _, name := range names {
		t := byName[name]
		r.GaugeFunc("qos.tenant."+name+".goodput", func() int64 { return int64(t.Successes) })
	}
}

// JainFairness returns Jain's fairness index over the tenants'
// weight-normalized success counts: 1.0 means every tenant got goodput
// exactly proportional to its weight, 1/n means one tenant got everything.
func (g *TenantGovernor) JainFairness() float64 {
	return JainFairness(g.tenants)
}

// JainFairness computes Jain's index over weight-normalized successes for an
// arbitrary tenant slice.
func JainFairness(tenants []*Tenant) float64 {
	var sum, sumSq float64
	n := 0
	for _, t := range tenants {
		x := float64(t.Successes) / t.Weight
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}
