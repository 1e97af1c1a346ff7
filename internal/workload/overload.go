package workload

// Multi-tenant open-loop overload driver: each tenant is an independent
// Poisson arrival process whose rate can be scaled mid-run (the flash-crowd
// hook for the fault engine), optionally gated by a netsim.TenantGovernor so
// per-tenant QoS shares are enforced at the front door. Goodput is accounted
// in fixed windows of virtual time, which is what the metastability analysis
// needs: a collapsed system shows near-zero windows long after the trigger
// cleared, a protected one recovers. Everything is a pure function of the sim
// clock and the forked RNG streams.

import (
	"fmt"
	"time"

	"hyperprof/internal/netsim"
	"hyperprof/internal/sim"
)

// OverloadTenant describes one tenant of an overload workload.
type OverloadTenant struct {
	Name string
	// Weight is the tenant's QoS weight (relative admission share when a
	// governor is attached, and the normalization for the fairness index).
	Weight float64
	// RatePerSec is the tenant's base Poisson arrival rate.
	RatePerSec float64
}

// OverloadConfig configures the overload driver.
type OverloadConfig struct {
	// Duration is the arrival horizon: arrivals stop once the sim clock
	// passes it (operations in flight still complete).
	Duration time.Duration
	// Window is the goodput accounting bucket width (0 = 100ms).
	Window time.Duration
	// Tenants are the arrival processes, registered in order.
	Tenants []OverloadTenant
	// Governor, when non-nil, gates every arrival through weighted per-tenant
	// admission; the driver registers the tenants (in order) with it.
	Governor *netsim.TenantGovernor
	// Shape modulates every tenant's arrival process (each tenant gets an
	// independent burst envelope from its own RNG stream). The zero value
	// keeps the exact legacy homogeneous-Poisson draw sequence, and the
	// flash-crowd rate multiplier composes with the envelope either way.
	Shape ArrivalShape
}

// OverloadWindow aggregates one accounting window. Arrivals and Throttled
// are counted at arrival time, Successes and Failures at completion time.
type OverloadWindow struct {
	Start                                    time.Duration
	Arrivals, Successes, Failures, Throttled int
}

// OverloadTenantStats is the per-tenant accounting of an overload run.
type OverloadTenantStats struct {
	Name                                     string
	Weight                                   float64
	Arrivals, Successes, Failures, Throttled int
}

// OverloadRun is a handle to a scheduled overload workload.
type OverloadRun struct {
	// Done fires when every generator has stopped and every operation in
	// flight has completed.
	Done *sim.Signal
	// Windows holds the goodput accounting buckets in time order.
	Windows []OverloadWindow
	// Tenants holds per-tenant stats in registration order.
	Tenants []*OverloadTenantStats

	window      time.Duration
	mult        map[string]float64
	byName      map[string]*OverloadTenantStats
	gensLeft    int
	outstanding int
}

// SetRateMult scales a tenant's arrival rate mid-run: the flash-crowd hook
// the fault engine drives. mult <= 0 restores the base rate. Unknown tenants
// are ignored.
func (r *OverloadRun) SetRateMult(tenant string, mult float64) {
	if _, ok := r.byName[tenant]; !ok {
		return
	}
	if mult <= 0 {
		mult = 1
	}
	r.mult[tenant] = mult
}

// win returns the accounting window covering instant at, growing the slice
// as needed.
func (r *OverloadRun) win(at time.Duration) *OverloadWindow {
	idx := int(at / r.window)
	for len(r.Windows) <= idx {
		r.Windows = append(r.Windows, OverloadWindow{Start: time.Duration(len(r.Windows)) * r.window})
	}
	return &r.Windows[idx]
}

// GoodputBetween sums successful completions in windows starting within
// [from, to).
func (r *OverloadRun) GoodputBetween(from, to time.Duration) int {
	total := 0
	for _, w := range r.Windows {
		if w.Start >= from && w.Start < to {
			total += w.Successes
		}
	}
	return total
}

// Totals sums arrivals, successes, failures and throttles across tenants.
func (r *OverloadRun) Totals() (arrivals, successes, failures, throttled int) {
	for _, t := range r.Tenants {
		arrivals += t.Arrivals
		successes += t.Successes
		failures += t.Failures
		throttled += t.Throttled
	}
	return
}

// Fairness returns Jain's index over the tenants' weight-normalized success
// counts (1.0 = goodput exactly proportional to weights).
func (r *OverloadRun) Fairness() float64 {
	var sum, sumSq float64
	for _, t := range r.Tenants {
		x := float64(t.Successes) / t.Weight
		sum += x
		sumSq += x * x
	}
	if len(r.Tenants) == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(r.Tenants)) * sumSq)
}

func (r *OverloadRun) maybeFinish() {
	if r.gensLeft == 0 && r.outstanding == 0 {
		r.Done.Fire()
	}
}

// Overload schedules a multi-tenant open-loop workload of ops: each tenant
// (in registration order) draws from its own forked RNG stream, and as in
// openLoop each operation is drawn on the tenant's arrival process and runs
// in its own process. Call env.K.Run() afterwards to execute; the caller
// stops the platform once Done fires.
func Overload(cfg OverloadConfig, ops *Ops) *OverloadRun {
	env := ops.env
	if cfg.Window <= 0 {
		cfg.Window = 100 * time.Millisecond
	}
	run := &OverloadRun{
		Done:     sim.NewSignal(env.K),
		window:   cfg.Window,
		mult:     map[string]float64{},
		byName:   map[string]*OverloadTenantStats{},
		gensLeft: len(cfg.Tenants),
	}
	if cfg.Duration <= 0 || len(cfg.Tenants) == 0 {
		run.Done.Fire()
		return run
	}
	for _, tn := range cfg.Tenants {
		w := tn.Weight
		if w <= 0 {
			w = 1
		}
		st := &OverloadTenantStats{Name: tn.Name, Weight: w}
		run.Tenants = append(run.Tenants, st)
		run.byName[tn.Name] = st
		run.mult[tn.Name] = 1
	}
	for i, tn := range cfg.Tenants {
		st := run.Tenants[i]
		var gov *netsim.Tenant
		if cfg.Governor != nil {
			gov = cfg.Governor.AddTenant(tn.Name, st.Weight)
		}
		if tn.RatePerSec <= 0 {
			run.gensLeft--
			run.maybeFinish()
			continue
		}
		rng := env.RNG.Fork()
		s := ops.stream(rng, overloadDriver)
		envl := cfg.Shape.envelope(rng)
		baseGap := float64(time.Second) / tn.RatePerSec
		arrivals := &arrivalList{k: env.K, name: fmt.Sprintf("overload-%s-op", tn.Name), issue: func(p *sim.Proc, x op) {
			err := s.issue(p, x)
			done := p.Now()
			if err == nil {
				st.Successes++
				run.win(done).Successes++
			} else {
				st.Failures++
				run.win(done).Failures++
			}
			if gov != nil {
				cfg.Governor.Done(gov, err == nil)
			}
			run.outstanding--
			run.maybeFinish()
		}}
		env.K.Go(fmt.Sprintf("overload-%s-arrivals", tn.Name), func(p *sim.Proc) {
			defer func() {
				run.gensLeft--
				run.maybeFinish()
			}()
			for {
				// The flash-crowd multiplier scales the candidate rate, so
				// SetRateMult takes effect at the next candidate, shaped or
				// not; arrivals stop at the horizon.
				p.Sleep(time.Duration(rng.Exp(envl.gap(baseGap / run.mult[tn.Name]))))
				at := p.Now()
				if at >= cfg.Duration {
					return
				}
				if !envl.accept(at) {
					continue
				}
				st.Arrivals++
				run.win(at).Arrivals++
				if gov != nil && !cfg.Governor.Admit(gov) {
					st.Throttled++
					run.win(at).Throttled++
					continue
				}
				run.outstanding++
				arrivals.launch(s.next())
			}
		})
	}
	return run
}
