// Package workload drives the platform simulations with calibrated
// operation mixes — the synthetic stand-in for the live production traffic
// the paper profiles (see the substitution table in DESIGN.md). Each
// platform has one operation source (Ops) that draws and issues its mix;
// three drivers consume it: closed-loop clients with exponential think
// times, open-loop Poisson arrivals, and the multi-tenant overload driver.
// Arrival and think-time shaping come from one envelope (ArrivalShape).
// The closed- and open-loop drivers shut the platform down once their
// operations drain; the overload driver leaves that to its caller.
package workload

import (
	"fmt"
	"time"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/spanner"
	"hyperprof/internal/stats"
)

// Run is a handle to a scheduled workload. Errors are collected rather than
// aborting the simulation.
type Run struct {
	// Completed counts operations that finished (successfully or not).
	Completed int
	// Errors holds every operation error encountered.
	Errors []error
	// Done fires when all clients have exited.
	Done *sim.Signal
}

func (r *Run) fail(op string, err error) {
	r.Errors = append(r.Errors, fmt.Errorf("%s: %w", op, err))
}

// Err returns the first error, or nil.
func (r *Run) Err() error {
	if len(r.Errors) > 0 {
		return r.Errors[0]
	}
	return nil
}

// Spanner schedules a Spanner workload of total operations over the given
// client count. Call env.K.Run() afterwards to execute it. Optional opts
// shape the clients' think times; omitted, the legacy homogeneous Exp
// schedule is reproduced exactly.
func Spanner(env *platform.Env, db *spanner.DB, mix SpannerMix, clients, total int, opts ...ClosedLoopOpts) *Run {
	return closedLoop(SpannerOps(env, db, mix), clients, total, opts)
}

// BigTable schedules a BigTable workload.
func BigTable(env *platform.Env, db *bigtable.DB, mix BigTableMix, clients, total int, opts ...ClosedLoopOpts) *Run {
	return closedLoop(BigTableOps(env, db, mix), clients, total, opts)
}

// BigQuery schedules a BigQuery workload.
func BigQuery(env *platform.Env, e *bigquery.Engine, mix BigQueryMix, clients, total int, opts ...ClosedLoopOpts) *Run {
	return closedLoop(BigQueryOps(env, e, mix), clients, total, opts)
}

// closedLoop is the closed-loop driver: clients, each on its own forked RNG
// stream, share a budget of total operations, and each issues an operation,
// thinks and repeats until the budget is spent. Once every client has
// exited the platform is shut down.
func closedLoop(ops *Ops, clients, total int, opts []ClosedLoopOpts) *Run {
	env := ops.env
	run := &Run{Done: sim.NewSignal(env.K)}
	remaining := total
	bar := sim.NewBarrier(env.K, clients)
	var shape ArrivalShape
	if len(opts) > 0 {
		shape = opts[0].Shape
	}
	for c := 0; c < clients; c++ {
		s := ops.stream(env.RNG.Fork(), closedLoopDriver)
		envl := shape.envelope(s.rng)
		env.K.Go(fmt.Sprintf("%s-client-%d", ops.name, c), func(p *sim.Proc) {
			defer bar.Done()
			for remaining > 0 {
				remaining--
				err := s.issue(p, s.next())
				run.Completed++
				if err != nil {
					run.fail(ops.name, err)
				}
				p.Sleep(time.Duration(s.rng.Exp(envl.think(p.Now(), float64(ops.think)))))
			}
		})
	}
	env.K.Go(ops.name+"-shutdown", func(p *sim.Proc) {
		p.WaitBarrier(bar)
		ops.shutdown()
		run.Done.Fire()
	})
	return run
}

// OpenLoopResult extends Run with latency observations.
type OpenLoopResult struct {
	*Run
	// Latencies collects per-operation end-to-end latencies (seconds): an
	// exact stats.Summary by default, or whatever Recorder the caller passed
	// via OpenLoopOpts (fleet-scale studies use a bounded-memory sketch).
	Latencies stats.Recorder
}

// openLoop is the open-loop driver: operations arrive at ratePerSec
// regardless of completions — the arrival model behind latency SLOs
// (queueing grows with load instead of self-throttling as in the
// closed-loop driver). Each operation is drawn on the arrival process right
// after its gap sleep, so parameter draws interleave with gap draws in
// arrival order and the schedule is a pure function of the seed; it then
// runs in its own process. The platform is shut down after the last
// operation completes.
//
// With opts.Shape enabled the arrival instants come from thinning an
// envelope Poisson process at the shape's peak rate (see ArrivalShape);
// with the zero shape the draw sequence is exactly one Exp gap per arrival,
// unchanged from the legacy driver.
func openLoop(ops *Ops, ratePerSec float64, total int, opts OpenLoopOpts) *OpenLoopResult {
	env := ops.env
	name := ops.name + "-openloop"
	lat := opts.Latencies
	if lat == nil {
		lat = &stats.Summary{}
	}
	res := &OpenLoopResult{
		Run:       &Run{Done: sim.NewSignal(env.K)},
		Latencies: lat,
	}
	if ratePerSec <= 0 || total <= 0 {
		res.Run.fail(name, fmt.Errorf("invalid rate %v or total %d", ratePerSec, total))
		res.Done.Fire()
		return res
	}
	rng := env.RNG.Fork()
	s := ops.stream(rng, openLoopDriver)
	envl := opts.Shape.envelope(rng)
	bar := sim.NewBarrier(env.K, total)
	meanGap := float64(time.Second) / ratePerSec
	arrivals := &arrivalList{k: env.K, name: name + "-op", issue: func(p *sim.Proc, x op) {
		defer bar.Done()
		start := p.Now()
		err := s.issue(p, x)
		res.Completed++
		if err != nil {
			res.fail(name, err)
		}
		res.Latencies.Add((p.Now() - start).Seconds())
	}}
	env.K.Go(name+"-arrivals", func(p *sim.Proc) {
		for launched := 0; launched < total; {
			p.Sleep(time.Duration(rng.Exp(envl.gap(meanGap))))
			if !envl.accept(p.Now()) {
				continue
			}
			launched++
			arrivals.launch(s.next())
		}
	})
	env.K.Go(name+"-shutdown", func(p *sim.Proc) {
		p.WaitBarrier(bar)
		ops.shutdown()
		res.Done.Fire()
	})
	return res
}

// arrivalList launches one open-loop driver's operations, each in its own
// process named name, and keeps the arrival records those processes start
// from. A record is free again once its process has started, so the list
// stays about one record deep however many operations are in flight.
type arrivalList struct {
	k     *sim.Kernel
	name  string
	issue func(p *sim.Proc, x op) // one operation's work, run in its process
	free  *arrival
}

// arrival is one launched operation: its drawn op and the body its process
// runs, bound once when the record is made.
type arrival struct {
	list *arrivalList
	x    op
	body func(*sim.Proc)
	next *arrival
}

// launch spawns a process that issues x.
func (l *arrivalList) launch(x op) {
	a := l.free
	if a != nil {
		l.free = a.next
	} else {
		a = &arrival{list: l}
		a.body = a.run
	}
	a.x = x
	l.k.Go(l.name, a.body)
}

// run is an arrival's process body. It copies the op out and frees the
// record before its first park, so the next launch can reuse it.
func (a *arrival) run(p *sim.Proc) {
	l, x := a.list, a.x
	a.next, l.free = l.free, a
	l.issue(p, x)
}

// SpannerOpenLoopWithOpts schedules an open-loop Spanner workload (Poisson
// arrivals at ratePerSec), with arrival shaping and recorder selection;
// the zero opts give homogeneous arrivals and an exact recorder.
func SpannerOpenLoopWithOpts(env *platform.Env, db *spanner.DB, mix SpannerMix, ratePerSec float64, total int, opts OpenLoopOpts) *OpenLoopResult {
	return openLoop(SpannerOps(env, db, mix), ratePerSec, total, opts)
}

// BigTableOpenLoopWithOpts schedules an open-loop BigTable workload; see
// SpannerOpenLoopWithOpts.
func BigTableOpenLoopWithOpts(env *platform.Env, db *bigtable.DB, mix BigTableMix, ratePerSec float64, total int, opts OpenLoopOpts) *OpenLoopResult {
	return openLoop(BigTableOps(env, db, mix), ratePerSec, total, opts)
}

// BigQueryOpenLoopWithOpts schedules an open-loop BigQuery workload; see
// SpannerOpenLoopWithOpts.
func BigQueryOpenLoopWithOpts(env *platform.Env, e *bigquery.Engine, mix BigQueryMix, ratePerSec float64, total int, opts OpenLoopOpts) *OpenLoopResult {
	return openLoop(BigQueryOps(env, e, mix), ratePerSec, total, opts)
}
