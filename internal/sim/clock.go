package sim

import "time"

// Clock is a per-node wall clock over the kernel's true virtual time: the
// node reads true time plus an injected offset plus accumulated drift, and
// knows its reading only up to a bounded uncertainty eps. It is the
// simulation's substitute for TrueTime: TT.now() returns an interval
// [Earliest, Latest] guaranteed to contain true time as long as the injected
// skew stays within eps — the guarantee clock-skew nemesis schedules
// deliberately hold (hardened arms) or break (broken-knob fixtures).
//
// Determinism: a Clock is a pure function of kernel time and its injected
// (offset, drift) history — it draws no randomness and schedules no events
// of its own, so adding clocks perturbs no existing run.
type Clock struct {
	k *Kernel
	// offset is the accumulated skew at setAt; drift adds further skew at
	// `drift` seconds per true second since then.
	offset time.Duration
	drift  float64
	setAt  time.Duration
	eps    time.Duration
}

// NewClock returns a clock on the kernel with the given uncertainty bound.
// eps <= 0 means a perfect oracle clock (zero-width intervals).
func NewClock(k *Kernel, eps time.Duration) *Clock {
	if eps < 0 {
		eps = 0
	}
	return &Clock{k: k, eps: eps}
}

// Now returns the node's local reading: true time, skewed.
func (c *Clock) Now() time.Duration {
	t := c.k.Now()
	return t + c.offset + time.Duration(c.drift*float64(t-c.setAt))
}

// Earliest returns the lower edge of the uncertainty interval — the earliest
// instant true time could be, given the local reading.
func (c *Clock) Earliest() time.Duration { return c.Now() - c.eps }

// Latest returns the upper edge of the uncertainty interval — the latest
// instant true time could be. Spanner-style commit timestamps are drawn from
// Latest so a timestamp is never in the node's believed past.
func (c *Clock) Latest() time.Duration { return c.Now() + c.eps }

// SetSkew injects clock skew: an absolute offset plus a drift rate (seconds
// of skew per true second) accruing from now. Like every other injection
// knob in this repository, calling it again replaces the previous skew,
// never stacks it.
func (c *Clock) SetSkew(offset time.Duration, drift float64) {
	c.offset = offset
	c.drift = drift
	c.setAt = c.k.Now()
}

// CommitWait parks the process until the clock's uncertainty interval has
// wholly passed ts — Earliest() > ts — which is the commit-wait rule: once
// the wait returns, every node's true time is certainly beyond ts, so any
// operation invoked afterwards anywhere observes a strictly larger
// timestamp. The loop re-checks after sleeping the apparent deficit because
// drift makes apparent and true durations differ; it converges for any
// drift > -1 (the clock still runs forward).
func (c *Clock) CommitWait(p *Proc, ts time.Duration) {
	for {
		deficit := ts - c.Earliest()
		if deficit < 0 {
			return
		}
		p.Sleep(deficit + time.Microsecond)
	}
}
