package sim

import "time"

// This file provides the blocking coordination primitives processes use:
// counting resources with FIFO admission, one-shot signals, countdown
// barriers, and typed FIFO queues.

// Resource is a counting resource (CPU cores, disk spindles, link slots) with
// strict FIFO admission: waiters acquire in the order they asked, and a large
// request at the head of the line blocks smaller ones behind it, which models
// non-starving hardware arbitration.
type Resource struct {
	k       *Kernel
	name    string
	cap     int
	inUse   int
	waiters fifo[resWaiter] // blocked acquirers, oldest first

	// Busy accumulates inUse-weighted time for utilization reporting.
	busy     time.Duration
	lastTick time.Duration
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource creates a resource with the given capacity (must be > 0).
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{k: k, name: name, cap: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total capacity.
func (r *Resource) Capacity() int { return r.cap }

// InUse returns the units currently held.
func (r *Resource) InUse() int { return r.inUse }

// BusyTime returns the accumulated unit-weighted busy time: holding 2 units
// for 3ms adds 6ms.
func (r *Resource) BusyTime() time.Duration {
	r.account()
	return r.busy
}

func (r *Resource) account() {
	now := r.k.now
	r.busy += time.Duration(r.inUse) * (now - r.lastTick)
	r.lastTick = now
}

// Acquire blocks the calling process until n units are available and held.
// n must be between 1 and the resource capacity.
func (p *Proc) Acquire(r *Resource, n int) {
	if n <= 0 || n > r.cap {
		panic("sim: acquire count out of range")
	}
	if r.waiters.len() == 0 && r.inUse+n <= r.cap {
		r.account()
		r.inUse += n
		return
	}
	r.waiters.push(resWaiter{p: p, n: n})
	p.park()
}

// Release returns n units to the resource and admits queued waiters in FIFO
// order. Release may be called from kernel context or any process.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic("sim: release count out of range")
	}
	r.account()
	r.inUse -= n
	for r.waiters.len() > 0 && r.inUse+r.waiters.front().n <= r.cap {
		w := r.waiters.pop()
		r.inUse += w.n
		r.k.wake(r.k.now, w.p)
	}
}

// Use acquires n units of r, sleeps for d, and releases them.
func (p *Proc) Use(r *Resource, n int, d time.Duration) {
	p.Acquire(r, n)
	p.Sleep(d)
	r.Release(n)
}

// Signal is a one-shot broadcast event. Processes that Wait before Fire block
// until it fires; waits after Fire return immediately. The zero Signal is
// unfired and ready to use, so a struct that owns one can embed it by value.
type Signal struct {
	fired bool
	// first is the first waiter, kept inline: most signals have one waiter,
	// which then costs no slice. Later waiters queue in more.
	first *Proc
	more  []*Proc
}

// NewSignal creates an unfired signal. The signal keeps no kernel: Fire
// wakes each waiter on its own kernel.
func NewSignal(*Kernel) *Signal { return &Signal{} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire releases all current and future waiters, in the order they began
// waiting. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if w := s.first; w != nil {
		s.first = nil
		w.k.wake(w.k.now, w)
	}
	for _, w := range s.more {
		w.k.wake(w.k.now, w)
	}
	s.more = nil
}

// Wait blocks the calling process until the signal fires.
func (p *Proc) Wait(s *Signal) {
	if s.fired {
		return
	}
	if s.first == nil {
		s.first = p
	} else {
		s.more = append(s.more, p)
	}
	p.park()
}

// Barrier fires its signal after Done has been called n times. It is the
// join primitive for fan-out/fan-in patterns (e.g. waiting for replica acks).
type Barrier struct {
	sig     *Signal
	pending int
}

// NewBarrier creates a barrier expecting n completions. A barrier with n <= 0
// is already fired.
func NewBarrier(k *Kernel, n int) *Barrier {
	b := &Barrier{sig: NewSignal(k), pending: n}
	if n <= 0 {
		b.sig.Fire()
	}
	return b
}

// Done records one completion. Calls beyond the expected count are no-ops.
func (b *Barrier) Done() {
	if b.pending <= 0 {
		return
	}
	b.pending--
	if b.pending == 0 {
		b.sig.Fire()
	}
}

// Pending returns the number of completions still awaited.
func (b *Barrier) Pending() int { return b.pending }

// WaitBarrier blocks the calling process until the barrier completes.
func (p *Proc) WaitBarrier(b *Barrier) { p.Wait(b.sig) }

// Queue is an unbounded FIFO queue of T with blocking Get, the mailbox
// primitive for worker loops. It has two bands: items added with Put form
// the normal FIFO band, and items added with PutHigh form a priority band
// serviced first (FIFO among themselves) — the lane that lets system and
// checker traffic overtake a brownout backlog.
//
// Items and blocked getters are both fifos, so a steady Put/GetQueue cycle
// allocates nothing.
type Queue[T any] struct {
	k     *Kernel
	items fifo[T]
	// high is the length of the priority band: the first high queued items
	// were PutHigh, the rest were Put.
	high    int
	waiters fifo[*Proc] // blocked getters, oldest first
}

// NewQueue creates an empty queue.
func NewQueue[T any](k *Kernel) *Queue[T] { return &Queue[T]{k: k} }

// Len returns the number of queued items (not counting blocked getters).
func (q *Queue[T]) Len() int { return q.items.len() }

// Put appends an item, waking the oldest blocked getter if any. It may be
// called from kernel context or any process.
func (q *Queue[T]) Put(v T) {
	if !q.handoff(v) {
		q.items.push(v)
	}
}

// PutHigh adds an item to the priority band: it is delivered before every
// normal-band item but after earlier PutHigh items. With a blocked getter
// waiting the bands are indistinguishable (the item is handed over directly).
func (q *Queue[T]) PutHigh(v T) {
	if q.handoff(v) {
		return
	}
	q.items.push(v)
	band := q.items.s[q.items.head+q.high:]
	copy(band[1:], band)
	band[0] = v
	q.high++
}

// handoff gives v to the oldest blocked getter in its Proc.got and wakes it,
// and reports false if no getter is blocked.
func (q *Queue[T]) handoff(v T) bool {
	if q.waiters.len() == 0 {
		return false
	}
	p := q.waiters.pop()
	p.got = v
	q.k.wake(q.k.now, p)
	return true
}

// Drain removes and returns all queued items without waking blocked getters.
// Callers use it to fail pending work wholesale (e.g. a crashed RPC server
// erroring out its backlog).
func (q *Queue[T]) Drain() []T {
	items := q.items.s[q.items.head:]
	q.items, q.high = fifo[T]{}, 0
	return items
}

// GetQueue blocks p until an item is available in q and returns it. A
// blocking get allocates nothing: the item arrives in p.got, and for a
// pointer-shaped T storing it there boxes nothing.
func GetQueue[T any](p *Proc, q *Queue[T]) T {
	if q.items.len() > 0 {
		v := q.items.pop()
		if q.high > 0 {
			q.high--
		}
		return v
	}
	q.waiters.push(p)
	p.park()
	// The two-value form: a nil interface item arrives as a nil got.
	v, _ := p.got.(T)
	p.got = nil
	return v
}

// fifo is a first-in first-out list over one slice, consumed from a head
// index rather than by reslicing the front away, so the array keeps its
// capacity: a list that drains as fast as it fills reuses one array. s[head:]
// are the queued elements.
type fifo[E any] struct {
	s    []E
	head int
}

func (f *fifo[E]) len() int { return len(f.s) - f.head }

// front returns the oldest element. The list must not be empty.
func (f *fifo[E]) front() E { return f.s[f.head] }

// push appends v, first moving the queued elements to the front of the array
// when it is full and at least half of it is the consumed prefix.
func (f *fifo[E]) push(v E) {
	if len(f.s) == cap(f.s) && f.head > 0 && 2*f.head >= len(f.s) {
		n := copy(f.s, f.s[f.head:])
		clear(f.s[n:])
		f.s, f.head = f.s[:n], 0
	}
	f.s = append(f.s, v)
}

// pop removes and returns the oldest element, zeroing its slot so the array
// does not pin it; an emptied list rewinds to the front of its array. The
// list must not be empty.
func (f *fifo[E]) pop() E {
	v := f.s[f.head]
	var zero E
	f.s[f.head] = zero
	f.head++
	if f.head == len(f.s) {
		f.s, f.head = f.s[:0], 0
	}
	return v
}
