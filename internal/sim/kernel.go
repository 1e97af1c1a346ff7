// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every platform simulation in this repository (Spanner, BigTable, BigQuery,
// the accelerated SoC) runs on this kernel. Virtual time is a time.Duration
// measured from simulation start. Processes are ordinary goroutines that run
// in strict alternation with the kernel: at any instant exactly one goroutine
// (either the kernel or a single process) is executing, so simulations are
// reproducible bit-for-bit and need no locking.
//
// A process's lifecycle is spawn (Go) → park and resume on primitives →
// exit, either by returning from its body or, if it is still parked when the
// simulation is abandoned, by Close unwinding it: Close resumes each live
// process in turn, and the process ends itself with runtime.Goexit, running
// its deferred calls on the way out. A parked goroutine keeps everything its
// stack reaches alive, so a caller that drops a kernel with parked processes
// (server loops waiting for requests that will never come) must Close it to
// release the simulation. The Proc of a body that returned goes on the
// kernel's free list, and a later Go reuses it with a fresh goroutine. The
// goroutine starts from a func value bound once when the Proc is made, so a
// spawn that reuses a Proc allocates nothing.
//
// A Kernel is single-threaded by construction, but distinct kernels share no
// state, so independent simulations may run on concurrent goroutines (the
// experiments runner exploits this; see DESIGN.md "Performance
// architecture").
package sim

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// Kernel is a discrete-event simulator. The zero value is not usable; create
// one with New.
type Kernel struct {
	now    time.Duration
	seq    int64
	events eventQueue
	yield  chan struct{}
	live   int   // processes started and not yet terminated
	procs  *Proc // head of the intrusive list of those live processes
	free   *Proc // finished processes for Go to reuse, linked through next
	// closing is set by Close: a process resumed from then on unwinds
	// instead of running.
	closing bool
}

// New returns an empty kernel at virtual time zero.
func New() *Kernel {
	return &Kernel{yield: make(chan struct{})}
}

// NewHeapOnly returns a kernel whose event queue bypasses the timer wheel
// and runs every event through the comparison heap alone. Pop order is
// identical to New — the wheel is a routing layer, not an ordering one — so
// the only observable difference is speed. It exists as the measurable
// baseline for the dense-timer benchmarks and the differential ordering
// tests; simulations should use New.
func NewHeapOnly() *Kernel {
	k := &Kernel{yield: make(chan struct{})}
	k.events.heapOnly = true
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Live reports the number of processes that have been started and have not
// yet terminated. After Run returns and until Close, a nonzero Live count
// means processes are blocked on primitives nobody will fire (deadlocked, or
// server loops whose work has drained); Close ends them and Live reads 0.
func (k *Kernel) Live() int { return k.live }

// PendingEvents returns the number of events currently queued. Under strict
// alternation, events are the only thing that wakes a parked process, so a
// zero count observed from inside an executing event means no further work
// can occur after it returns. Periodic self-rescheduling activities (the obs
// sampling tick) use this to stop exactly when the workload drains instead
// of keeping the kernel alive forever.
func (k *Kernel) PendingEvents() int { return k.events.len() }

// Schedule runs fn in kernel context after delay d. A negative delay is
// treated as zero. Events scheduled for the same instant run in the order
// they were scheduled.
func (k *Kernel) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.push(k.now+d, fn)
}

func (k *Kernel) push(at time.Duration, fn func()) {
	k.seq++
	k.events.push(event{at: at, seq: k.seq, cb: fn})
}

// ScheduleArg runs fn(arg) in kernel context after delay d. It is the
// allocation-free form of Schedule for hot paths: because fn takes its state
// as an explicit argument, the caller can hoist one func value and pass a
// pointer-shaped arg per event, and neither boxing a pointer into the `any`
// nor storing it in the value-typed event allocates. Schedule's closure form
// costs one allocation per distinct captured state; in a dense-timer loop
// that is one allocation per event.
func (k *Kernel) ScheduleArg(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	k.seq++
	k.events.push(event{at: k.now + d, seq: k.seq, cb: fn, arg: arg})
}

// wake enqueues a resume of process p at virtual time `at`. It is the
// allocation-free fast path behind Sleep and the primitive wakeups: unlike
// Schedule it carries the process in the event value itself instead of a
// heap-allocated closure, so the steady-state park/resume cycle performs no
// allocation at all.
func (k *Kernel) wake(at time.Duration, p *Proc) {
	k.seq++
	k.events.push(event{at: at, seq: k.seq, cb: p})
}

// Go starts a new process executing fn. The process begins at the current
// virtual time, after already-scheduled events for this instant. Go may be
// called before Run, from kernel context, or from another process.
//
// The returned *Proc is valid only until fn returns: the kernel then recycles
// it for a later Go, which gives it a new name and body.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := k.free
	if p != nil {
		k.free = p.next
		p.next = nil
	} else {
		p = &Proc{k: k, resume: make(chan struct{})}
		p.start = p.run
	}
	p.name, p.fn = name, fn
	k.link(p)
	go p.start()
	k.wake(k.now, p)
	return p
}

// run is the body of a process goroutine. Every process gets a fresh
// goroutine: a reused one would keep the deepest stack any earlier body grew.
// Go starts it through p.start, not as `go p.run()`: a method value in a go
// statement allocates its closure per spawn, a stored func() allocates none.
func (p *Proc) run() {
	k := p.k
	// A body that returns takes the explicit exit below; one that Close
	// unwinds leaves through runtime.Goexit, which runs the deferred unlink.
	// returned keeps the deferred call from reading k.closing once the kernel
	// has control again. A panicking body (closing is false) takes neither,
	// so the panic crashes the program with the kernel still blocked.
	returned := false
	defer func() {
		if !returned && k.closing {
			k.unlink(p)
			k.yield <- struct{}{}
		}
	}()
	<-p.resume
	fn := p.fn
	p.fn = nil // a free Proc must not keep its body's closure alive
	if !k.closing {
		fn(p)
	}
	returned = true
	k.exit(p)
}

// link records p as live at the head of the kernel's process list. The list
// is intrusive (prev/next live on Proc) so spawning allocates nothing beyond
// the process itself.
func (k *Kernel) link(p *Proc) {
	k.live++
	p.next = k.procs
	if k.procs != nil {
		k.procs.prev = p
	}
	k.procs = p
}

// unlink removes p from the live-process list.
func (k *Kernel) unlink(p *Proc) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		k.procs = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
	k.live--
}

// exit retires p to the free list and hands control back to the kernel. It
// is the last thing a returning process goroutine does. Only a returned
// process is recycled: one that Close unwound was parked, and the primitive
// it parked on may still hold it.
func (k *Kernel) exit(p *Proc) {
	k.unlink(p)
	p.next = k.free
	k.free = p
	k.yield <- struct{}{}
}

// Close ends every live process and drops every pending event, releasing
// the goroutines — and through their stacks the simulated state — that a
// drained run leaves parked. It resumes the live processes one at a time, in
// strict alternation as Run does. A parked one unwinds with runtime.Goexit,
// so its deferred calls run and a recover in its body cannot stop it; one
// that never started exits without running its body. Deferred calls may
// touch simulated state (release a resource, count a barrier down, record a
// metric), so call Close only after everything the caller reports has been
// read out of the simulation. Processes spawned or re-parked by those
// deferred calls are unwound too; Close returns when none is left.
//
// Close is for kernel context: call it after Run or RunUntil returns, never
// from a process or an event. The kernel is spent afterwards: a process
// started later exits without running its body. A second Close does nothing.
func (k *Kernel) Close() {
	k.closing = true
	for k.procs != nil {
		k.step(k.procs)
	}
	k.events = eventQueue{heapOnly: k.events.heapOnly}
}

// step transfers control to process p until it parks or terminates.
func (k *Kernel) step(p *Proc) {
	p.resume <- struct{}{}
	<-k.yield
}

// dispatch executes one popped event in kernel context. The type switch
// compares interface type words — no allocation, no reflection — ordered by
// steady-state frequency: proc wakes dominate platform simulations,
// argument callbacks the dense-timer paths.
func (k *Kernel) dispatch(e event) {
	switch f := e.cb.(type) {
	case *Proc:
		k.step(f)
	case func(any):
		f(e.arg)
	default:
		e.cb.(func())()
	}
}

// Run executes events until the event queue is empty. It returns the virtual
// time of the last event executed.
func (k *Kernel) Run() time.Duration {
	for k.events.len() > 0 {
		e := k.events.pop()
		k.now = e.at
		k.dispatch(e)
	}
	return k.now
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled after t remain queued.
func (k *Kernel) RunUntil(t time.Duration) {
	for k.events.len() > 0 && k.events.min().at <= t {
		e := k.events.pop()
		k.now = e.at
		k.dispatch(e)
	}
	if k.now < t {
		k.now = t
	}
}

// event is one queue entry, held by value inside the queue's backing slices
// so scheduling never performs a per-event allocation (the old
// container/heap queue boxed a pointer per event). cb is one of three
// pointer-shaped payloads — a func() closure (Schedule), a func(any)
// callback paired with arg (the ScheduleArg fast path), or a *Proc to
// resume (the wake fast path) — dispatched by type switch. Folding the
// three into one interface word keeps the event at 48 bytes with only two
// GC-scanned words; queues at fleet scale hold millions of these, so both
// the copy width and the mark cost show up directly in event throughput.
// Value-typed events subsume a timer free-list — popped slots are reused in
// place by later pushes, and emptied wheel buckets keep their capacity.
type event struct {
	at  time.Duration
	seq int64
	cb  any
	arg any
}

// before orders events by (time, schedule sequence); seq is unique per
// kernel, making this a total order, so the pop sequence — and therefore the
// simulation — is identical regardless of queue tiering or heap layout.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Timer-wheel geometry. The wheel spans wheelBuckets buckets of
// wheelGran virtual time each; with a 16.4µs granularity and 256 buckets
// the horizon is ~4.2ms, which covers the dense-timer regime (RPC
// service/transit times, retry backoffs) while long sleeps and far-future
// timers overflow to the comparison heap.
const (
	wheelShift   = 14 // log2 of bucket granularity in nanoseconds
	wheelGran    = time.Duration(1) << wheelShift
	wheelBuckets = 256 // power of two so index masking is a single AND
	wheelMask    = wheelBuckets - 1
	wheelHorizon = wheelGran * wheelBuckets

	// wheelBucketCap is each bucket's pre-carved arena capacity; see
	// initWheel.
	wheelBucketCap = 4
)

// eventQueue is a three-tier calendar queue preserving exact (at, seq) pop
// order:
//
//   - run+spill (the near tier): everything earlier than the boundary. run
//     is the last swept wheel bucket, sorted once by (at, seq) and consumed
//     front to back — batch event application, with O(1) pops. spill is a
//     small 4-ary heap catching events scheduled behind the boundary after
//     their bucket was already swept (typically same-instant follow-ons,
//     popped back off while the heap is a handful deep). The global minimum
//     is the smaller of the two heads.
//   - wheel: a hierarchical-timer-wheel level of wheelBuckets unsorted
//     buckets covering [boundary, boundary+wheelHorizon). Pushing into a
//     bucket is O(1) append; ordering is recovered lazily when the boundary
//     sweeps past a bucket. The comparison work therefore scales with
//     bucket occupancy, not queue size, which is what makes the
//     dense-timer regime cheap.
//   - far: a 4-ary heap for events at or beyond the wheel horizon at push
//     time. Far events never migrate through buckets: each sweep pops the
//     far events maturing in its window — already in (at, seq) order, since
//     heap pops are sorted — and merges them with the bucket's sorted
//     batch. The invariant is simply far.min ≥ boundary.
//
// Tier routing never reorders events: a bucket is swept only once the near
// tier has fully drained, so all events for a given instant are in the near
// tier together before that instant can pop, and sort-merge-plus-spill
// restores the total (at, seq) order. boundary is bucket-aligned and only
// advances, so a kernel's pop sequence is bit-identical to a single heap's.
//
// With heapOnly set, every event routes to the spill heap and the queue
// degenerates to the pre-wheel single heap — the measurable baseline for
// the wheel.
type eventQueue struct {
	heapOnly  bool
	wheelInit bool
	size      int
	boundary  time.Duration // bucket-aligned; near tier holds events < boundary
	runHead   int
	run       []event  // sorted batch from the last sweep
	keys      []uint64 // scratch for advance's sort-by-key pass
	farRun    []event  // scratch for far events maturing into a sweep
	spill     eventHeap
	far       eventHeap
	wheelN    int // events currently resident in wheel buckets
	wheel     [wheelBuckets][]event
}

func (q *eventQueue) len() int { return q.size }

// initWheel carves every bucket's initial storage out of one shared arena
// (full-slice expressions cap each bucket so an overflowing one reallocates
// independently without bleeding into its neighbour). One allocation warms
// the whole wheel; without the arena, first-touch growth of each bucket
// would cost O(wheelBuckets) allocations per kernel and break the
// steady-state zero-alloc guarantee the park/resume tests pin.
func (q *eventQueue) initWheel() {
	const c = wheelBucketCap
	arena := make([]event, wheelBuckets*c)
	for i := range q.wheel {
		q.wheel[i] = arena[i*c : i*c : i*c+c]
	}
	q.wheelInit = true
}

func (q *eventQueue) push(e event) {
	q.size++
	switch {
	case q.heapOnly || e.at < q.boundary:
		q.spill.push(e)
	case e.at < q.boundary+wheelHorizon:
		if !q.wheelInit {
			q.initWheel()
		}
		i := (e.at >> wheelShift) & wheelMask
		q.wheel[i] = append(q.wheel[i], e)
		q.wheelN++
	default:
		q.far.push(e)
	}
}

// min returns the earliest event without removing it. It must not be called
// on an empty queue. Advancing the wheel to expose the minimum mutates tier
// placement but never contents or order, so min stays logically read-only.
func (q *eventQueue) min() event {
	for {
		if q.runHead < len(q.run) {
			if len(q.spill.ev) > 0 && q.spill.ev[0].before(q.run[q.runHead]) {
				return q.spill.ev[0]
			}
			return q.run[q.runHead]
		}
		if len(q.spill.ev) > 0 {
			return q.spill.ev[0]
		}
		q.advance()
	}
}

// pop removes and returns the earliest event. It must not be called on an
// empty queue.
func (q *eventQueue) pop() event {
	for {
		if q.runHead < len(q.run) {
			q.size--
			if len(q.spill.ev) > 0 && q.spill.ev[0].before(q.run[q.runHead]) {
				return q.spill.pop()
			}
			e := q.run[q.runHead]
			q.run[q.runHead] = event{} // release cb/arg references for GC
			q.runHead++
			return e
		}
		if len(q.spill.ev) > 0 {
			q.size--
			return q.spill.pop()
		}
		q.advance()
	}
}

// advance moves the boundary forward one sweep, batch-applying matured
// events into the run. It is only reached with run and spill both drained.
// One sweep covers one bucket-width window [boundary, boundary+wheelGran):
// the bucket's events are sorted by (at, seq) and the far events maturing
// in the window — popped from the heap already in (at, seq) order — are
// merged in. When the wheel is empty the boundary first jumps straight to
// the far tier's next bucket, so long quiet stretches cost one step, not
// one step per empty bucket. Progress is guaranteed while the queue is
// non-empty: the wheel holds an event within wheelBuckets sweeps of the
// boundary, or the jump lands the sweep window on far's minimum.
func (q *eventQueue) advance() {
	if q.wheelN == 0 {
		// Wheel empty: the next event lives in far (alignment keeps the
		// boundary's bucket-index arithmetic exact, and far.min ≥ boundary
		// keeps the jump monotone).
		q.boundary = q.far.ev[0].at &^ (wheelGran - 1)
	}
	sweepEnd := q.boundary + wheelGran
	i := (q.boundary >> wheelShift) & wheelMask
	b := q.wheel[i]
	q.wheelN -= len(b)
	q.boundary = sweepEnd

	// Far events maturing in this window, in (at, seq) order.
	fr := q.farRun[:0]
	for len(q.far.ev) > 0 && q.far.ev[0].at < sweepEnd {
		fr = append(fr, q.far.pop())
	}
	q.farRun = fr

	if len(b) == 0 && len(fr) == 0 {
		return // empty window; callers loop
	}
	q.runHead = 0

	// Sort the bucket by (at, seq). Buckets fill in seq order, so
	// same-instant runs arrive pre-sorted: small buckets use an adaptive
	// in-place insertion sort. Dense buckets would spend most of a direct
	// sort copying 48-byte events around, so they sort compact keys and
	// gather once: the key packs the event's offset within the bucket
	// (< wheelGran, 14 bits) above its append index, and bucket append
	// order is seq order, so key order is exactly (at, seq) order.
	if len(b) <= 32 {
		for j := 1; j < len(b); j++ {
			e := b[j]
			m := j
			for m > 0 && e.before(b[m-1]) {
				b[m] = b[m-1]
				m--
			}
			b[m] = e
		}
		if len(fr) == 0 {
			// The bucket becomes the run wholesale; the consumed run's
			// backing array becomes the bucket's next arena. Steady-state
			// wheel traffic allocates nothing.
			q.wheel[i] = q.run[:0]
			q.run = b
			return
		}
		// Merge the two sorted runs into the consumed run's array.
		dst := q.run[:0]
		bi, fi := 0, 0
		for bi < len(b) && fi < len(fr) {
			if b[bi].before(fr[fi]) {
				dst = append(dst, b[bi])
				bi++
			} else {
				dst = append(dst, fr[fi])
				fi++
			}
		}
		dst = append(dst, b[bi:]...)
		dst = append(dst, fr[fi:]...)
		q.run = dst
		clearEvents(b)
		q.wheel[i] = b[:0]
		clearEvents(fr)
		q.farRun = fr[:0]
		return
	}
	keys := q.keys[:0]
	for j, e := range b {
		keys = append(keys, uint64(e.at&(wheelGran-1))<<48|uint64(j))
	}
	slices.Sort(keys)
	q.keys = keys
	// Gather the bucket through the sorted keys, merging the far run's
	// cursor in as it goes — one pass, one copy per event.
	dst := q.run[:0]
	fi := 0
	for _, kk := range keys {
		e := b[kk&(1<<48-1)]
		for fi < len(fr) && fr[fi].before(e) {
			dst = append(dst, fr[fi])
			fi++
		}
		dst = append(dst, e)
	}
	dst = append(dst, fr[fi:]...)
	q.run = dst
	clearEvents(b)
	q.wheel[i] = b[:0]
	clearEvents(fr)
	q.farRun = fr[:0]
}

// clearEvents zeroes a consumed scratch slice so it does not pin cb/arg
// references for the garbage collector; the backing array is recycled.
func clearEvents(ev []event) {
	for j := range ev {
		ev[j] = event{}
	}
}

// eventHeap is an inlined 4-ary min-heap over value-typed events. Arity 4
// halves the tree depth of a binary heap, which matters because sift-down
// dominates: DES queues pop from the root far more often than they percolate
// from the leaves ("hold" operations land near the bottom).
type eventHeap struct {
	ev []event
}

func (q *eventHeap) push(e event) {
	q.ev = append(q.ev, e)
	// Sift up: hole-based, writing the new event once at its final slot.
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(q.ev[parent]) {
			break
		}
		q.ev[i] = q.ev[parent]
		i = parent
	}
	q.ev[i] = e
}

// pop removes and returns the earliest event. It must not be called on an
// empty heap.
func (q *eventHeap) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = event{} // release cb/arg references for GC
	q.ev = q.ev[:n]
	if n == 0 {
		return top
	}
	// Sift down: hole-based from the root, writing `last` once at the end.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.ev[c].before(q.ev[min]) {
				min = c
			}
		}
		if !q.ev[min].before(last) {
			break
		}
		q.ev[i] = q.ev[min]
		i = min
	}
	q.ev[i] = last
	return top
}

// Proc is a simulated process. All Proc methods must be called from within
// the process's own goroutine (i.e. from the fn passed to Kernel.Go).
type Proc struct {
	k    *Kernel
	name string
	fn   func(p *Proc) // the body, until run starts it
	// start is p.run, bound once when the Proc is made and reused by every
	// spawn on it.
	start  func()
	resume chan struct{}
	// got carries the item a Queue hands to this process while it is parked
	// in GetQueue.
	got any
	// prev and next are the neighbours in the kernel's live-process list;
	// on the free list, next links the free processes.
	prev, next *Proc
}

// Name returns the name the process was started with.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// park blocks the process until some event resumes it, or until Close
// resumes it to unwind.
func (p *Proc) park() {
	p.k.yield <- struct{}{}
	<-p.resume
	if p.k.closing {
		runtime.Goexit()
	}
}

// Sleep blocks the process for virtual duration d. It rides the wake fast
// path: the timer is a value-typed event carrying p itself, so a
// Sleep→park→resume cycle allocates nothing in steady state.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	k := p.k
	k.wake(k.now+d, p)
	p.park()
}

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
