package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestEventQueueMatchesSortOrder drives the 4-ary heap with adversarial
// pushes and pops interleaved, and checks the pop sequence is exactly the
// (at, seq) sort order — the invariant the kernel's determinism rests on.
func TestEventQueueMatchesSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	var pending []event
	var popped []event
	seq := int64(0)
	for round := 0; round < 2000; round++ {
		if len(pending) == 0 || rng.Intn(3) > 0 {
			seq++
			// Few distinct timestamps so same-instant FIFO is exercised hard.
			e := event{at: time.Duration(rng.Intn(16)), seq: seq}
			q.push(e)
			pending = append(pending, e)
		} else {
			popped = append(popped, q.pop())
			pending = pending[:len(pending)-1]
		}
	}
	for q.len() > 0 {
		popped = append(popped, q.pop())
	}
	sort.Slice(popped, func(i, j int) bool { return popped[i].seq < popped[j].seq })
	// Replay: push everything again and pop all; must come out fully sorted.
	var q2 eventQueue
	for _, e := range popped {
		q2.push(e)
	}
	prev := q2.pop()
	for q2.len() > 0 {
		next := q2.pop()
		if next.before(prev) {
			t.Fatalf("heap order violated: (%v,%d) popped after (%v,%d)", prev.at, prev.seq, next.at, next.seq)
		}
		prev = next
	}
}

// TestSleepParkResumeAllocFree asserts the kernel's hot loop — a process
// sleeping and resuming through the value-typed event heap — allocates
// nothing in steady state. This is the invariant BenchmarkSimProcSwitch
// tracks; a regression here silently slows every platform simulation.
func TestSleepParkResumeAllocFree(t *testing.T) {
	const cycles = 2000
	avg := testing.AllocsPerRun(5, func() {
		k := New()
		k.Go("sleeper", func(p *Proc) {
			for i := 0; i < cycles; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		k.Run()
	})
	// Building the kernel and starting the process costs a fixed handful of
	// allocations (kernel, proc, channels, goroutine, initial heap growth);
	// the 2000 sleep cycles themselves must cost none. The old
	// container/heap queue paid 2 allocs per cycle (~4000 here).
	if avg > 25 {
		t.Fatalf("sleep/park/resume allocated %.0f objects across %d cycles, want setup-only (<=25)", avg, cycles)
	}
}

// TestQueueHandoffAllocFree asserts a blocking get round trip — Put hands
// the item to a parked getter, which takes it and parks again — allocates
// nothing in steady state: the item travels in the getter's Proc and the
// waiter slice keeps its capacity. Every RPC server worker waits this way.
func TestQueueHandoffAllocFree(t *testing.T) {
	k := New()
	q := NewQueue[*int](k)
	item, n := new(int), 0
	k.Go("getter", func(p *Proc) {
		for {
			if GetQueue(p, q) == item {
				n++
			}
		}
	})
	k.Run()
	avg := testing.AllocsPerRun(1000, func() {
		q.Put(item)
		k.Run()
	})
	if avg != 0 || n != 1001 {
		t.Fatalf("blocking get round trip: %.2f allocs, %d items received; want 0 and 1001", avg, n)
	}
	k.Close()
}

// TestQueueManyGettersAllocFree extends the handoff round trip to a queue
// with three getters parked, as on a server with several workers: each Put
// wakes the oldest getter, which re-parks behind the others, so the waiter
// list is consumed from the front and refilled at the back. The list keeps
// its array, and the getters take the items in turn.
func TestQueueManyGettersAllocFree(t *testing.T) {
	k := New()
	q := NewQueue[*int](k)
	item := new(int)
	var got [3]int
	for i := range got {
		k.Go("getter", func(p *Proc) {
			for GetQueue(p, q) == item {
				got[i]++
			}
		})
	}
	k.Run()
	// AllocsPerRun truncates its average, so each run makes 99 round trips:
	// a list that regrew only every few round trips still counts.
	avg := testing.AllocsPerRun(10, func() {
		for range 99 {
			q.Put(item)
			k.Run()
		}
	})
	if avg != 0 || got != [3]int{363, 363, 363} {
		t.Fatalf("three parked getters: %.2f allocs per 99 round trips, items per getter %v; want 0 and [363 363 363]", avg, got)
	}
	k.Close()
}

// TestQueueBacklogAllocFree checks a queue that keeps a backlog reuses its
// item array: with two items queued, putting one and taking one allocates
// nothing in steady state. GetQueue with items queued never parks, so it
// needs no process.
func TestQueueBacklogAllocFree(t *testing.T) {
	q := NewQueue[*int](New())
	item := new(int)
	q.Put(item)
	q.Put(item)
	avg := testing.AllocsPerRun(10, func() {
		for range 100 {
			q.Put(item)
			GetQueue(nil, q)
		}
	})
	if avg != 0 || q.Len() != 2 {
		t.Fatalf("backlog cycle: %.2f allocs per 100 cycles, %d queued; want 0 and 2", avg, q.Len())
	}
}

// TestResourceContentionAllocFree checks a contended resource reuses its
// waiter array: three processes take turns on one unit, so every Release
// admits the oldest waiter from the front and every blocked Acquire queues at
// the back, and a steady stretch of that allocates nothing.
func TestResourceContentionAllocFree(t *testing.T) {
	k := New()
	r := NewResource(k, "cpu", 1)
	uses := 0
	for range 3 {
		k.Go("user", func(p *Proc) {
			for {
				p.Use(r, 1, time.Microsecond)
				uses++
			}
		})
	}
	k.RunUntil(10 * time.Microsecond)
	avg := testing.AllocsPerRun(10, func() {
		k.RunUntil(k.Now() + 100*time.Microsecond)
	})
	if avg != 0 || uses < 1000 {
		t.Fatalf("contended resource: %.2f allocs per 100 uses, %d uses; want 0 and at least 1000", avg, uses)
	}
	k.Close()
}

// TestQueueOrderMatchesModel drives a queue with random Put, PutHigh, get and
// Drain calls and checks every get and Drain against a plain slice model of
// the two bands, so consuming from a head index keeps the order exactly.
func TestQueueOrderMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewQueue[int](New())
	var high, normal []int
	for i := 0; i < 20000; i++ {
		switch r := rng.Intn(20); {
		case r < 7:
			q.Put(i)
			normal = append(normal, i)
		case r < 10:
			q.PutHigh(i)
			high = append(high, i)
		case r < 19:
			if q.Len() == 0 {
				continue
			}
			var want int
			if len(high) > 0 {
				want, high = high[0], high[1:]
			} else {
				want, normal = normal[0], normal[1:]
			}
			if got := GetQueue(nil, q); got != want {
				t.Fatalf("op %d: got %d, want %d", i, got, want)
			}
		default:
			want := append(append([]int(nil), high...), normal...)
			got := q.Drain()
			if len(got) != len(want) {
				t.Fatalf("op %d: Drain returned %d items, want %d", i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("op %d: Drain = %v, want %v", i, got, want)
				}
			}
			high, normal = nil, nil
		}
		if q.Len() != len(high)+len(normal) {
			t.Fatalf("op %d: Len %d, want %d", i, q.Len(), len(high)+len(normal))
		}
	}
}

// TestQueueNilInterfaceItem checks a blocked getter of an interface-typed
// queue receives a nil item as nil instead of panicking on the handoff, and
// a non-nil one intact.
func TestQueueNilInterfaceItem(t *testing.T) {
	k := New()
	q := NewQueue[error](k)
	boom := errors.New("boom")
	var got []error
	k.Go("getter", func(p *Proc) {
		got = append(got, GetQueue(p, q), GetQueue(p, q))
	})
	k.Run()
	q.Put(nil)
	k.Run()
	q.PutHigh(boom)
	k.Run()
	if len(got) != 2 || got[0] != nil || got[1] != boom {
		t.Fatalf("got %v, want [<nil> boom]", got)
	}
}

// TestScheduleStormDeterminism schedules a large randomized event storm twice
// and checks the execution orders are identical — the heap rewrite must not
// perturb tie-breaking.
func TestScheduleStormDeterminism(t *testing.T) {
	run := func() []int {
		rng := rand.New(rand.NewSource(7))
		k := New()
		var order []int
		for i := 0; i < 5000; i++ {
			i := i
			k.Schedule(time.Duration(rng.Intn(64))*time.Microsecond, func() {
				order = append(order, i)
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event storm diverged at index %d", i)
		}
	}
}
