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
