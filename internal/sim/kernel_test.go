package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := New()
	var got []int
	k.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	k.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	k.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	end := k.Run()
	if end != 3*time.Millisecond {
		t.Fatalf("end time = %v, want 3ms", end)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestScheduleSameInstantFIFO(t *testing.T) {
	k := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant order = %v", got)
		}
	}
}

func TestScheduleNegativeDelayClamped(t *testing.T) {
	k := New()
	fired := false
	k.Schedule(-time.Second, func() { fired = true })
	if end := k.Run(); end != 0 {
		t.Fatalf("end = %v, want 0", end)
	}
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
}

func TestProcSleep(t *testing.T) {
	k := New()
	var woke time.Duration
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		p.Sleep(7 * time.Millisecond)
		woke = p.Now()
	})
	k.Run()
	if woke != 12*time.Millisecond {
		t.Fatalf("woke at %v, want 12ms", woke)
	}
	if k.Live() != 0 {
		t.Fatalf("live = %d, want 0", k.Live())
	}
}

func TestProcSleepZeroAndNegative(t *testing.T) {
	k := New()
	done := false
	k.Go("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-time.Second)
		done = true
	})
	k.Run()
	if !done || k.Now() != 0 {
		t.Fatalf("done=%v now=%v", done, k.Now())
	}
}

func TestManyProcsDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		k := New()
		var order []string
		for _, n := range []string{"a", "b", "c", "d"} {
			n := n
			k.Go(n, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Millisecond)
					order = append(order, n)
				}
			})
		}
		k.Run()
		return order
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("lengths differ: %d vs %d", len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, first, again)
			}
		}
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(3 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if k.Now() != 3*time.Millisecond {
		t.Fatalf("now = %v, want 3ms", k.Now())
	}
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("after Run fired %v, want 3 events", fired)
	}
}

func TestResourceFIFOAdmission(t *testing.T) {
	k := New()
	r := NewResource(k, "cpu", 2)
	var order []string
	hold := func(name string, units int, d time.Duration) {
		k.Go(name, func(p *Proc) {
			p.Acquire(r, units)
			order = append(order, name+"+")
			p.Sleep(d)
			r.Release(units)
			order = append(order, name+"-")
		})
	}
	hold("a", 2, 10*time.Millisecond)
	hold("b", 2, 10*time.Millisecond) // must wait for a
	hold("c", 1, 1*time.Millisecond)  // arrives later; FIFO means it waits behind b
	k.Run()
	want := []string{"a+", "a-", "b+", "b-", "c+", "c-"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Live() != 0 {
		t.Fatalf("live = %d", k.Live())
	}
}

func TestResourceConcurrentHolders(t *testing.T) {
	k := New()
	r := NewResource(k, "cpu", 3)
	var maxInUse int
	for i := 0; i < 9; i++ {
		k.Go("w", func(p *Proc) {
			p.Acquire(r, 1)
			if r.InUse() > maxInUse {
				maxInUse = r.InUse()
			}
			p.Sleep(time.Millisecond)
			r.Release(1)
		})
	}
	end := k.Run()
	if maxInUse != 3 {
		t.Fatalf("max in use = %d, want 3", maxInUse)
	}
	// 9 jobs of 1ms on 3 cores: 3ms total.
	if end != 3*time.Millisecond {
		t.Fatalf("makespan = %v, want 3ms", end)
	}
}

func TestResourceBusyTime(t *testing.T) {
	k := New()
	r := NewResource(k, "cpu", 4)
	k.Go("w", func(p *Proc) { p.Use(r, 2, 3*time.Millisecond) })
	k.Run()
	if got := r.BusyTime(); got != 6*time.Millisecond {
		t.Fatalf("busy = %v, want 6ms", got)
	}
}

func TestResourcePanics(t *testing.T) {
	k := New()
	mustPanic(t, "capacity", func() { NewResource(k, "x", 0) })
	r := NewResource(k, "x", 1)
	mustPanic(t, "release", func() { r.Release(1) })
	k.Go("p", func(p *Proc) {
		mustPanic(t, "acquire too many", func() { p.Acquire(r, 2) })
		mustPanic(t, "acquire zero", func() { p.Acquire(r, 0) })
	})
	k.Run()
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestSignalBroadcast(t *testing.T) {
	k := New()
	s := NewSignal(k)
	var woke []string
	for _, n := range []string{"x", "y", "z"} {
		n := n
		k.Go(n, func(p *Proc) {
			p.Wait(s)
			woke = append(woke, n)
		})
	}
	k.Schedule(4*time.Millisecond, s.Fire)
	k.Run()
	if len(woke) != 3 {
		t.Fatalf("woke = %v", woke)
	}
	if k.Now() != 4*time.Millisecond {
		t.Fatalf("now = %v", k.Now())
	}
	// Waiting on an already-fired signal returns immediately.
	done := false
	k.Go("late", func(p *Proc) {
		p.Wait(s)
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("late waiter blocked on fired signal")
	}
}

func TestSignalDoubleFire(t *testing.T) {
	k := New()
	s := NewSignal(k)
	s.Fire()
	s.Fire() // must not panic
	if !s.Fired() {
		t.Fatal("not fired")
	}
}

func TestBarrier(t *testing.T) {
	k := New()
	b := NewBarrier(k, 3)
	reached := false
	k.Go("waiter", func(p *Proc) {
		p.WaitBarrier(b)
		reached = true
	})
	for i := 1; i <= 3; i++ {
		i := i
		k.Schedule(time.Duration(i)*time.Millisecond, b.Done)
	}
	k.Run()
	if !reached {
		t.Fatal("barrier never completed")
	}
	if k.Now() != 3*time.Millisecond {
		t.Fatalf("now = %v, want 3ms", k.Now())
	}
	b.Done() // extra Done is a no-op
	if b.Pending() != 0 {
		t.Fatalf("pending = %d", b.Pending())
	}
}

func TestBarrierZero(t *testing.T) {
	k := New()
	b := NewBarrier(k, 0)
	ok := false
	k.Go("w", func(p *Proc) {
		p.WaitBarrier(b)
		ok = true
	})
	k.Run()
	if !ok {
		t.Fatal("zero barrier should be pre-fired")
	}
}

func TestQueueFIFO(t *testing.T) {
	k := New()
	q := NewQueue[int](k)
	var got []int
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, GetQueue(p, q))
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			q.Put(i)
		}
	})
	k.Run()
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v", got)
		}
	}
	if k.Live() != 0 {
		t.Fatalf("live = %d", k.Live())
	}
}

func TestQueuePutBeforeGet(t *testing.T) {
	k := New()
	q := NewQueue[string](k)
	q.Put("a")
	q.Put("b")
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	var got []string
	k.Go("c", func(p *Proc) {
		got = append(got, GetQueue(p, q), GetQueue(p, q))
	})
	k.Run()
	if got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueMultipleBlockedGetters(t *testing.T) {
	k := New()
	q := NewQueue[int](k)
	var got []int
	for i := 0; i < 3; i++ {
		k.Go("g", func(p *Proc) { got = append(got, GetQueue(p, q)) })
	}
	k.Schedule(time.Millisecond, func() { q.Put(1); q.Put(2); q.Put(3) })
	k.Run()
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("getter wake order: %v", got)
		}
	}
}

func TestDeadlockLeavesLiveProcs(t *testing.T) {
	k := New()
	s := NewSignal(k) // never fired
	k.Go("stuck", func(p *Proc) { p.Wait(s) })
	k.Run()
	if k.Live() != 1 {
		t.Fatalf("live = %d, want 1 (deadlocked proc)", k.Live())
	}
	k.Close()
	if k.Live() != 0 {
		t.Fatalf("live = %d after Close", k.Live())
	}
}

func TestNestedSpawn(t *testing.T) {
	k := New()
	total := 0
	k.Go("parent", func(p *Proc) {
		b := NewBarrier(k, 4)
		for i := 1; i <= 4; i++ {
			i := i
			k.Go("child", func(c *Proc) {
				c.Sleep(time.Duration(i) * time.Millisecond)
				total += i
				b.Done()
			})
		}
		p.WaitBarrier(b)
		total *= 10
	})
	k.Run()
	if total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
}
