package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestCloseUnwindsParkedProcs parks one process on each blocking primitive
// with nothing left to wake it, drains the run, and checks Close ends every
// one: the body stops at its park, its deferred calls run, and Live reads 0.
func TestCloseUnwindsParkedProcs(t *testing.T) {
	park := map[string]func(k *Kernel, p *Proc){
		"sleep":  func(k *Kernel, p *Proc) { p.Sleep(time.Hour) },
		"signal": func(k *Kernel, p *Proc) { p.Wait(NewSignal(k)) },
		"barrier": func(k *Kernel, p *Proc) {
			p.WaitBarrier(NewBarrier(k, 1))
		},
		"queue": func(k *Kernel, p *Proc) { GetQueue(p, NewQueue[int](k)) },
		"resource": func(k *Kernel, p *Proc) {
			r := NewResource(k, "cpu", 1)
			p.Acquire(r, 1)
			p.Acquire(r, 1) // held by this process itself: never admitted
		},
	}
	for name, block := range park {
		t.Run(name, func(t *testing.T) {
			k := New()
			var deferred, resumed bool
			k.Go(name, func(p *Proc) {
				defer func() { deferred = true }()
				block(k, p)
				resumed = true
			})
			k.RunUntil(time.Minute)
			if k.Live() != 1 {
				t.Fatalf("live = %d before Close, want 1 parked process", k.Live())
			}
			k.Close()
			if k.Live() != 0 || !deferred || resumed {
				t.Fatalf("after Close: live=%d deferred=%v resumed=%v, want 0 true false", k.Live(), deferred, resumed)
			}
		})
	}
}

// TestCloseUnstartedProc checks a process spawned but never stepped exits
// without running its body.
func TestCloseUnstartedProc(t *testing.T) {
	k := New()
	ran := false
	k.Go("never", func(p *Proc) { ran = true })
	k.Close()
	if ran || k.Live() != 0 {
		t.Fatalf("ran=%v live=%d, want false 0", ran, k.Live())
	}
	if end := k.Run(); end != 0 {
		t.Fatalf("Run after Close reached %v: the unstarted process's wake should be dropped", end)
	}
}

// TestCloseDeferredParkAndSpawn checks unwinding reaches processes that a
// deferred call parks again or spawns: Close returns only when none is left.
func TestCloseDeferredParkAndSpawn(t *testing.T) {
	k := New()
	s := NewSignal(k)
	var reparked, child bool
	k.Go("outer", func(p *Proc) {
		defer func() {
			k.Go("spawned-while-unwinding", func(c *Proc) { child = true })
			p.Wait(s) // parks again during the unwind: exits again
			reparked = true
		}()
		p.Wait(s)
	})
	k.Run()
	k.Close()
	if k.Live() != 0 || reparked || child {
		t.Fatalf("live=%d reparked=%v child ran=%v, want 0 false false", k.Live(), reparked, child)
	}
}

// TestCloseIgnoresRecover checks a body that recovers cannot keep its
// process alive: runtime.Goexit is not a panic, so the loop never runs again.
func TestCloseIgnoresRecover(t *testing.T) {
	k := New()
	s := NewSignal(k)
	laps := 0
	k.Go("recoverer", func(p *Proc) {
		for {
			func() {
				defer func() { _ = recover() }()
				p.Wait(s)
			}()
			laps++
		}
	})
	k.Run()
	k.Close()
	if k.Live() != 0 || laps != 0 {
		t.Fatalf("live=%d laps=%d, want 0 0", k.Live(), laps)
	}
}

// TestCloseTwiceAndGoroutines checks a second Close is a no-op and that
// Close returns the process's goroutine count to its baseline.
func TestCloseTwiceAndGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	q := NewQueue[int](k)
	for i := 0; i < 100; i++ {
		k.Go("server", func(p *Proc) {
			for {
				GetQueue(p, q)
			}
		})
	}
	k.Run()
	if k.Live() != 100 {
		t.Fatalf("live = %d, want 100 parked servers", k.Live())
	}
	k.Close()
	k.Close()
	if k.Live() != 0 {
		t.Fatalf("live = %d after Close", k.Live())
	}
	// An exited process goroutine may still be finishing its return when
	// Close gets control back; give the scheduler a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, baseline %d", n, base)
	}
}

// TestSpawnAllocs pins the cost of starting a process and running it to
// exit at zero. The Proc, its resume channel and its goroutine's pre-bound
// start function come from the kernel's free list, and the live-process list
// is intrusive so it adds none. The Gosched lets the exited goroutine finish
// before the next spawn, so the runtime reuses its g and sudog instead of
// allocating fresh ones, and the count is exact.
func TestSpawnAllocs(t *testing.T) {
	k := New()
	fn := func(p *Proc) {}
	avg := testing.AllocsPerRun(200, func() {
		k.Go("p", fn)
		k.Run()
		runtime.Gosched()
	})
	if avg != 0 {
		t.Fatalf("Go + run to exit allocated %.0f objects, want 0", avg)
	}
}

// TestReusedProcStartsClean checks a Proc taken from the free list carries
// nothing of its previous life: the new name, no queue item, no body, and a
// Live count that counts it once.
func TestReusedProcStartsClean(t *testing.T) {
	k := New()
	q := NewQueue[*int](k)
	var first *Proc
	k.Go("first", func(p *Proc) {
		first = p
		GetQueue(p, q)
	})
	k.Run()
	q.Put(new(int))
	k.Run()
	if k.Live() != 0 || k.free != first || first.fn != nil {
		t.Fatalf("after exit: live=%d, on free list=%v, body kept=%v; want 0 true false",
			k.Live(), k.free == first, first.fn != nil)
	}
	var second *Proc
	var name string
	var got any
	live := -1
	k.Go("second", func(p *Proc) {
		second, name, got, live = p, p.Name(), p.got, k.Live()
	})
	k.Run()
	if second != first {
		t.Fatal("second spawn did not reuse the finished Proc")
	}
	if name != "second" || got != nil || live != 1 || k.Live() != 0 {
		t.Fatalf("reused proc: name=%q got=%v live=%d after=%d, want second <nil> 1 0", name, got, live, k.Live())
	}
}

// TestCloseUnwindsRecycledSpawn checks a process that a deferred call spawns
// from the free list during Close is unwound like a fresh one, and that the
// unwound process itself is not recycled: the primitive it parked on still
// holds it.
func TestCloseUnwindsRecycledSpawn(t *testing.T) {
	k := New()
	s := NewSignal(k)
	var outer, child *Proc
	ran := false
	k.Go("outer", func(p *Proc) {
		outer = p
		defer func() {
			child = k.Go("child", func(c *Proc) { ran = true })
		}()
		p.Wait(s)
	})
	k.Go("done", func(p *Proc) {})
	k.Run()
	spare := k.free
	if spare == nil {
		t.Fatal("the finished process is not on the free list")
	}
	k.Close()
	if child != spare || ran || k.Live() != 0 {
		t.Fatalf("child reused the free Proc=%v, ran=%v, live=%d; want true false 0", child == spare, ran, k.Live())
	}
	for f := k.free; f != nil; f = f.next {
		if f == outer {
			t.Fatal("a process Close unwound went back on the free list")
		}
	}
}
