package sim

import "testing"

// Tests for the wholesale-failure helper (Queue.Drain) that the RPC
// resilience layer builds on.

func TestQueueDrain(t *testing.T) {
	k := New()
	q := NewQueue[int](k)
	q.Put(1)
	q.Put(2)
	q.Put(3)
	got := q.Drain()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Drain = %v", got)
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
	if q.Drain() != nil {
		t.Fatal("second drain should be empty")
	}
}

func TestQueueDrainLeavesBlockedGetters(t *testing.T) {
	k := New()
	q := NewQueue[int](k)
	var got int
	k.Go("getter", func(p *Proc) { got = GetQueue(p, q) })
	k.Run() // getter parks
	if items := q.Drain(); items != nil {
		t.Fatalf("drain of empty queue = %v", items)
	}
	q.Put(42) // blocked getter still serviceable after a drain
	k.Run()
	if got != 42 {
		t.Fatalf("got = %d, want 42", got)
	}
}
