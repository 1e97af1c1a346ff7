package bigtable

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hyperprof/internal/check"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
)

func newSafetyDB(t *testing.T, seed uint64, mut func(*Config)) (*platform.Env, *DB, *check.History) {
	t.Helper()
	env := platform.NewEnv(seed, 1)
	cfg := smallConfig()
	if mut != nil {
		mut(&cfg)
	}
	db, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := check.NewHistory(env.K)
	db.SetRecorder(h)
	return env, db, h
}

func TestCrashMidFlushPreservesAckedPuts(t *testing.T) {
	// Puts trigger an async flush; the server crashes before the flush is
	// durable. The commit log must still hold the snapshotted records, so
	// the rebuilt memtable serves every acknowledged put.
	env, db, h := newSafetyDB(t, 71, func(c *Config) { c.FlushEvery = 3 })
	vals := map[int][]byte{}
	env.K.Go("client", func(p *sim.Proc) {
		for row := 0; row < 3; row++ {
			v := []byte(fmt.Sprintf("acked-%d", row))
			if err := db.Put(p, nil, 0, row, v); err != nil {
				t.Errorf("put %d: %v", row, err)
				return
			}
			vals[row] = v
		}
		// The flush launched by the third put is still in flight.
		if err := db.FailTabletServer(0); err != nil {
			t.Error(err)
			return
		}
		for row := 0; row < 3; row++ {
			got, err := db.Get(p, nil, 0, row)
			if err != nil {
				t.Errorf("get %d after crash: %v", row, err)
			} else if !bytes.Equal(got, vals[row]) {
				t.Errorf("get %d after crash = %q, want %q", row, got, vals[row])
			}
		}
	})
	env.K.Run()
	if db.ReplayDups != 0 {
		t.Fatalf("ReplayDups = %d, want 0", db.ReplayDups)
	}
	if vs := h.CheckLinearizability(); len(vs) != 0 {
		t.Fatalf("history not linearizable:\n%v", vs)
	}
	if vs := h.Structural(); len(vs) != 0 {
		t.Fatalf("structural violations: %v", vs)
	}
	if br := db.CheckInvariants(); len(br) != 0 {
		t.Fatalf("invariants broken: %v", br)
	}
}

func TestEarlyLogTruncationCaughtByChecker(t *testing.T) {
	// The intentionally broken recovery path: the commit log is truncated at
	// snapshot time, so a crash mid-flush loses the acknowledged puts. The
	// linearizability checker must catch the stale post-crash reads with a
	// minimal violating history.
	env, db, h := newSafetyDB(t, 72, func(c *Config) { c.FlushEvery = 3 })
	db.brokenLogTruncateEarly = true
	env.K.Go("client", func(p *sim.Proc) {
		for row := 0; row < 3; row++ {
			if err := db.Put(p, nil, 0, row, []byte(fmt.Sprintf("lost-%d", row))); err != nil {
				t.Errorf("put %d: %v", row, err)
				return
			}
		}
		if err := db.FailTabletServer(0); err != nil {
			t.Error(err)
			return
		}
		for row := 0; row < 3; row++ {
			db.Get(p, nil, 0, row) // reads the stale bootstrap values
		}
	})
	env.K.Run()
	vs := h.CheckLinearizability()
	if len(vs) == 0 {
		t.Fatal("checker missed the lost mutations")
	}
	for _, v := range vs {
		if len(v.History) == 0 || len(v.History) > 2 {
			t.Fatalf("minimal history for %s has %d ops, want 1-2:\n%s",
				v.Key, len(v.History), check.FormatOps(v.History))
		}
	}
}

func TestDuplicateReplayCaughtByChecker(t *testing.T) {
	// The second broken recovery path: the log is never truncated, so the
	// post-crash replay re-applies records already durable in SSTables. The
	// standing invariant flags the overlap before any crash, and the replay
	// itself records a structural violation.
	env, db, h := newSafetyDB(t, 73, func(c *Config) {
		c.FlushEvery = 2
		c.MajorEvery = 100 // keep majors out of the way
	})
	db.brokenReplayDup = true
	env.K.Go("client", func(p *sim.Proc) {
		for row := 0; row < 2; row++ {
			if err := db.Put(p, nil, 0, row, []byte(fmt.Sprintf("v-%d", row))); err != nil {
				t.Errorf("put %d: %v", row, err)
				return
			}
		}
		p.Sleep(100 * time.Millisecond) // let the flush become durable
		if br := db.CheckInvariants(); len(br) == 0 {
			t.Error("invariant check missed durable records still in the log")
		}
		if err := db.FailTabletServer(0); err != nil {
			t.Error(err)
		}
	})
	env.K.Run()
	if db.ReplayDups != 2 {
		t.Fatalf("ReplayDups = %d, want 2", db.ReplayDups)
	}
	svs := h.Structural()
	if len(svs) != 1 || svs[0].Kind != "duplicate-replay" {
		t.Fatalf("structural = %v, want one duplicate-replay violation", svs)
	}
}

func TestMajorCompactionKeepsConcurrentFlush(t *testing.T) {
	// Regression: an SSTable flushed while a major compaction is merging must
	// survive the compaction. The old code replaced the live SSTable list
	// wholesale with the merged output, dropping the concurrent flush and
	// with it its acknowledged writes.
	env, db, h := newSafetyDB(t, 74, func(c *Config) {
		c.FlushEvery = 1000 // flushes are driven manually below
		c.MajorEvery = 1000
	})
	tab := db.tablets[0]
	v1, v2 := []byte("flushed-before-major"), []byte("flushed-during-major")
	env.K.Go("client", func(p *sim.Proc) {
		if err := db.Put(p, nil, 0, 1, v1); err != nil {
			t.Error(err)
			return
		}
		db.flush(tab)
		if err := db.Put(p, nil, 0, 2, v2); err != nil {
			t.Error(err)
			return
		}
		db.flush(tab)
		// Start the major while both flushes are still in flight: they will
		// complete and prepend their SSTables mid-merge (the major's 18ms
		// recipe far outlasts the 2.5ms minor recipe).
		db.major(tab)
		for row, want := range map[int][]byte{1: v1, 2: v2} {
			got, err := db.Get(p, nil, 0, row) // blocks until the major completes
			if err != nil {
				t.Errorf("get %d: %v", row, err)
			} else if !bytes.Equal(got, want) {
				t.Errorf("get %d = %q, want %q", row, got, want)
			}
		}
	})
	env.K.Run()
	if db.MajorCompactions != 1 || db.MinorCompactions != 2 {
		t.Fatalf("compactions minor=%d major=%d, want 2/1", db.MinorCompactions, db.MajorCompactions)
	}
	// Both flushed SSTables survived alongside the merged one.
	if n := len(db.tablets[0].ssts); n != 3 {
		t.Fatalf("live SSTables = %d, want 3 (two kept flushes + merged)", n)
	}
	if vs := h.CheckLinearizability(); len(vs) != 0 {
		t.Fatalf("history not linearizable:\n%v", vs)
	}
	if br := db.CheckInvariants(); len(br) != 0 {
		t.Fatalf("invariants broken: %v", br)
	}
}

func TestOutOfOrderFlushCompletionAdvancesDurablePrefix(t *testing.T) {
	// Two flushes in flight complete in launch order here, but durableSeq
	// must only ever advance over the *completed prefix*: after both are
	// durable the log is fully truncated and a crash replays nothing.
	env, db, _ := newSafetyDB(t, 75, func(c *Config) {
		c.FlushEvery = 1000
		c.MajorEvery = 1000
	})
	tab := db.tablets[0]
	env.K.Go("client", func(p *sim.Proc) {
		db.Put(p, nil, 0, 1, []byte("a"))
		db.flush(tab)
		db.Put(p, nil, 0, 2, []byte("b"))
		db.flush(tab)
		p.Sleep(100 * time.Millisecond)
		if tab.durableSeq != 2 {
			t.Errorf("durableSeq = %d, want 2", tab.durableSeq)
		}
		if len(tab.log) != 0 || tab.logBytes != 0 {
			t.Errorf("log not truncated: %d recs, %d bytes", len(tab.log), tab.logBytes)
		}
		if len(tab.flushPending) != 0 {
			t.Errorf("flushPending = %v, want empty", tab.flushPending)
		}
	})
	env.K.Run()
	if br := db.CheckInvariants(); len(br) != 0 {
		t.Fatalf("invariants broken: %v", br)
	}
}
