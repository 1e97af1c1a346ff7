package bigquery

import (
	"reflect"
	"testing"
	"time"

	"hyperprof/internal/netsim"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
)

// TestQuerySurvivesShuffleServerCrashBeforeQuery: with a shuffle server down
// before the query starts, stage-1 puts fail over to surviving servers and
// the result is still exact.
func TestQuerySurvivesShuffleServerCrashBeforeQuery(t *testing.T) {
	env, e := newEngine(t, 60)
	var res *Result
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		if err = e.FailShuffleServer(0); err != nil {
			return
		}
		if !e.ShuffleServerDown(0) {
			t.Error("ShuffleServerDown false after failure")
		}
		res, err = e.Run(p, nil, Query{Kind: ScanAgg, Threshold: 500})
		e.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Groups, e.Reference(500)) {
		t.Fatal("result differs from reference under shuffle failover")
	}
	if e.RePuts == 0 {
		t.Fatalf("RePuts = 0, want puts redirected off the dead server")
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}

// TestQuerySurvivesShuffleServerCrashMidQuery: the crash lands between the
// puts and the gets, losing slots that were already stored. Stage 2 must
// speculatively re-execute those shards and still produce the exact result.
func TestQuerySurvivesShuffleServerCrashMidQuery(t *testing.T) {
	env, e := newEngine(t, 61)
	var res *Result
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		// Crash server 0 late in stage 1 (puts land between ~75ms and
		// ~175ms at this config): slots already stored on it are lost
		// before stage 2 fetches them.
		env.K.Schedule(150*time.Millisecond, func() { _ = e.FailShuffleServer(0) })
		res, err = e.Run(p, nil, Query{Kind: ScanAgg, Threshold: 500})
		e.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Groups, e.Reference(500)) {
		t.Fatal("result differs from reference after mid-query crash")
	}
	if e.Speculative == 0 {
		t.Fatal("Speculative = 0, want lost shards re-executed")
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}

// TestShuffleServerRecoveryServesAgain: after a crash and recovery, the
// fresh server takes puts again and queries stop paying failover costs.
func TestShuffleServerRecoveryServesAgain(t *testing.T) {
	env, e := newEngine(t, 62)
	var res *Result
	var err error
	env.K.Go("client", func(p *sim.Proc) {
		if err = e.FailShuffleServer(1); err != nil {
			return
		}
		if err = e.RecoverShuffleServer(1); err != nil {
			return
		}
		if e.ShuffleServerDown(1) {
			t.Error("server still down after recovery")
		}
		res, err = e.Run(p, nil, Query{Kind: ScanAgg, Threshold: 200})
		e.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Groups, e.Reference(200)) {
		t.Fatal("result differs from reference after recovery")
	}
	if e.RePuts != 0 || e.Speculative != 0 {
		t.Fatalf("RePuts=%d Speculative=%d, want 0/0 with the full tier back", e.RePuts, e.Speculative)
	}
}

// TestStragglerShuffleServerWithDeadlinePolicy: a straggling shuffle server
// under a deadline policy triggers speculative re-execution of the affected
// stage-2 shards instead of dragging the whole query's tail.
func TestStragglerShuffleServerWithDeadlinePolicy(t *testing.T) {
	env := platform.NewEnv(63, 1)
	cfg := smallConfig()
	cfg.RPC = netsim.Policy{Deadline: 50 * time.Millisecond, MaxAttempts: 2, BackoffBase: time.Millisecond}
	e, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	env.K.Go("client", func(p *sim.Proc) {
		// Turn server 0 into a 1000x straggler after its stage-1 slots have
		// landed: every stage-2 get it serves blows the 50ms deadline, so
		// those shards are recomputed instead of dragging the tail.
		env.K.Schedule(150*time.Millisecond, func() { _ = e.SetShuffleSlowdown(0, 1000) })
		res, err = e.Run(p, nil, Query{Kind: ScanAgg, Threshold: 500})
		e.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Groups, e.Reference(500)) {
		t.Fatal("result differs from reference under straggler")
	}
	if e.Speculative == 0 {
		t.Fatal("Speculative = 0, want deadline-exceeded shards re-executed")
	}
	if e.RPCClient().Deadlines == 0 {
		t.Fatal("client recorded no deadline hits")
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}

// TestTimedOutPutLeavesNoOrphanSlot: a put that blows its deadline on a
// straggler still runs there after the caller has failed over to the next
// server. The failed put's slot is released and its key tombstoned, so once
// the query is done no shuffle server still holds a slot. With a breaker the
// retry is fast-failed without touching the network: the call's last error
// says nothing ran, but the first attempt's slot must be released all the
// same.
func TestTimedOutPutLeavesNoOrphanSlot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy netsim.Policy
	}{
		{"single attempt", netsim.Policy{Deadline: 5 * time.Millisecond, MaxAttempts: 1}},
		{"breaker fast-fails the retry", netsim.Policy{Deadline: 5 * time.Millisecond, MaxAttempts: 2,
			BreakerFailures: 1, BreakerCooldown: time.Minute}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := platform.NewEnv(64, 1)
			cfg := smallConfig()
			cfg.RPC = tc.policy
			e, err := New(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var res *Result
			env.K.Go("client", func(p *sim.Proc) {
				_ = e.SetShuffleSlowdown(0, 1000)
				res, err = e.Run(p, nil, Query{Kind: ScanAgg, Threshold: 500})
				// Let the late puts and the releases drain before looking.
				p.Sleep(10 * time.Second)
				for i, ss := range e.shuffle {
					if len(ss.slots) != 0 {
						t.Errorf("shuffle server %d holds %d slots after the query", i, len(ss.slots))
					}
				}
				e.Stop()
			})
			env.K.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Groups, e.Reference(500)) {
				t.Fatal("result differs from reference")
			}
			if e.RePuts == 0 {
				t.Fatal("RePuts = 0, want puts redirected off the straggler")
			}
			if c := e.RPCClient(); c.Deadlines == 0 || (tc.policy.BreakerFailures > 0 && c.BreakerFastFails == 0) {
				t.Fatalf("deadlines=%d breaker fast-fails=%d, want a timed-out attempt (then a fast-failed retry)",
					c.Deadlines, c.BreakerFastFails)
			}
			if env.K.Live() != 0 {
				t.Fatalf("leaked procs: %d", env.K.Live())
			}
		})
	}
}

// TestReleaseOutlastsLongPartition: a partition cuts shuffle server 0 off
// while it is still storing slots, so those puts fail over with their
// responses lost and their slots stored. The partition lasts 20 s; the
// releases must keep retrying until it heals and then drop the orphans.
func TestReleaseOutlastsLongPartition(t *testing.T) {
	env := platform.NewEnv(67, 1)
	e, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := e.ShuffleNodeName(0)
	cut := func(block bool) {
		for w := range e.workers {
			wn, _ := e.WorkerNodeName(w)
			for _, l := range [][2]string{{wn, srv}, {srv, wn}} {
				if block {
					env.Net.BlockLink(l[0], l[1])
				} else {
					env.Net.HealLink(l[0], l[1])
				}
			}
		}
	}
	var res *Result
	env.K.Go("client", func(p *sim.Proc) {
		// The straggler keeps its puts in service when the cut lands.
		_ = e.SetShuffleSlowdown(0, 1000)
		env.K.Schedule(100*time.Millisecond, func() { cut(true) })
		env.K.Schedule(20*time.Second, func() { cut(false) })
		res, err = e.Run(p, nil, Query{Kind: ScanAgg, Threshold: 500})
		p.Sleep(30 * time.Second)
		for i, ss := range e.shuffle {
			if len(ss.slots) != 0 {
				t.Errorf("shuffle server %d holds %d slots after the partition healed", i, len(ss.slots))
			}
		}
		e.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Groups, e.Reference(500)) {
		t.Fatal("result differs from reference")
	}
	if e.RePuts == 0 {
		t.Fatal("RePuts = 0, want puts redirected off the cut server")
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}

// TestReleasedSlotCannotLandLate: a wide join put still crossing the network
// when its deadline fires arrives after the drop that releases it. The
// server's tombstone must keep the late put from storing the slot.
func TestReleasedSlotCannotLandLate(t *testing.T) {
	env := platform.NewEnv(65, 1)
	cfg := smallConfig()
	cfg.RPC = netsim.Policy{Deadline: 2 * time.Millisecond, MaxAttempts: 1}
	e, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.K.Go("client", func(p *sim.Proc) {
		_, err = e.Run(p, nil, Query{Kind: JoinQuery, Threshold: 500})
		p.Sleep(10 * time.Second)
		for i, ss := range e.shuffle {
			if len(ss.slots) != 0 {
				t.Errorf("shuffle server %d holds %d slots after the query", i, len(ss.slots))
			}
		}
		e.Stop()
	})
	env.K.Run()
	if err == nil {
		t.Fatal("want every put to time out in transit")
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}
