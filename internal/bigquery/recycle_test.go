package bigquery

import (
	"reflect"
	"testing"
	"time"

	"hyperprof/internal/check"
	"hyperprof/internal/columnar"
	"hyperprof/internal/netsim"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
)

// recycleRun is one run of churnQueries: the engine after it and what its
// recorder found.
type recycleRun struct {
	e                    *Engine
	exact, once, invalid int
	// released counts the slot keys the shuffle tier tombstoned: puts that
	// failed over and had their stale slots dropped.
	released int
}

// churnQueries runs three clients of mixed queries while shuffle server 0
// crashes mid-round and recovers, and server 1 straggles under a deadline
// policy. Puts fail over off both and their stale slots are released, lost
// and timed-out slots are re-executed speculatively, and partials recycled
// through the free list flow into later rounds all along. Every result is
// compared with the exact reference.
func churnQueries(t *testing.T, seed uint64, brokenDoubleMerge bool) recycleRun {
	t.Helper()
	env := platform.NewEnv(seed, 1)
	cfg := smallConfig()
	cfg.RPC = netsim.Policy{Deadline: 50 * time.Millisecond, MaxAttempts: 2, BackoffBase: time.Millisecond}
	e, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.brokenDoubleMerge = brokenDoubleMerge
	h := check.NewHistory(env.K)
	e.SetRecorder(h)
	jitter := time.Duration(seed%7) * 10 * time.Millisecond
	env.K.Schedule(150*time.Millisecond+jitter, func() { _ = e.FailShuffleServer(0) })
	env.K.Schedule(600*time.Millisecond+jitter, func() { _ = e.RecoverShuffleServer(0) })
	env.K.Schedule(200*time.Millisecond+jitter, func() { _ = e.SetShuffleSlowdown(1, 1000) })
	env.K.Schedule(900*time.Millisecond+jitter, func() { _ = e.SetShuffleSlowdown(1, 1) })
	done := 0
	for c := 0; c < 3; c++ {
		env.K.Go("client", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				q := Query{Kind: []Kind{ScanAgg, JoinQuery, PageRank}[(c+i)%3], Threshold: int64(100 * (c + i)), Iterations: 2}
				res, err := e.Run(p, nil, q)
				if err != nil {
					t.Error(err)
					return
				}
				var want map[int64]int64
				switch q.Kind {
				case ScanAgg:
					want = e.Reference(q.Threshold)
				case JoinQuery:
					want = e.ReferenceOver(q.Threshold, e.scanPartitions(q))
				case PageRank:
					want = e.ReferencePageRank(q.Iterations)
				}
				if !brokenDoubleMerge && !reflect.DeepEqual(res.Groups, want) {
					t.Errorf("seed %d client %d query %d (%s): result differs from the reference", seed, c, i, q.Kind)
				}
			}
			if done++; done == 3 {
				// Let late puts and releases drain before stopping.
				p.Sleep(10 * time.Second)
				e.Stop()
			}
		})
	}
	env.K.Run()
	run := recycleRun{e: e}
	for _, v := range h.Structural() {
		switch v.Kind {
		case "exact-result":
			run.exact++
		case "exactly-once":
			run.once++
		default:
			run.invalid++
		}
	}
	for _, ss := range e.shuffle {
		run.released += len(ss.dropped)
	}
	if br := e.CheckInvariants(); len(br) != 0 {
		t.Fatalf("seed %d: invariants broken: %v", seed, br)
	}
	if env.K.Live() != 0 {
		t.Fatalf("seed %d: leaked procs: %d", seed, env.K.Live())
	}
	return run
}

// TestRecycledPartialsExactUnderFailover: partials return to the free list
// after their merge while copies of their shard may linger in a failed-over
// server's slot map, in a settled dedup record, or in a get still draining
// after its deadline. A partial recycled too early would corrupt a later
// shard and the exact-result and exactly-once checks would convict it; over
// several seeds they find nothing, while the run exercises put failover,
// released stale slots and speculative re-execution.
func TestRecycledPartialsExactUnderFailover(t *testing.T) {
	var rePuts, speculative, released int
	for seed := uint64(90); seed < 95; seed++ {
		run := churnQueries(t, seed, false)
		if run.exact+run.once+run.invalid != 0 {
			t.Fatalf("seed %d: exact-result %d, exactly-once %d, other %d violations", seed, run.exact, run.once, run.invalid)
		}
		if len(run.e.freeGroups) == 0 {
			t.Fatalf("seed %d: the free list is empty after the run: nothing was recycled", seed)
		}
		rePuts += run.e.RePuts
		speculative += run.e.Speculative
		released += run.released
	}
	t.Logf("RePuts=%d Speculative=%d released=%d", rePuts, speculative, released)
	if rePuts == 0 || speculative == 0 || released == 0 {
		t.Fatalf("RePuts=%d Speculative=%d released slots=%d: the seeds no longer exercise failover, re-execution and release",
			rePuts, speculative, released)
	}
}

// TestDoubleMergeConvictedWithRecycling: with the speculative path's double
// merge reintroduced, the checkers still convict it when the twice-merged
// partial goes back to the free list once.
func TestDoubleMergeConvictedWithRecycling(t *testing.T) {
	for seed := uint64(90); seed < 93; seed++ {
		run := churnQueries(t, seed, true)
		if run.e.Speculative == 0 {
			t.Fatalf("seed %d: Speculative = 0, the broken path was never taken", seed)
		}
		if run.once != run.e.Speculative || run.exact == 0 {
			t.Fatalf("seed %d: exactly-once %d (want %d, one per speculative shard), exact-result %d (want > 0)",
				seed, run.once, run.e.Speculative, run.exact)
		}
	}
}

// TestDoublePutConvictedByExactResult: a Groups returned to the free list
// twice is handed out twice, so two live partials share one aggregate. The
// exact-result check must see it. It can be trusted to only because its
// reference is allocated fresh and never comes from the list it guards: a
// reference popped from the list could be the very accumulator it checks.
func TestDoublePutConvictedByExactResult(t *testing.T) {
	for seed := uint64(90); seed < 93; seed++ {
		env := platform.NewEnv(seed, 1)
		e, err := New(env, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		h := check.NewHistory(env.K)
		e.SetRecorder(h)
		g := columnar.NewGroups(e.cfg.Groups)
		e.putGroups(g)
		e.putGroups(g)
		if e.referenceOver(500, len(e.fact)) == g || e.referenceRankStep(columnar.NewGroups(e.cfg.Groups)) == g ||
			len(e.freeGroups) != 2 {
			t.Fatal("a reference aggregate came from the free list")
		}
		env.K.Go("client", func(p *sim.Proc) {
			if _, err := e.Run(p, nil, Query{Kind: ScanAgg, Threshold: 500}); err != nil {
				t.Error(err)
			}
			e.Stop()
		})
		env.K.Run()
		exact := 0
		for _, v := range h.Structural() {
			if v.Kind == "exact-result" {
				exact++
			}
		}
		if exact == 0 {
			t.Fatalf("seed %d: a Groups put twice went unconvicted by exact-result", seed)
		}
	}
}

// TestScanAggAllocsBounded pins the query path's allocations on a warmed
// small engine: one ScanAgg query over 8 shards costs 32 objects. The bound
// leaves 4 for the query's fixed cost to move, so one more object per shard
// fails here.
func TestScanAggAllocsBounded(t *testing.T) {
	env := platform.NewEnv(1, 1)
	e, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var qerr error
	query := func(p *sim.Proc) { _, qerr = e.Run(p, nil, Query{Kind: ScanAgg, Threshold: 500}) }
	run := func() {
		env.K.Go("client", query)
		env.K.Run()
	}
	// Warm up the free list, the process pool and the caches.
	for i := 0; i < 3; i++ {
		run()
	}
	a := testing.AllocsPerRun(20, run)
	if qerr != nil {
		t.Fatal(qerr)
	}
	const bound = 36
	if a > bound {
		t.Fatalf("one ScanAgg query allocates %v objects, want at most %d", a, bound)
	}
}
