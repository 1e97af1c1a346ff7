package spanner

import (
	"bytes"
	"testing"
	"time"

	"hyperprof/internal/sim"
)

func TestLeaderFailoverPreservesCommittedData(t *testing.T) {
	env := testEnv(30)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("committed before failover")
	var got []byte
	var newLeader int
	env.K.Go("client", func(p *sim.Proc) {
		if err = db.Commit(p, nil, 0, 7, want); err != nil {
			return
		}
		// Commit waited for a majority; give the straggling replication
		// proc a beat so every replica holds the entry.
		p.Sleep(50 * time.Millisecond)
		newLeader, err = db.FailLeader(0)
		if err != nil {
			return
		}
		got, err = db.Read(p, nil, 0, 7, false)
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if newLeader == 0 {
		t.Fatalf("new leader region = %d, want != 0", newLeader)
	}
	if lr, _ := db.Leader(0); lr != newLeader {
		t.Fatalf("Leader() = %d, want %d", lr, newLeader)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read after failover = %q", got)
	}
	if db.Elections != 1 {
		t.Fatalf("elections = %d", db.Elections)
	}
}

func TestCommitsContinueAfterFailover(t *testing.T) {
	env := testEnv(31)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	env.K.Go("client", func(p *sim.Proc) {
		if _, err = db.FailLeader(1); err != nil {
			return
		}
		if err = db.Commit(p, nil, 1, 3, []byte("post-failover write")); err != nil {
			return
		}
		got, err = db.Read(p, nil, 1, 3, false)
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "post-failover write" {
		t.Fatalf("got %q", got)
	}
}

func TestElectionTieBreaksToLowestRegion(t *testing.T) {
	env := testEnv(32)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var newLeader int
	env.K.Go("client", func(p *sim.Proc) {
		// Both followers have identical (empty) logs: tie -> region 1.
		newLeader, err = db.FailLeader(2)
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if newLeader != 1 {
		t.Fatalf("new leader = %d, want 1", newLeader)
	}
}

func TestFailoverWithNoLiveReplicas(t *testing.T) {
	env := testEnv(33)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var failErr error
	env.K.Go("client", func(p *sim.Proc) {
		db.StopReplica(0, 1)
		db.StopReplica(0, 2)
		_, failErr = db.FailLeader(0)
		db.Stop()
	})
	env.K.Run()
	if failErr == nil {
		t.Fatal("election with no live replicas succeeded")
	}
}

func TestFollowerCatchUpAfterRestart(t *testing.T) {
	env := testEnv(34)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	const downCommits = 5
	env.K.Go("client", func(p *sim.Proc) {
		// Take region 2 down and commit while it is missing entries.
		if err = db.StopReplica(0, 2); err != nil {
			return
		}
		for i := 0; i < downCommits; i++ {
			if err = db.Commit(p, nil, 0, i, []byte("while-down")); err != nil {
				return
			}
		}
		// Bring it back; the next commit triggers the gap -> catch-up path.
		if err = db.RestartReplica(0, 2); err != nil {
			return
		}
		if err = db.Commit(p, nil, 0, 90, []byte("after-restart")); err != nil {
			return
		}
		// The commit returns at majority; let the catch-up RPC to the
		// restarted follower complete before shutting servers down.
		p.Sleep(100 * time.Millisecond)
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	leaderLen, lagLen := len(db.groups[0].replicas[0].log), len(db.groups[0].replicas[2].log)
	if leaderLen != downCommits+1 {
		t.Fatalf("leader log = %d", leaderLen)
	}
	if lagLen != leaderLen {
		t.Fatalf("restarted follower log = %d, want %d (catch-up)", lagLen, leaderLen)
	}
}

func TestRestartValidation(t *testing.T) {
	env := testEnv(35)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RestartReplica(0, 1); err == nil {
		t.Error("restart of running replica accepted")
	}
	if err := db.RestartReplica(99, 0); err == nil {
		t.Error("bad group accepted")
	}
	if _, err := db.Leader(99); err == nil {
		t.Error("bad group accepted by Leader")
	}
	db.Stop()
	env.K.Run()
}

func TestLogsConvergeAcrossReplicas(t *testing.T) {
	env := testEnv(36)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	env.K.Go("client", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err = db.Commit(p, nil, 0, i%5, []byte("converge")); err != nil {
				return
			}
		}
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	// All replication procs ran to completion: every replica has all 10
	// entries even though commits only waited for a majority.
	for r := 0; r < 3; r++ {
		if n := len(db.groups[0].replicas[r].log); n != 10 {
			t.Fatalf("region %d log = %d, want 10", r, n)
		}
	}
}

// TestDelayedAppendDeliversItsOwnEntry pins why an append round copies the
// entry it ships instead of slicing the leader's log: a deposed leader's log
// is truncated and re-appended in place, and an append still in flight must
// deliver the entry it was sent, not whatever now sits at its index. The
// leader's log is rewritten directly here, with the term unchanged, so the
// follower's stale-term check lets the delayed append through to its
// entries.
func TestDelayedAppendDeliversItsOwnEntry(t *testing.T) {
	env := testEnv(37)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	grp := db.groups[0]
	leader, slow := grp.replicas[0], grp.replicas[2]
	if !env.Net.SetLinkFault(leader.machine.Node.Name, slow.machine.Node.Name, 50*time.Millisecond, 0) {
		t.Fatal("unknown link")
	}
	var index int
	env.K.Go("client", func(p *sim.Proc) {
		// The round decides on region 1's ack; region 2's append is still
		// crossing its slow link.
		if err = db.Commit(p, nil, 0, 3, []byte("original")); err != nil {
			return
		}
		index = len(leader.log) - 1
		e := leader.log[index]
		leader.log = append(leader.log[:index], logEntry{key: e.key, value: []byte("replacement"), term: e.term, ts: e.ts})
		p.Sleep(200 * time.Millisecond)
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(slow.log) != index+1 {
		t.Fatalf("delayed follower log = %d entries, want %d", len(slow.log), index+1)
	}
	if got := string(slow.log[index].value); got != "original" {
		t.Fatalf("delayed append delivered %q, want the entry it was sent (%q)", got, "original")
	}
}

// TestFiveReplicaCommitCatchesUp runs a 5-replica group, whose followers
// outnumber an append round's inline message slots, through the catch-up
// path: two followers, one in a slot and one past them, miss commits while
// stopped and are brought level by the next round after their restart.
func TestFiveReplicaCommitCatchesUp(t *testing.T) {
	env := testEnv(38)
	cfg := smallConfig()
	cfg.Regions = 5
	db, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const downCommits = 4
	env.K.Go("client", func(p *sim.Proc) {
		for _, r := range []int{1, 4} {
			if err = db.StopReplica(0, r); err != nil {
				return
			}
		}
		for i := 0; i < downCommits; i++ {
			if err = db.Commit(p, nil, 0, i, []byte("while-down")); err != nil {
				return
			}
		}
		for _, r := range []int{1, 4} {
			if err = db.RestartReplica(0, r); err != nil {
				return
			}
		}
		if err = db.Commit(p, nil, 0, 90, []byte("after-restart")); err != nil {
			return
		}
		// The commit returns at majority; let the catch-up appends finish.
		p.Sleep(100 * time.Millisecond)
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	leader := db.groups[0].replicas[0]
	if len(leader.log) != downCommits+1 {
		t.Fatalf("leader log = %d entries, want %d", len(leader.log), downCommits+1)
	}
	for r, rep := range db.groups[0].replicas {
		if len(rep.log) != len(leader.log) {
			t.Fatalf("region %d log = %d entries, want %d", r, len(rep.log), len(leader.log))
		}
		for i, e := range rep.log {
			if l := leader.log[i]; e.key != l.key || e.term != l.term || !bytes.Equal(e.value, l.value) {
				t.Fatalf("region %d entry %d = %+v, leader holds %+v", r, i, e, l)
			}
		}
	}
}

// TestCommitAllocs pins the allocations of a steady-state, fault-free commit
// on a 3-replica group, replication round included: the value's copy in the
// leader's log, the round record and the method value its two followers
// share. The followers' first appends ride in the round's slots, their
// replies are shared values, and their processes come from the kernel's free
// list. Log growth is amortized across the runs.
func TestCommitAllocs(t *testing.T) {
	env := testEnv(39)
	cfg := smallConfig()
	cfg.CompactionEvery = 0
	db, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	value := []byte("steady-state")
	commit := func(p *sim.Proc) {
		if err := db.Commit(p, nil, 0, 5, value); err != nil {
			t.Error(err)
		}
	}
	run := func() {
		env.K.Go("client", commit)
		env.K.Run()
	}
	for range 100 {
		run() // warm the free lists
	}
	if got := testing.AllocsPerRun(200, run); got != 3 {
		t.Fatalf("steady-state commit allocates %v objects, want 3", got)
	}
}
