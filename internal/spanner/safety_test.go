package spanner

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"hyperprof/internal/check"
	"hyperprof/internal/netsim"
	"hyperprof/internal/sim"
)

// divergedGroup drives group 0 into the classic unsafe-election setup:
//
//  1. both followers down, leader r0 appends X but cannot commit it
//     (indeterminate outcome; X stays as r0's uncommitted suffix);
//  2. r0 crashes, the followers come back, r1 is elected and commits Y at
//     the same index (acked by r2 — a real committed write);
//  3. r0 restarts with its stale log, r1 stops.
//
// The next election chooses between r0 (log [X], old term) and r2 (log [Y],
// newer term). Term-blind longest-log election ties toward r0 and loses the
// committed Y.
func divergedGroup(t *testing.T, db *DB, k *sim.Kernel, h *check.History) (yVal []byte) {
	t.Helper()
	yVal = []byte("committed-Y")
	var failed error
	k.Go("safety-client", func(p *sim.Proc) {
		fail := func(err error) {
			if failed == nil {
				failed = err
			}
		}
		if err := db.StopReplica(0, 1); err != nil {
			fail(err)
			return
		}
		if err := db.StopReplica(0, 2); err != nil {
			fail(err)
			return
		}
		if err := db.Commit(p, nil, 0, 7, []byte("uncommitted-X")); err == nil {
			fail(errors.New("commit with both followers down unexpectedly succeeded"))
			return
		}
		if err := db.CrashReplica(0, 0); err != nil {
			fail(err)
			return
		}
		if err := db.RestartReplica(0, 1); err != nil {
			fail(err)
			return
		}
		if err := db.RestartReplica(0, 2); err != nil {
			fail(err)
			return
		}
		// ensureLeader elects among {r1, r2}; the tie breaks to r1.
		if err := db.Commit(p, nil, 0, 7, yVal); err != nil {
			fail(err)
			return
		}
		p.Sleep(10 * time.Millisecond) // let straggling replication drain
		if err := db.RestartReplica(0, 0); err != nil {
			fail(err)
			return
		}
		if err := db.StopReplica(0, 1); err != nil {
			fail(err)
			return
		}
	})
	k.Run()
	if failed != nil {
		t.Fatal(failed)
	}
	return yVal
}

func TestElectionPrefersHigherTermOverLongerLog(t *testing.T) {
	// Regression for the unsafe term-blind election: after divergedGroup the
	// election must pick r2 (committed Y, newer term) over the stale r0, and
	// the read must return the committed value.
	env := testEnv(61)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := check.NewHistory(env.K)
	db.SetRecorder(h)
	want := divergedGroup(t, db, env.K, h)

	var got []byte
	env.K.Go("reader", func(p *sim.Proc) {
		got, err = db.Read(p, nil, 0, 7, false)
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if leader, _ := db.Leader(0); leader != 2 {
		t.Fatalf("leader region = %d, want 2 (the replica holding the committed write)", leader)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read after elections = %q, want the committed %q", got, want)
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

func TestBrokenElectionCaughtByChecker(t *testing.T) {
	// The intentionally broken recovery path: elections pick the first live
	// replica, term- and majority-blind. The checker must catch the lost
	// committed write with a minimal violating history, and the standing
	// invariants must flag the stale leader.
	env := testEnv(62)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	db.brokenElectAnyReplica = true
	h := check.NewHistory(env.K)
	db.SetRecorder(h)
	divergedGroup(t, db, env.K, h)

	env.K.Go("reader", func(p *sim.Proc) {
		// The broken election installs stale r0; this read misses Y.
		db.Read(p, nil, 0, 7, false)
		db.Stop()
	})
	env.K.Run()
	if leader, _ := db.Leader(0); leader != 0 {
		t.Fatalf("leader region = %d, want the stale 0 under the broken election", leader)
	}
	vs := h.CheckLinearizability()
	if len(vs) != 1 {
		t.Fatalf("linearizability violations = %d, want 1:\n%v", len(vs), vs)
	}
	v := vs[0]
	if v.Key != rowKey(0, 7) {
		t.Fatalf("violation key = %q", v.Key)
	}
	if len(v.History) == 0 || len(v.History) > 3 {
		t.Fatalf("minimal history has %d ops, want a small core:\n%s", len(v.History), check.FormatOps(v.History))
	}
	if br := db.CheckInvariants(); len(br) == 0 {
		t.Fatal("CheckInvariants found nothing: stale leader must break committed-prefix durability")
	}
}

func TestCommitOutcomesRecorded(t *testing.T) {
	env := testEnv(63)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := check.NewHistory(env.K)
	db.SetRecorder(h)
	env.K.Go("client", func(p *sim.Proc) {
		db.Commit(p, nil, 1, 1, []byte("ok-write"))
		db.StopReplica(1, 1)
		db.StopReplica(1, 2)
		db.Commit(p, nil, 1, 2, []byte("stuck-write")) // errors post-append
		db.Commit(p, nil, 1, 999999, nil)              // rejected pre-append
		db.Stop()
	})
	env.K.Run()
	var outcomes []check.Outcome
	for _, op := range h.Ops() {
		if op.Kind == "write" {
			outcomes = append(outcomes, op.Outcome)
		}
	}
	want := []check.Outcome{check.OutcomeOK, check.OutcomeIndeterminate}
	if len(outcomes) != len(want) {
		t.Fatalf("recorded %d writes (%v), want %d — out-of-range ops are not recorded", len(outcomes), outcomes, len(want))
	}
	for i, o := range outcomes {
		if o != want[i] {
			t.Fatalf("write %d outcome = %v, want %v", i, o, want[i])
		}
	}
}

func TestFollowerAppliesOnlyCommittedPrefix(t *testing.T) {
	// Regression for the dirty-read bug: followers used to apply entries to
	// their readable row state at *append* time, before the entry was known
	// committed — an aborted entry could be read through a later leader and
	// then vanish. Now application strictly trails the commit index, and an
	// election catches the winner's row state up to it.
	env := testEnv(65)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := check.NewHistory(env.K)
	db.SetRecorder(h)
	w1, w2 := []byte("first-commit"), []byte("second-commit")
	var got []byte
	env.K.Go("client", func(p *sim.Proc) {
		if err := db.Commit(p, nil, 0, 1, w1); err != nil {
			t.Error(err)
			return
		}
		grp := db.groups[0]
		for _, rep := range grp.replicas {
			if rep == grp.leaderRep() {
				continue
			}
			// W1's append carried commit index 0: logged but not applied.
			if len(rep.log) != 1 || rep.applied != 0 {
				t.Errorf("region %d after W1: log=%d applied=%d, want 1/0", rep.region, len(rep.log), rep.applied)
			}
			if _, leaked := rep.rows[rowID(0, 1)]; leaked {
				t.Errorf("region %d applied W1 before it was committed", rep.region)
			}
		}
		if err := db.Commit(p, nil, 0, 2, w2); err != nil {
			t.Error(err)
			return
		}
		for _, rep := range grp.replicas {
			if rep == grp.leaderRep() {
				continue
			}
			// W2's append carried commit index 1: W1 applied, W2 pending.
			if rep.applied != 1 {
				t.Errorf("region %d after W2: applied=%d, want 1", rep.region, rep.applied)
			}
		}
		// The new leader acked W2 before learning its commit; the election
		// must catch its rows up so the committed write is readable.
		if _, err := db.FailLeader(0); err != nil {
			t.Error(err)
			return
		}
		got, err = db.Read(p, nil, 0, 2, false)
		if err != nil {
			t.Error(err)
		}
		db.Stop()
	})
	env.K.Run()
	if !bytes.Equal(got, w2) {
		t.Fatalf("read after failover = %q, want %q", got, w2)
	}
	if vs := h.CheckLinearizability(); len(vs) != 0 {
		t.Fatalf("history not linearizable:\n%v", vs)
	}
	if br := db.CheckInvariants(); len(br) != 0 {
		t.Fatalf("invariants broken: %v", br)
	}
}

func TestStaleTermAppendRefused(t *testing.T) {
	// Regression for the mid-commit deposition race (found by the safety
	// torture study at seed 2): an election landing while a replication round
	// is in flight must cause the remaining appends to be refused as stale.
	// Otherwise the deposed leader's round can reach a majority and commit an
	// entry the new leader does not hold, and reads through the new leader
	// miss an acknowledged write.
	env := testEnv(66)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	env.K.Go("client", func(p *sim.Proc) {
		grp := db.groups[0]
		staleTerm := grp.term
		if _, err := db.FailLeader(0); err != nil { // bumps grp.term
			t.Error(err)
			return
		}
		follower := grp.replicas[2]
		wantLog := len(follower.log)
		resp, _ := db.client.Call(p, grp.leaderRep().machine.Node, follower.srv, netsim.Request{
			Method: "consensus.append",
			Bytes:  128,
			Payload: &appendArgs{
				FromIndex: wantLog,
				Entries:   []logEntry{{key: rowID(0, 7), value: []byte("from-deposed-leader"), term: staleTerm}},
				Term:      staleTerm,
				Commit:    grp.committed,
			},
		})
		if resp.Err != nil {
			t.Errorf("append RPC failed: %v", resp.Err)
			return
		}
		reply := resp.Payload.(*appendReply)
		if reply.OK || !reply.Stale {
			t.Errorf("stale-term append reply = %+v, want refused as Stale", reply)
		}
		if len(follower.log) != wantLog {
			t.Errorf("follower log grew to %d entries, stale append must not append", len(follower.log))
		}
		db.Stop()
	})
	env.K.Run()
}

func TestDivergentPrefixAppendBackedUp(t *testing.T) {
	// Regression for the grafted-suffix bug (found by the safety torture
	// study at seed 20): a replica that rejoins with a divergent uncommitted
	// entry at index i must not accept appends starting at i+1 — the matching
	// suffix would sit on top of conflicting history and the divergence would
	// never be repaired. The append must be refused with a back-up hint so
	// the leader's catch-up batch covers (and truncates) the conflict.
	env := testEnv(67)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	env.K.Go("client", func(p *sim.Proc) {
		if err := db.Commit(p, nil, 0, 3, []byte("seed-entry")); err != nil {
			t.Error(err)
			return
		}
		grp := db.groups[0]
		follower := grp.replicas[1]
		// An append claiming a different term for the follower's last entry
		// must be backed up, not appended.
		resp, _ := db.client.Call(p, grp.leaderRep().machine.Node, follower.srv, netsim.Request{
			Method: "consensus.append",
			Bytes:  128,
			Payload: &appendArgs{
				FromIndex: len(follower.log),
				Entries:   []logEntry{{key: rowID(0, 4), value: []byte("on-top"), term: grp.term}},
				Term:      grp.term,
				PrevTerm:  grp.term + 7, // deliberately wrong
				Commit:    grp.committed,
			},
		})
		if resp.Err != nil {
			t.Errorf("append RPC failed: %v", resp.Err)
			return
		}
		reply := resp.Payload.(*appendReply)
		if reply.OK || reply.Stale {
			t.Errorf("divergent-prefix append reply = %+v, want refused with a back-up hint", reply)
		}
		if want := len(follower.log) - 1; reply.NeedFrom != want {
			t.Errorf("NeedFrom = %d, want %d (one entry back)", reply.NeedFrom, want)
		}
		db.Stop()
	})
	env.K.Run()
}

func TestElectionRequiresMajority(t *testing.T) {
	// One live replica out of three must not be electable: serving from a
	// minority could miss committed writes it never saw.
	env := testEnv(64)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	env.K.Go("client", func(p *sim.Proc) {
		db.StopReplica(2, 0)
		db.StopReplica(2, 1)
		if _, err := db.Read(p, nil, 2, 1, false); !errors.Is(err, ErrNoQuorum) {
			t.Errorf("read with 1/3 live = %v, want ErrNoQuorum", err)
		}
		db.Stop()
	})
	env.K.Run()
}

// TestPartitionedElectionRetriesOnPolicySchedule cuts every replica of group
// 0 off from the others, so step-down finds no quorum-connected candidate.
// The election is retried on the RPC policy's schedule (3 tries, each after
// a 3ms cross-region round trip plus a 200µs, then 400µs backoff): a heal
// inside that window lets the read through, and without one the read fails
// with ErrNoQuorum once the schedule is spent, not at once.
func TestPartitionedElectionRetriesOnPolicySchedule(t *testing.T) {
	const spent = 2*3*time.Millisecond + 600*time.Microsecond
	for _, c := range []struct {
		name   string
		healAt time.Duration // 0: never
	}{
		{"healed inside the schedule", 5 * time.Millisecond},
		{"never healed", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := testEnv(65)
			cfg := smallConfig()
			cfg.PartitionRecovery = true
			cfg.RPC = netsim.Policy{MaxAttempts: 3, BackoffBase: 200 * time.Microsecond, BackoffMax: 2 * time.Millisecond}
			db, err := New(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var nodes []string
			for r := 0; r < cfg.Regions; r++ {
				name, err := db.ReplicaNodeName(0, r)
				if err != nil {
					t.Fatal(err)
				}
				nodes = append(nodes, name)
			}
			for _, a := range nodes {
				for _, b := range nodes {
					if a != b {
						env.Net.BlockLink(a, b)
					}
				}
			}
			if c.healAt > 0 {
				env.K.Schedule(c.healAt, func() {
					for _, a := range nodes {
						for _, b := range nodes {
							env.Net.HealLink(a, b)
						}
					}
				})
			}
			env.K.Go("client", func(p *sim.Proc) {
				defer db.Stop()
				_, err := db.Read(p, nil, 0, 1, false)
				switch {
				case c.healAt > 0 && err != nil:
					t.Errorf("read after a heal at %v failed: %v", c.healAt, err)
				case c.healAt > 0 && p.Now() < spent:
					t.Errorf("read returned at %v, before the third election try at %v", p.Now(), spent)
				case c.healAt == 0 && !errors.Is(err, ErrNoQuorum):
					t.Errorf("read with no quorum anywhere = %v, want ErrNoQuorum", err)
				case c.healAt == 0 && p.Now() != spent:
					t.Errorf("read failed at %v, want once the schedule is spent at %v", p.Now(), spent)
				}
			})
			env.K.Run()
		})
	}
}
