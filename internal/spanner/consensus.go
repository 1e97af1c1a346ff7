package spanner

import (
	"fmt"
	"hash/fnv"

	"hyperprof/internal/netsim"
	"hyperprof/internal/sim"
	"hyperprof/internal/storage"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// This file implements the group replication protocol: a leader-driven
// replicated log with follower catch-up (Raft-flavored log matching), and
// leader election by longest log among live replicas. The paper's §4.1
// remote-work category for Spanner is precisely the time spent waiting on
// these rounds.

// appendArgs is the payload of a consensus.append RPC: entries starting at
// FromIndex of the leader's log.
type appendArgs struct {
	FromIndex int
	Entries   []logEntry
	Term      int
	// PrevTerm is the term of the leader's entry just before FromIndex (-1
	// when FromIndex is 0). A follower whose entry there carries a different
	// term has a divergent prefix — appending on top of it would graft a
	// matching suffix over conflicting history — so it rejects and the leader
	// backs up (Raft's AppendEntries consistency check).
	PrevTerm int
	// Commit is the leader's commit index at send time; the follower applies
	// its log prefix up to it (apply-at-commit, never at append).
	Commit int
}

// appendReply is returned via Response.Payload.
type appendReply struct {
	// OK reports whether the entries were appended.
	OK bool
	// Stale reports that the append came from a deposed leadership (its term
	// is older than the group's current term) and was refused outright.
	Stale bool
	// NeedFrom is the follower's log length when a gap was detected; the
	// leader retries from that index.
	NeedFrom int
}

// The OK and Stale replies carry nothing else, so every follower returns
// these shared values; callers only read a reply. Only a NeedFrom reply is
// allocated.
var (
	replyOK    = &appendReply{OK: true}
	replyStale = &appendReply{Stale: true}
)

// startServer (re)creates and starts a replica's RPC server, registering
// the consensus handlers. It is used at placement time and by
// RestartReplica.
func (db *DB) startServer(grp *group, rep *replica) {
	rep.srv = netsim.NewServer(rep.machine.Node, 16)
	if db.cfg.Admission != (netsim.Admission{}) {
		// Decorrelate each replica's shed stream by its node name, keeping
		// the whole deployment a pure function of the config seed.
		a := db.cfg.Admission
		h := fnv.New64a()
		h.Write([]byte(rep.machine.Node.Name))
		a.Seed ^= h.Sum64()
		rep.srv.SetAdmission(a)
	}
	rep.srv.Handle("consensus.append", db.handleAppend(grp, rep))
	rep.srv.Handle("consensus.lease", db.handleLease(rep))
	rep.srv.Start()
}

// handleAppend is the follower side of replication: verify log continuity,
// truncate-and-append (the leader's log is authoritative), apply to the
// replica's row state, and persist to the local log device.
func (db *DB) handleAppend(grp *group, rep *replica) netsim.Handler {
	return func(p *sim.Proc, req netsim.Request) netsim.Response {
		args := req.Payload.(*appendArgs)
		db.env.ExecRecipe(p, taxonomy.Spanner, rep.machine.Node, nil, db.followerRecipe)
		if args.Term < grp.term {
			// Append from a deposed leadership: an election happened while this
			// round was in flight. Accepting it would let the old leader count
			// the ack toward a majority and commit an entry the new leader may
			// not hold — the commit must fail as indeterminate instead.
			return netsim.Response{Bytes: 64, Payload: replyStale}
		}
		if args.FromIndex > len(rep.log) {
			// Gap: this follower missed earlier entries (it was down).
			return netsim.Response{Bytes: 64, Payload: &appendReply{NeedFrom: len(rep.log)}}
		}
		if args.FromIndex > 0 && rep.log[args.FromIndex-1].term != args.PrevTerm {
			// Divergent prefix: this follower's entry before FromIndex is not
			// the leader's. Back the leader up one entry so the catch-up batch
			// covers (and truncates) the divergence.
			return netsim.Response{Bytes: 64, Payload: &appendReply{NeedFrom: args.FromIndex - 1}}
		}
		// Log matching: truncate only on *conflict* (same index, different
		// term), then append what is new. An entry already present with the
		// incoming term is the same entry — a delayed or client-retried round
		// must be idempotent, or it would discard committed entries that newer
		// rounds already replicated behind it. Only the committed prefix is
		// applied to rows — an entry applied at append time could be read
		// through a later leader and then vanish when the divergent suffix it
		// sat on is truncated.
		var bytes int64
		for j, e := range args.Entries {
			idx := args.FromIndex + j
			if idx < len(rep.log) {
				if rep.log[idx].term == e.term {
					continue
				}
				rep.log = rep.log[:idx]
				if rep.applied > idx {
					rep.applied = idx // defensive: committed entries never conflict
				}
			}
			rep.log = append(rep.log, e)
			rep.machine.Store.Write(e.key, int64(len(e.value)))
			bytes += int64(len(e.value)) + 64
		}
		applyUpTo(rep, args.Commit)
		p.Sleep(rep.machine.Store.RawAccess(storage.SSD, bytes, true))
		return netsim.Response{Bytes: 64, Payload: replyOK}
	}
}

// appendRound is one replication round: the leader's log entry at index,
// shipped to every follower under term. It is allocated per round and never
// recycled (see round): a follower's first append carries a pointer into the
// round's slots.
type appendRound struct {
	round
	lead  *replica
	index int
	// term is the leadership term the entry was appended under, NOT the live
	// grp.term: if an election lands mid-round, followers must recognize the
	// remaining appends as coming from a deposed leader and refuse them, or
	// the old round could commit an entry the new leader does not hold.
	term int
	// slots hold the first append to each of the first len(slots) followers,
	// enough for a 3-replica group; a larger group's further followers
	// allocate theirs, as catch-up sends do.
	slots [2]appendSlot
}

// appendSlot is the message of one follower's first append: the arguments
// and a copy of the entry they carry. It is the payload of that append, by
// pointer, so boxing it allocates nothing. The entry is copied, not sliced
// from the leader's log: a deposed leader's log is truncated and re-appended
// in place, and a delayed append must still deliver the entry it was sent.
type appendSlot struct {
	args  appendArgs
	entry [1]logEntry
}

// replicateEntry ships the leader's log entry at index to every follower in
// parallel and waits for a majority, retrying with catch-up batches for
// followers that report a gap or a divergent prefix.
func (db *DB) replicateEntry(p *sim.Proc, tr *trace.Trace, grp *group, leader *replica, index int) error {
	r := &appendRound{round: db.newRound(grp), lead: leader, index: index, term: leader.log[index].term}
	return r.run(p, tr, r.follow)
}

// follow is the body of an append round's follower processes, spawned as one
// method value per round.
func (r *appendRound) follow(cp *sim.Proc) {
	k, rep := r.follower()
	r.report(r.replicate(cp, k, rep))
}

// replicate backs follower k up until its log agrees with the leader's: each
// rejection reports a strictly smaller NeedFrom (a gap reports the follower's
// log length, a divergent prefix reports FromIndex-1), so this terminates —
// at index 0 there is no prefix left to disagree on.
func (r *appendRound) replicate(cp *sim.Proc, k int, rep *replica) error {
	for from := r.index; ; {
		resp := r.send(cp, k, rep, from)
		if resp.Err != nil {
			return resp.Err
		}
		reply := resp.Payload.(*appendReply)
		if reply.OK {
			return nil
		}
		if reply.Stale {
			return fmt.Errorf("spanner: group %d leadership lost mid-replication (term %d superseded)", r.grp.id, r.term)
		}
		if reply.NeedFrom >= from {
			return fmt.Errorf("spanner: group %d catch-up made no progress at index %d", r.grp.id, from)
		}
		from = reply.NeedFrom
	}
}

// send ships the leader's log from index from through the round's entry to
// follower k. The first send (from == index) uses k's slot; a catch-up send
// allocates its own batch. Commit is read at each send.
func (r *appendRound) send(cp *sim.Proc, k int, rep *replica, from int) netsim.Response {
	lead := r.lead
	var args *appendArgs
	if from == r.index && k < len(r.slots) {
		s := &r.slots[k]
		copy(s.entry[:], lead.log[from:r.index+1])
		args = &s.args
		args.Entries = s.entry[:]
	} else {
		entries := make([]logEntry, len(lead.log[from:r.index+1]))
		copy(entries, lead.log[from:r.index+1])
		args = &appendArgs{Entries: entries}
	}
	var bytes int64
	for _, e := range args.Entries {
		bytes += int64(len(e.value)) + 64
	}
	args.PrevTerm = -1
	if from > 0 {
		args.PrevTerm = lead.log[from-1].term
	}
	args.FromIndex, args.Term, args.Commit = from, r.term, r.grp.committed
	resp, _ := r.db.client.Call(cp, lead.machine.Node, rep.srv, netsim.Request{
		Method:  "consensus.append",
		Bytes:   bytes,
		Payload: args,
	})
	return resp
}

// Leader returns the region index of group g's current leader.
func (db *DB) Leader(g int) (int, error) {
	if g < 0 || g >= len(db.groups) {
		return 0, fmt.Errorf("spanner: group %d out of range", g)
	}
	grp := db.groups[g]
	return grp.leaderRep().region, nil
}

// LogLen returns the replicated-log length of group g's replica in the
// given region (tests and monitoring).
func (db *DB) LogLen(g, region int) (int, error) {
	if g < 0 || g >= len(db.groups) {
		return 0, fmt.Errorf("spanner: group %d out of range", g)
	}
	grp := db.groups[g]
	if region < 0 || region >= len(grp.replicas) {
		return 0, fmt.Errorf("spanner: region %d out of range", region)
	}
	return len(grp.replicas[region].log), nil
}

// FailLeader injects a leader failure for group g: the leader's server is
// stopped and a new leader is elected among the live replicas — the most
// up-to-date one by (last log term, log length), ties breaking toward the
// lowest region — which preserves every majority-acknowledged write. It
// returns the new leader's region.
func (db *DB) FailLeader(g int) (int, error) {
	if g < 0 || g >= len(db.groups) {
		return 0, fmt.Errorf("spanner: group %d out of range", g)
	}
	grp := db.groups[g]
	grp.leaderRep().srv.Stop()
	return db.elect(grp)
}

// elect picks a new leader among the live replicas. Two rules make this safe
// (Raft's election restriction): the election needs a *majority* of the
// group alive, and the winner is the most up-to-date live replica ordered by
// (term of last entry, log length). Any committed entry lives on a majority
// of replicas, and any live majority intersects it, so the most up-to-date
// member of a live majority is guaranteed to hold every committed entry
// (leader completeness). Log length alone is not enough: a deposed leader
// can carry a *longer* log whose tail is an uncommitted divergent suffix
// from an older term.
func (db *DB) elect(grp *group) (int, error) {
	// With PartitionRecovery the candidate pool shrinks further to replicas
	// that can reach a live majority over unblocked links: the voters a real
	// election would gather are exactly that component, and any committed
	// entry's majority intersects any live-majority component, so the most
	// up-to-date member of the component still holds every committed entry.
	// Without a quorum-connected candidate the election fails — the minority
	// side stays leaderless rather than splitting the brain.
	live, best := 0, -1
	for i, rep := range grp.replicas {
		if rep.srv.Stopped() {
			continue
		}
		live++
		if db.brokenElectAnyReplica {
			if best == -1 {
				best = i
			}
			continue
		}
		if db.cfg.PartitionRecovery && !db.quorumConnected(grp, i) {
			continue
		}
		if best == -1 || moreUpToDate(rep, grp.replicas[best]) {
			best = i
		}
	}
	if best == -1 {
		if live > 0 {
			return 0, fmt.Errorf("%w: group %d has no replica connected to a live majority", ErrNoQuorum, grp.id)
		}
		return 0, fmt.Errorf("%w: group %d has no live replicas", ErrNoQuorum, grp.id)
	}
	if !db.brokenElectAnyReplica && live < len(grp.replicas)/2+1 {
		return 0, fmt.Errorf("%w: group %d has %d/%d replicas live, election needs a majority",
			ErrNoQuorum, grp.id, live, len(grp.replicas))
	}
	grp.leader = best
	grp.term++
	db.Elections++
	db.mElections.Inc()
	if !db.brokenElectAnyReplica {
		// The winner may hold committed entries it has not applied yet (it
		// acked them before their commit was known). Catch its row state up to
		// the commit index before it serves reads; leader completeness
		// guarantees the prefix is present.
		applyUpTo(grp.replicas[best], grp.committed)
	}
	// Standing assertion (leader completeness): the winner's log must cover
	// every committed entry. Under the honest rules above this cannot fire;
	// it catches regressions and the brokenElectAnyReplica fixture.
	if win := grp.leaderRep(); len(win.log) < grp.committed && db.rec != nil {
		db.rec.Violate("election-safety", fmt.Sprintf("g%d", grp.id),
			"group %d elected region %d whose log (%d entries) misses committed entries (%d)",
			grp.id, win.region, len(win.log), grp.committed)
	}
	return grp.replicas[best].region, nil
}

// moreUpToDate reports whether a's log is strictly more up-to-date than b's:
// higher last-entry term, or equal term and longer log.
func moreUpToDate(a, b *replica) bool {
	at, bt := lastTerm(a), lastTerm(b)
	if at != bt {
		return at > bt
	}
	return len(a.log) > len(b.log)
}

// lastTerm returns the term of a replica's last log entry (0 when empty).
func lastTerm(r *replica) int {
	if len(r.log) == 0 {
		return 0
	}
	return r.log[len(r.log)-1].term
}

// RestartReplica brings a previously stopped replica back: a fresh server
// is started on the same machine with the replica's log intact, so it
// catches up through the normal append path.
func (db *DB) RestartReplica(g, region int) error {
	if g < 0 || g >= len(db.groups) {
		return fmt.Errorf("spanner: group %d out of range", g)
	}
	grp := db.groups[g]
	if region < 0 || region >= len(grp.replicas) {
		return fmt.Errorf("spanner: region %d out of range", region)
	}
	rep := grp.replicas[region]
	if !rep.srv.Stopped() {
		return fmt.Errorf("spanner: group %d region %d is already running", g, region)
	}
	db.startServer(grp, rep)
	return nil
}
