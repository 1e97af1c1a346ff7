package spanner

import (
	"fmt"

	"hyperprof/internal/check"
	"hyperprof/internal/sim"
	"hyperprof/internal/trace"
)

// This file is the safety-checking surface of the Spanner simulation: opt-in
// operation-history recording around Read/Commit (one nil test per operation
// when disabled) and the standing consensus invariants the torture harness
// asserts after every run.

// SetRecorder attaches an operation-history recorder. Pass nil to detach.
// Reads and commits are recorded against the per-row register named by
// rowKey, with values stored as digests; commit failures distinguish definite
// no-effects from indeterminate outcomes (entry appended but not known
// committed), which the linearizability checker treats as writes that may
// apply at any later time or never.
func (db *DB) SetRecorder(h *check.History) { db.rec = h }

// seedInitial returns the row's register key, recording its bootstrap digest
// first if this is the key's first recorded operation.
func (db *DB) seedInitial(g, row int) string {
	key := rowKey(g, row)
	if !db.rec.Seeded(key) {
		db.rec.Initial(key, check.Digest(db.bootstrapValue(g, row)))
	}
	return key
}

// Read performs a point read of row `row` in group g, returning the value.
// A StrongReadFrac fraction of reads (decided by the strong argument)
// confirms the leader's lease with a quorum round first.
func (db *DB) Read(p *sim.Proc, tr *trace.Trace, g, row int, strong bool) ([]byte, error) {
	var op *check.Op
	if db.rec != nil && g >= 0 && g < len(db.groups) && row >= 0 && row < db.cfg.RowsPerGroup {
		key := db.seedInitial(g, row)
		op = db.rec.Invoke(p.Name(), "read", key, 0)
	}
	start := p.Now()
	val, err := db.read(p, tr, g, row, strong)
	db.mReadLat.RecordSince(start, p.Now())
	if op != nil {
		if err != nil {
			db.rec.Fail(op)
		} else {
			db.rec.OK(op, check.Digest(val))
		}
	}
	return val, err
}

// Commit writes value to row `row` of group g through the replication
// protocol: the leader appends to its replicated log, ships the entry to
// every follower in parallel, waits for a majority of acknowledgments, and
// then applies the write.
func (db *DB) Commit(p *sim.Proc, tr *trace.Trace, g, row int, value []byte) error {
	var op *check.Op
	if db.rec != nil && g >= 0 && g < len(db.groups) && row >= 0 && row < db.cfg.RowsPerGroup {
		key := db.seedInitial(g, row)
		op = db.rec.Invoke(p.Name(), "write", key, check.Digest(value))
	}
	start := p.Now()
	appended, ts, err := db.commit(p, tr, g, row, value)
	db.mCommitLat.RecordSince(start, p.Now())
	if op != nil {
		switch {
		case err == nil:
			// Record the commit timestamp the leader minted from its (possibly
			// skewed) local clock — the input to the external-consistency check.
			db.rec.OKAt(op, 0, ts)
		case appended:
			db.rec.Indeterminate(op)
		default:
			db.rec.Fail(op)
		}
	}
	return err
}

// RegisterInvariants registers the deployment's standing invariants with a
// checker registry under one name per invariant family.
func (db *DB) RegisterInvariants(reg *check.Registry) {
	reg.Register("spanner-consensus", db.CheckInvariants)
}

// CheckInvariants verifies the standing consensus invariants at a quiescent
// instant and returns one description per breach:
//
//   - quorum intersection: the ack count the commit path waits for forms a
//     majority of the replica set (any two quorums share a replica);
//   - leader completeness: the current leader's log covers every committed
//     entry (a violation means an election picked a stale replica);
//   - committed-prefix durability: each committed entry is held, with the
//     leader's (key, term), by a majority of replicas;
//   - log matching: two replicas holding an entry with the same index and
//     term agree on what that entry is;
//   - apply-at-commit: no replica has applied past its log or past the
//     group's commit index (an over-applied replica has leaked uncommitted
//     entries into its readable row state), and the leader's applied state
//     covers every committed entry.
//
// A deposed replica may transiently hold a divergent *uncommitted* suffix
// with an older term — that is legal (catch-up repairs it) and is not
// flagged, which is why the committed-prefix checks compare terms.
func (db *DB) CheckInvariants() []string {
	var out []string
	for _, grp := range db.groups {
		n := len(grp.replicas)
		need := n/2 + 1
		if 2*need <= n {
			out = append(out, fmt.Sprintf("group %d: quorum of %d among %d replicas does not self-intersect", grp.id, need, n))
		}
		lead := grp.leaderRep()
		if len(lead.log) < grp.committed {
			out = append(out, fmt.Sprintf("group %d: leader (region %d) log has %d entries < %d committed — committed writes lost",
				grp.id, lead.region, len(lead.log), grp.committed))
			continue
		}
		for idx := 0; idx < grp.committed; idx++ {
			ref := lead.log[idx]
			holders := 0
			for _, rep := range grp.replicas {
				if idx >= len(rep.log) {
					continue
				}
				e := rep.log[idx]
				if e.key == ref.key && e.term == ref.term {
					holders++
				} else if e.term == ref.term {
					out = append(out, fmt.Sprintf("group %d: index %d term %d names %s on region %d but %s on the leader",
						grp.id, idx, e.term, idKey(e.key), rep.region, idKey(ref.key)))
				}
			}
			if holders < need {
				out = append(out, fmt.Sprintf("group %d: committed index %d (%s, term %d) held by %d/%d replicas, needs a majority",
					grp.id, idx, idKey(ref.key), ref.term, holders, n))
			}
		}
		for _, rep := range grp.replicas {
			if rep.applied > len(rep.log) {
				out = append(out, fmt.Sprintf("group %d: region %d applied %d entries but logs only %d",
					grp.id, rep.region, rep.applied, len(rep.log)))
			}
			if rep.applied > grp.committed {
				out = append(out, fmt.Sprintf("group %d: region %d applied %d entries past commit index %d — uncommitted data is readable",
					grp.id, rep.region, rep.applied, grp.committed))
			}
		}
		if lead.applied < grp.committed {
			out = append(out, fmt.Sprintf("group %d: leader (region %d) applied %d of %d committed entries — committed writes unreadable",
				grp.id, lead.region, lead.applied, grp.committed))
		}
	}
	return out
}
