package bigtable

import (
	"fmt"

	"hyperprof/internal/check"
	"hyperprof/internal/sim"
	"hyperprof/internal/trace"
)

// This file is the safety-checking surface of the BigTable simulation:
// opt-in history recording around Get/Put (one nil test per operation when
// disabled) and the standing invariants — tablet ownership, commit-log
// structure — the torture harness asserts after every run. Together with the
// linearizability checker this proves read-your-writes, no-lost-mutations
// and no-duplicate-replay across tablet reassignment and commit-log replay.

// SetRecorder attaches an operation-history recorder. Pass nil to detach.
func (db *DB) SetRecorder(h *check.History) { db.rec = h }

// Recorder returns the attached recorder, if any.
func (db *DB) Recorder() *check.History { return db.rec }

// seedInitial returns the row's register key, recording its bootstrap digest
// first if this is the key's first recorded operation.
func (db *DB) seedInitial(t, row int) string {
	key := rowKey(t, row)
	if !db.rec.Seeded(key) {
		db.rec.Initial(key, check.Digest(bootstrapValue(t, row, int(db.cfg.ValueBytes))))
	}
	return key
}

// Get returns the current value of row `row` in tablet t.
func (db *DB) Get(p *sim.Proc, tr *trace.Trace, t, row int) ([]byte, error) {
	// Front-door gate before anything else: a shed operation never executes
	// and is never recorded, exactly like a request refused at a server.
	release, admitErr := db.admitOp(t)
	if admitErr != nil {
		return nil, admitErr
	}
	defer release()
	var op *check.Op
	if db.rec != nil && t >= 0 && t < len(db.tablets) && row >= 0 && row < db.cfg.RowsPerTablet {
		key := db.seedInitial(t, row)
		op = db.rec.Invoke(p.Name(), "read", key, 0)
	}
	start := p.Now()
	val, err := db.get(p, tr, t, row)
	db.mGetLat.RecordSince(start, p.Now())
	if op != nil {
		if err != nil {
			db.rec.Fail(op)
		} else {
			db.rec.OK(op, check.Digest(val))
		}
	}
	return val, err
}

// Put writes value to row `row` of tablet t: commit-log append to the DFS,
// memtable insert, and compaction triggers.
func (db *DB) Put(p *sim.Proc, tr *trace.Trace, t, row int, value []byte) error {
	release, admitErr := db.admitOp(t)
	if admitErr != nil {
		return admitErr
	}
	defer release()
	var op *check.Op
	if db.rec != nil && t >= 0 && t < len(db.tablets) && row >= 0 && row < db.cfg.RowsPerTablet {
		key := db.seedInitial(t, row)
		op = db.rec.Invoke(p.Name(), "write", key, check.Digest(value))
	}
	start := p.Now()
	err := db.put(p, tr, t, row, value)
	db.mPutLat.RecordSince(start, p.Now())
	if op != nil {
		if err != nil {
			// A put fails only before the memtable insert (range checks), so
			// the failure is definite.
			db.rec.Fail(op)
		} else {
			db.rec.OK(op, 0)
		}
	}
	return err
}

// RegisterInvariants registers the deployment's standing invariants with a
// checker registry.
func (db *DB) RegisterInvariants(reg *check.Registry) {
	reg.Register("bigtable-tablets", db.CheckInvariants)
}

// CheckInvariants verifies the standing tablet invariants at a quiescent
// instant and returns one description per breach:
//
//   - ownership: every tablet is owned by exactly one valid, live tablet
//     server (uniqueness is structural — serverIdx is a single field — so
//     the live-owner check is the meaningful half);
//   - commit-log structure: records are strictly seq-ascending and none is
//     at or below durableSeq (a record both truncatable and present would
//     replay a durable mutation after a crash);
//   - flush accounting: pending flush snapshots are in ascending seq order
//     and do not exceed the assigned sequence space.
func (db *DB) CheckInvariants() []string {
	var out []string
	machines := len(db.mgr.Machines())
	for _, tab := range db.tablets {
		if tab.serverIdx < 0 || tab.serverIdx >= machines {
			out = append(out, fmt.Sprintf("tablet %d: owner %d out of range", tab.id, tab.serverIdx))
		} else if db.downServers[tab.serverIdx] {
			out = append(out, fmt.Sprintf("tablet %d: owned by failed server %d", tab.id, tab.serverIdx))
		}
		prev := tab.durableSeq
		for _, rec := range tab.log {
			if rec.seq <= prev {
				out = append(out, fmt.Sprintf("tablet %d: log record seq %d not above %d (duplicate replay on next crash)",
					tab.id, rec.seq, prev))
			}
			prev = rec.seq
		}
		if tab.nextSeq <= tab.durableSeq {
			out = append(out, fmt.Sprintf("tablet %d: durableSeq %d ahead of nextSeq %d", tab.id, tab.durableSeq, tab.nextSeq))
		}
		for i := 1; i < len(tab.flushPending); i++ {
			if tab.flushPending[i] < tab.flushPending[i-1] {
				out = append(out, fmt.Sprintf("tablet %d: pending flushes out of order: %v", tab.id, tab.flushPending))
			}
		}
	}
	return out
}
