package bigquery

import (
	"fmt"

	"hyperprof/internal/check"
)

// This file is the safety-checking surface of the BigQuery simulation. The
// engine's correctness contract is exactly-once aggregation: every stage-1
// shard contributes to the final aggregate exactly once, whether it travels
// through the shuffle tier or is speculatively re-executed after its slot was
// lost, and the merged result equals the exact reference aggregation. Both
// checks run inline at the end of every distributed query when a recorder is
// attached and report breaches as structural violations.

// SetRecorder attaches an operation-history recorder: every distributed query
// then self-checks shard contribution counts and the exact result, reporting
// breaches via check.Violate. Pass nil to detach.
func (e *Engine) SetRecorder(h *check.History) { e.rec = h }

// RegisterInvariants registers the deployment's standing invariants with a
// checker registry.
func (e *Engine) RegisterInvariants(reg *check.Registry) {
	reg.Register("bigquery-shuffle", e.CheckInvariants)
}

// CheckInvariants verifies the standing shuffle-tier invariants at a
// quiescent instant: every remembered slot location names a valid shuffle
// server, and no two live servers hold the same slot key (a duplicated slot
// would let one shard be fetched — and merged — twice).
func (e *Engine) CheckInvariants() []string {
	var out []string
	for key, idx := range e.slotLoc {
		if idx < 0 || idx >= len(e.shuffle) {
			out = append(out, fmt.Sprintf("slot %s: location %d out of range", key, idx))
		}
	}
	holders := map[slotKey]int{}
	for i, ss := range e.shuffle {
		if ss.srv.Stopped() {
			continue
		}
		for key := range ss.slots {
			if prev, dup := holders[key]; dup {
				out = append(out, fmt.Sprintf("slot %s: held by both server %d and server %d", key, prev, i))
			}
			holders[key] = i
		}
	}
	return out
}
