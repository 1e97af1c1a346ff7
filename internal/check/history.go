// Package check is the safety-checking layer over the platform simulations:
// a deterministic operation-history recorder driven by the DES clock, a
// Wing & Gong-style linearizability checker over a per-key atomic-register
// model, and a registry for standing invariants. The fault engine in
// internal/faults makes the platforms *fail*; this package proves they stay
// *correct* while failing — no committed write lost, no mutation replayed
// twice, no shard double-counted.
//
// Recording is opt-in and cheap: platforms hold a nil *History by default
// and pay one pointer test per operation. The simulation kernel's strict
// goroutine alternation makes the recorder safe to share without locks.
package check

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
)

// Outcome classifies how a recorded operation ended.
type Outcome int

const (
	// OutcomeOK means the operation completed and its effect (write) or
	// return value (read) is known.
	OutcomeOK Outcome = iota
	// OutcomeFailed means the operation definitely had no effect (e.g. a
	// validation error, or a commit rejected before the leader appended it).
	// Failed operations impose no constraint on the history.
	OutcomeFailed
	// OutcomeIndeterminate means the operation errored but may still have
	// taken effect (e.g. a commit that was appended to the leader's log but
	// missed its quorum: a later catch-up can replicate it). The checker
	// allows such an operation to linearize at any point after its invoke —
	// including never, modeled as a return at the end of time.
	OutcomeIndeterminate
	// OutcomePending means the operation never returned before the history
	// was checked. Treated like Indeterminate.
	OutcomePending
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeFailed:
		return "failed"
	case OutcomeIndeterminate:
		return "indet"
	case OutcomePending:
		return "pending"
	}
	return "unknown"
}

// Op is one recorded operation. Values are recorded as 64-bit digests so
// histories stay compact even for large row payloads.
type Op struct {
	// ID is the operation's position in recording order.
	ID int
	// Client names the issuing process (well-formedness: one outstanding
	// operation per client).
	Client string
	// Kind is the operation type; the linearizability checker interprets
	// "read" and "write", other kinds ride along for reporting.
	Kind string
	// Key is the register the operation touched.
	Key string
	// Arg is the digest of the written value (writes).
	Arg uint64
	// Ret is the digest of the returned value (reads with OutcomeOK).
	Ret uint64
	// Invoke and Return are the operation's virtual-time window.
	Invoke, Return time.Duration
	// Outcome classifies the completion.
	Outcome Outcome
	// TS is the commit timestamp the platform assigned (Spanner commits),
	// valid when HasTS is set. Timestamps come from the platform's skewed
	// local clocks, not the simulation clock — comparing them against the
	// Invoke/Return instants is exactly what the external-consistency check
	// does.
	TS    time.Duration
	HasTS bool
}

// String renders one op as a history line.
func (o *Op) String() string {
	val := ""
	switch {
	case o.Kind == "write":
		val = fmt.Sprintf(" val=%016x", o.Arg)
	case o.Kind == "read" && o.Outcome == OutcomeOK:
		val = fmt.Sprintf(" ret=%016x", o.Ret)
	}
	if o.HasTS {
		val += fmt.Sprintf(" ts=%v", o.TS)
	}
	return fmt.Sprintf("op %3d %-8s %-5s %-12s [%12v, %12v] %s%s",
		o.ID, o.Client, o.Kind, o.Key, o.Invoke, o.Return, o.Outcome, val)
}

// Violation is one detected safety violation: either a non-linearizable
// history over a key (History holds the minimal violating subhistory) or a
// structural invariant breach detected at a specific instant.
type Violation struct {
	// Platform tags the deployment the violation came from (filled by the
	// harness).
	Platform string
	// Kind classifies the violation ("linearizability", "exactly-once",
	// "invariant", ...).
	Kind string
	// Key is the register or object involved, if any.
	Key string
	// Detail is the human-readable description.
	Detail string
	// At is the virtual time the violation was detected.
	At time.Duration
	// History is the minimal violating subhistory (linearizability only).
	History []*Op
}

// String renders the violation with its minimal history, if any.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s", v.Kind, v.Detail)
	if v.Platform != "" {
		b.WriteString(" (platform " + v.Platform + ")")
	}
	for _, op := range v.History {
		b.WriteString("\n  " + op.String())
	}
	return b.String()
}

// FormatOps renders a history slice one op per line (tests and reports).
func FormatOps(ops []*Op) string {
	lines := make([]string, len(ops))
	for i, op := range ops {
		lines[i] = op.String()
	}
	return strings.Join(lines, "\n")
}

// History records operations against the simulation clock. The zero value is
// not usable; create with NewHistory. A nil *History is a valid "recording
// off" receiver for the platform hooks' nil checks.
type History struct {
	k        *sim.Kernel
	ops      []*Op
	initials map[string]uint64

	// Reservoir-sampling mode (NewSampledHistory): limit caps len(ops), seen
	// counts every invocation, rng drives the replacement draws. limit == 0
	// is the default exact mode, which records everything.
	limit int
	seen  int64
	rng   *stats.RNG

	structural []Violation
}

// NewHistory creates an empty history on the kernel's clock.
func NewHistory(k *sim.Kernel) *History {
	return &History{k: k, initials: map[string]uint64{}}
}

// Digest hashes a value to the 64-bit digest histories store (FNV-1a).
func Digest(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Initial records a key's initial value digest, once; later calls for the
// same key are ignored. Platforms call it before the first operation on a
// key so the checker knows what an untouched register reads as.
func (h *History) Initial(key string, digest uint64) {
	if !h.Seeded(key) {
		h.initials[key] = digest
	}
}

// Seeded reports whether key's initial value is already recorded, so a
// platform can skip computing a digest that Initial would ignore.
func (h *History) Seeded(key string) bool {
	_, ok := h.initials[key]
	return ok
}

// Invoke records an operation's invocation at the current virtual time and
// returns its handle, to be completed with OK, Fail or Indeterminate. A
// sampled history (NewSampledHistory) returns nil for an invocation its
// reservoir rejects: nothing is recorded, and callers skip completing a nil
// handle.
func (h *History) Invoke(client, kind, key string, arg uint64) *Op {
	id := int(h.seen)
	h.seen++
	slot := len(h.ops)
	if h.limit > 0 {
		if slot = h.slot(); slot < 0 {
			return nil
		}
	}
	op := &Op{
		ID:      id,
		Client:  client,
		Kind:    kind,
		Key:     key,
		Arg:     arg,
		Invoke:  h.k.Now(),
		Return:  -1,
		Outcome: OutcomePending,
	}
	if slot == len(h.ops) {
		h.ops = append(h.ops, op)
	} else {
		h.ops[slot] = op
	}
	return op
}

// OK completes an operation successfully; ret is the returned value digest
// (reads; writes pass 0).
func (h *History) OK(op *Op, ret uint64) {
	op.Return = h.k.Now()
	op.Ret = ret
	op.Outcome = OutcomeOK
}

// OKAt completes an operation successfully and records the commit timestamp
// the platform assigned it, enabling the external-consistency check.
func (h *History) OKAt(op *Op, ret uint64, ts time.Duration) {
	h.OK(op, ret)
	op.TS = ts
	op.HasTS = true
}

// Fail completes an operation as a definite no-effect failure.
func (h *History) Fail(op *Op) {
	op.Return = h.k.Now()
	op.Outcome = OutcomeFailed
}

// Indeterminate completes an operation whose effect is unknown (it may still
// apply later, or never).
func (h *History) Indeterminate(op *Op) {
	op.Return = h.k.Now()
	op.Outcome = OutcomeIndeterminate
}

// Violate records a structural violation detected inside a platform at the
// current virtual time (duplicate replay, double-merged shard, broken
// election invariant, ...).
func (h *History) Violate(kind, key, format string, args ...interface{}) {
	h.structural = append(h.structural, Violation{
		Kind:   kind,
		Key:    key,
		Detail: fmt.Sprintf(format, args...),
		At:     h.k.Now(),
	})
}

// Structural returns the violations recorded with Violate.
func (h *History) Structural() []Violation { return h.structural }

// Ops returns the recorded operations in recording order.
func (h *History) Ops() []*Op { return h.ops }

// Len returns the number of recorded operations.
func (h *History) Len() int {
	if h == nil {
		return 0
	}
	return len(h.ops)
}

// Keys returns the recorded keys in sorted order.
func (h *History) Keys() []string {
	seen := map[string]bool{}
	var keys []string
	for _, op := range h.ops {
		if !seen[op.Key] {
			seen[op.Key] = true
			keys = append(keys, op.Key)
		}
	}
	sort.Strings(keys)
	return keys
}
