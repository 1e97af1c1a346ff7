package check

import (
	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
)

// NewSampledHistory creates a history that retains at most limit operations,
// chosen by reservoir sampling (Algorithm R) over everything invoked: after
// n invocations every operation has probability limit/n of being in the
// retained set, so the sample stays representative of the whole run while
// memory stays O(limit) no matter how many operations stream through — the
// bounded-memory recording mode fleet-scale studies switch on.
//
// Sampling is driven by its own deterministic generator, so the retained
// set is a pure function of (seed, invocation sequence) and identical
// between sequential and parallel study runs.
//
// A sampled history supports structural violations (Violate fires on the
// spot regardless of sampling) and the Ops/Seen accessors, but it is NOT a
// sound input to the completeness-sensitive checkers: linearizability and
// external consistency both reason about the absence of conflicting
// operations, which a subsample cannot witness. Those checkers panic on a
// sampled history rather than silently under-reporting; studies that want
// them keep the default exact NewHistory.
func NewSampledHistory(k *sim.Kernel, limit int, seed uint64) *History {
	if limit <= 0 {
		panic("check: sampled history needs a positive retention limit")
	}
	return &History{
		k:        k,
		initials: map[string]uint64{},
		limit:    limit,
		rng:      stats.NewRNG(seed),
	}
}

// Sampled reports whether this history subsamples its operations (and is
// therefore off-limits to the completeness-sensitive checkers).
func (h *History) Sampled() bool { return h != nil && h.limit > 0 }

// Seen returns the total number of operations ever invoked, including those
// the reservoir evicted. For an exact history it equals Len.
func (h *History) Seen() int64 {
	if h == nil {
		return 0
	}
	return h.seen
}

// slot is where the reservoir puts the operation just invoked: keep the
// first limit outright, then replace a uniformly random slot with
// probability limit/seen. It returns len(h.ops) to append and -1 to reject.
// Evicted ops stay live through their caller's handle until completion, they
// just stop being part of the retained history.
func (h *History) slot() int {
	if len(h.ops) < h.limit {
		return len(h.ops)
	}
	if j := h.rng.Intn(int(h.seen)); j < h.limit {
		return j
	}
	return -1
}

// guardExact panics if a completeness-sensitive checker is invoked on a
// sampled history.
func (h *History) guardExact(checker string) {
	if h.Sampled() {
		panic("check: " + checker + " needs a complete history; this one reservoir-samples (NewSampledHistory) and cannot witness absent operations")
	}
}
