package check

import (
	"fmt"
	"sort"
	"testing"

	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
)

func fillSampled(limit int, seed uint64, n int) *History {
	k := sim.New()
	h := NewSampledHistory(k, limit, seed)
	for i := 0; i < n; i++ {
		if op := h.Invoke(fmt.Sprintf("c%d", i%7), "write", fmt.Sprintf("k%d", i%11), uint64(i)); op != nil {
			h.OK(op, 0)
		}
	}
	return h
}

// sampledOps returns h's retained operations in invocation order.
func sampledOps(h *History) []*Op {
	ops := append([]*Op(nil), h.ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })
	return ops
}

// TestSampledHistoryBoundedAndCounted pins the reservoir contract: retained
// size never exceeds the limit, Seen counts everything, and below the limit
// the history is complete.
func TestSampledHistoryBoundedAndCounted(t *testing.T) {
	h := fillSampled(100, 1, 50000)
	if got := h.Len(); got != 100 {
		t.Fatalf("retained %d ops, want exactly the 100-op limit", got)
	}
	if got := h.Seen(); got != 50000 {
		t.Fatalf("Seen() = %d, want 50000", got)
	}
	if !h.Sampled() {
		t.Fatal("Sampled() = false on a sampled history")
	}

	small := fillSampled(100, 1, 60)
	if got := small.Len(); got != 60 {
		t.Fatalf("under the limit the history must be complete: retained %d of 60", got)
	}
	ops := sampledOps(small)
	for i, op := range ops {
		if op.ID != i {
			t.Fatalf("under the limit the retained ops must be the full run in order; op %d has ID %d", i, op.ID)
		}
	}
}

// TestSampledHistoryDeterministic requires the retained set to be a pure
// function of the seed and the invocation sequence.
func TestSampledHistoryDeterministic(t *testing.T) {
	a := sampledOps(fillSampled(64, 42, 20000))
	b := sampledOps(fillSampled(64, 42, 20000))
	if len(a) != len(b) {
		t.Fatalf("same seed retained %d vs %d ops", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("same seed diverges at slot %d: ID %d vs %d", i, a[i].ID, b[i].ID)
		}
	}
	c := sampledOps(fillSampled(64, 43, 20000))
	same := true
	for i := range a {
		if a[i].ID != c[i].ID {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds retained an identical sample (sampling not seed-driven?)")
	}
}

// TestSampledHistoryUniform is the statistical pin on Algorithm R: the mean
// retained ID over many independent reservoirs must approach the stream
// midpoint, i.e. late operations are as likely to be kept as early ones.
func TestSampledHistoryUniform(t *testing.T) {
	const (
		limit  = 50
		stream = 5000
		trials = 40
	)
	var sum, count float64
	for seed := uint64(0); seed < trials; seed++ {
		for _, op := range sampledOps(fillSampled(limit, seed, stream)) {
			sum += float64(op.ID)
			count++
		}
	}
	mean := sum / count
	mid := float64(stream-1) / 2
	// Standard error of the mean of ~2000 uniform draws over [0,5000) is
	// ~32; 10% of the midpoint is a ~78-sigma corridor — failure means bias,
	// not bad luck.
	if mean < mid*0.9 || mean > mid*1.1 {
		t.Fatalf("mean retained ID %.0f, want within 10%% of stream midpoint %.0f: reservoir is biased", mean, mid)
	}
}

// TestSampledHistoryCheckersPanic pins the soundness guard: the
// completeness-sensitive checkers must refuse a subsampled history instead
// of silently under-reporting.
func TestSampledHistoryCheckersPanic(t *testing.T) {
	h := fillSampled(8, 1, 100)
	for name, check := range map[string]func(){
		"CheckLinearizability":     func() { h.CheckLinearizability() },
		"CheckExternalConsistency": func() { h.CheckExternalConsistency() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on a sampled history", name)
				}
			}()
			check()
		}()
	}
}

// TestSampledHistoryStructuralViolationsSurvive checks Violate is exempt
// from sampling: structural breaches fire on the spot and must all be kept.
func TestSampledHistoryStructuralViolationsSurvive(t *testing.T) {
	k := sim.New()
	h := NewSampledHistory(k, 4, 1)
	for i := 0; i < 1000; i++ {
		if op := h.Invoke("c", "write", "k", uint64(i)); op != nil {
			h.OK(op, 0)
		}
		if i%100 == 0 {
			h.Violate("exactly-once", "k", "replayed mutation %d", i)
		}
	}
	if got := len(h.Structural()); got != 10 {
		t.Fatalf("%d structural violations recorded, want all 10 despite op sampling", got)
	}
}

// TestExactHistoryUnchanged guards the default path: NewHistory keeps every
// operation and reports itself unsampled.
func TestExactHistoryUnchanged(t *testing.T) {
	k := sim.New()
	h := NewHistory(k)
	for i := 0; i < 500; i++ {
		h.OK(h.Invoke("c", "write", "k", uint64(i)), 0)
	}
	if h.Sampled() {
		t.Fatal("exact history reports Sampled() = true")
	}
	if h.Len() != 500 || h.Seen() != 500 {
		t.Fatalf("exact history Len=%d Seen=%d, want 500/500", h.Len(), h.Seen())
	}
	if h.CheckLinearizability() != nil {
		t.Fatal("sequential writes flagged as non-linearizable")
	}
}

// TestSampledInvokeKeepsReservoirAndRejectsFree pins the sampled Invoke
// against Algorithm R written out on its own: the same seed keeps the same
// IDs in the same slots, and Seen counts every invocation. An invocation the
// reservoir rejects returns nil and allocates nothing.
func TestSampledInvokeKeepsReservoirAndRejectsFree(t *testing.T) {
	const limit, n, seed = 64, 20000, 9
	h := NewSampledHistory(sim.New(), limit, seed)
	rng := stats.NewRNG(seed)
	var want []int
	for i := 0; i < n; i++ {
		kept := h.Invoke("c", "write", "k", uint64(i)) != nil
		wantKept := true
		if len(want) < limit {
			want = append(want, i)
		} else if j := rng.Intn(i + 1); j < limit {
			want[j] = i
		} else {
			wantKept = false
		}
		if kept != wantKept {
			t.Fatalf("invocation %d: kept %v, reservoir keeps %v", i, kept, wantKept)
		}
	}
	if h.Seen() != n || h.Len() != limit {
		t.Fatalf("Seen %d, Len %d, want %d and %d", h.Seen(), h.Len(), n, limit)
	}
	for j, op := range h.Ops() {
		if op.ID != want[j] {
			t.Fatalf("slot %d holds op %d, reservoir holds %d", j, op.ID, want[j])
		}
	}
	// Past 20,000 invocations a 64-op reservoir keeps about 3 in 1,000, so
	// nearly every invocation below is rejected; AllocsPerRun truncates its
	// average, and one object per rejection would read 1.
	if got := testing.AllocsPerRun(1000, func() { h.Invoke("c", "write", "k", 0) }); got != 0 {
		t.Fatalf("a rejected invocation allocates %v objects, want 0", got)
	}
}
