package trace

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"hyperprof/internal/taxonomy"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func newSampledTrace(t *testing.T) (*Tracer, *Trace) {
	t.Helper()
	tr := NewTracer(1)
	tc := tr.Start(taxonomy.Spanner, 0)
	if !tc.Sampled() {
		t.Fatal("rate-1 trace not sampled")
	}
	return tr, tc
}

func TestBreakdownDisjointIntervals(t *testing.T) {
	tr, tc := newSampledTrace(t)
	tc.Annotate(ms(0), ms(4), CPU)
	tc.Annotate(ms(4), ms(7), IO)
	tc.Annotate(ms(7), ms(10), Remote)
	tr.Finish(tc, ms(10))
	b := tc.ComputeBreakdown()
	if b.CPU != ms(4) || b.IO != ms(3) || b.Remote != ms(3) || b.Gap != 0 {
		t.Fatalf("breakdown = %+v", b)
	}
	if b.Total != ms(10) {
		t.Fatalf("total = %v", b.Total)
	}
}

func TestBreakdownOverlapPrecedence(t *testing.T) {
	// CPU covers the whole query; IO covers [2,6); remote covers [4,8).
	// Paper precedence: remote wins its whole range, IO only its
	// non-remote part, CPU the rest.
	tr, tc := newSampledTrace(t)
	tc.Annotate(ms(0), ms(10), CPU)
	tc.Annotate(ms(2), ms(6), IO)
	tc.Annotate(ms(4), ms(8), Remote)
	tr.Finish(tc, ms(10))
	b := tc.ComputeBreakdown()
	if b.Remote != ms(4) {
		t.Errorf("remote = %v, want 4ms", b.Remote)
	}
	if b.IO != ms(2) {
		t.Errorf("io = %v, want 2ms", b.IO)
	}
	if b.CPU != ms(4) {
		t.Errorf("cpu = %v, want 4ms", b.CPU)
	}
}

func TestBreakdownCPUFirstPrecedenceAblation(t *testing.T) {
	tr, tc := newSampledTrace(t)
	tc.Annotate(ms(0), ms(10), CPU)
	tc.Annotate(ms(0), ms(10), Remote)
	tr.Finish(tc, ms(10))
	def := tc.ComputeBreakdown()
	if def.Remote != ms(10) || def.CPU != 0 {
		t.Fatalf("default precedence: %+v", def)
	}
	alt := tc.BreakdownWithPrecedence([3]Class{CPU, IO, Remote})
	if alt.CPU != ms(10) || alt.Remote != 0 {
		t.Fatalf("cpu-first precedence: %+v", alt)
	}
}

func TestBreakdownGap(t *testing.T) {
	tr, tc := newSampledTrace(t)
	tc.Annotate(ms(2), ms(4), CPU)
	tr.Finish(tc, ms(10))
	b := tc.ComputeBreakdown()
	if b.Gap != ms(8) || b.CPU != ms(2) {
		t.Fatalf("breakdown = %+v", b)
	}
	// Gap folds into the CPU fraction.
	if f := b.Frac(CPU); f != 1.0 {
		t.Fatalf("cpu frac with gap = %v", f)
	}
}

func TestBreakdownEmptyTrace(t *testing.T) {
	tr, tc := newSampledTrace(t)
	tr.Finish(tc, ms(5))
	b := tc.ComputeBreakdown()
	if b.Gap != ms(5) || b.CPU != 0 || b.Total != ms(5) {
		t.Fatalf("breakdown = %+v", b)
	}
}

func TestBreakdownIntervalsClampedToTraceWindow(t *testing.T) {
	tr, tc := newSampledTrace(t)
	tc.Annotate(ms(-5), ms(20), IO) // overshoots both ends
	tr.Finish(tc, ms(10))
	b := tc.ComputeBreakdown()
	if b.IO != ms(10) || b.Total != ms(10) {
		t.Fatalf("breakdown = %+v", b)
	}
}

func TestAnnotateIgnoresEmptyAndReversed(t *testing.T) {
	_, tc := newSampledTrace(t)
	tc.Annotate(ms(5), ms(5), CPU)
	tc.Annotate(ms(7), ms(3), IO)
	if len(tc.Intervals) != 0 {
		t.Fatalf("intervals = %v", tc.Intervals)
	}
}

func TestBreakdownConservation(t *testing.T) {
	// Property: CPU + IO + Remote + Gap == Total for arbitrary annotations.
	if err := quick.Check(func(raw []uint16) bool {
		tr := NewTracer(1)
		tc := tr.Start(taxonomy.BigQuery, 0)
		for i := 0; i+1 < len(raw); i += 2 {
			s := time.Duration(raw[i]%1000) * time.Microsecond
			e := time.Duration(raw[i+1]%1000) * time.Microsecond
			tc.Annotate(s, e, Class(i/2%3))
		}
		tr.Finish(tc, time.Millisecond)
		b := tc.ComputeBreakdown()
		return b.CPU+b.IO+b.Remote+b.Gap == b.Total
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplingRate(t *testing.T) {
	tr := NewTracer(10)
	for i := 0; i < 1000; i++ {
		tc := tr.Start(taxonomy.BigTable, 0)
		tr.Finish(tc, ms(1))
	}
	if tr.Total() != 1000 {
		t.Fatalf("total = %d", tr.Total())
	}
	if got := len(tr.Sampled()); got != 100 {
		t.Fatalf("sampled = %d, want 100", got)
	}
}

func TestUnsampledTraceDropsAnnotations(t *testing.T) {
	tr := NewTracer(2)
	_ = tr.Start(taxonomy.Spanner, 0) // id 0: sampled
	tc := tr.Start(taxonomy.Spanner, 0)
	if tc.Sampled() {
		t.Fatal("id 1 with rate 2 should be unsampled")
	}
	tc.Annotate(ms(0), ms(5), CPU)
	if len(tc.Intervals) != 0 {
		t.Fatal("unsampled trace retained annotations")
	}
	tr.Finish(tc, ms(5))
	if len(tr.Sampled()) != 0 {
		t.Fatal("unsampled trace retained by tracer")
	}
}

func TestFinishIdempotent(t *testing.T) {
	tr, tc := newSampledTrace(t)
	tr.Finish(tc, ms(5))
	tr.Finish(tc, ms(9))
	if tc.End != ms(5) {
		t.Fatalf("end = %v", tc.End)
	}
	if len(tr.Sampled()) != 1 {
		t.Fatalf("sampled = %d", len(tr.Sampled()))
	}
}

func TestGroupOf(t *testing.T) {
	mk := func(cpu, io, remote int) Breakdown {
		return Breakdown{CPU: ms(cpu), IO: ms(io), Remote: ms(remote), Total: ms(cpu + io + remote)}
	}
	cases := []struct {
		b    Breakdown
		want Group
	}{
		{mk(70, 20, 10), GroupCPUHeavy},
		{mk(30, 40, 30), GroupIOHeavy},
		{mk(30, 20, 50), GroupRemoteHeavy},
		{mk(50, 25, 25), GroupOthers},
		{mk(61, 35, 4), GroupCPUHeavy}, // CPU check comes first
	}
	for i, c := range cases {
		if got := GroupOf(c.b); got != c.want {
			t.Errorf("case %d: got %q want %q", i, got, c.want)
		}
	}
}

func TestAggregate(t *testing.T) {
	tr := NewTracer(1)
	// Two CPU-heavy queries and one remote-heavy query.
	for i := 0; i < 2; i++ {
		tc := tr.Start(taxonomy.Spanner, 0)
		tc.Annotate(ms(0), ms(8), CPU)
		tc.Annotate(ms(8), ms(10), Remote)
		tr.Finish(tc, ms(10))
	}
	tc := tr.Start(taxonomy.Spanner, 0)
	tc.Annotate(ms(0), ms(2), CPU)
	tc.Annotate(ms(2), ms(10), Remote)
	tr.Finish(tc, ms(10))

	rows := Aggregate(tr.Sampled())
	byGroup := map[Group]GroupStats{}
	for _, r := range rows {
		byGroup[r.Group] = r
	}
	if g := byGroup[GroupCPUHeavy]; g.Queries != 2 || math.Abs(g.QueryFrac-2.0/3) > 1e-9 {
		t.Fatalf("cpu heavy: %+v", g)
	}
	if g := byGroup[GroupRemoteHeavy]; g.Queries != 1 {
		t.Fatalf("remote heavy: %+v", g)
	}
	ov := byGroup[GroupOverall]
	if ov.Queries != 3 {
		t.Fatalf("overall: %+v", ov)
	}
	wantCPU := (0.8 + 0.8 + 0.2) / 3
	if math.Abs(ov.CPUFrac-wantCPU) > 1e-9 {
		t.Fatalf("overall cpu frac = %v, want %v", ov.CPUFrac, wantCPU)
	}
	// Each group's fractions sum to ~1.
	for _, r := range rows {
		if r.Queries == 0 {
			continue
		}
		if s := r.CPUFrac + r.IOFrac + r.RemoteFrac; math.Abs(s-1) > 1e-9 {
			t.Errorf("group %q fractions sum to %v", r.Group, s)
		}
	}
}

func TestAggregateEmpty(t *testing.T) {
	rows := Aggregate(nil)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Queries != 0 || r.CPUFrac != 0 {
			t.Fatalf("row %+v should be zero", r)
		}
	}
}

func TestClassString(t *testing.T) {
	if CPU.String() != "CPU" || IO.String() != "IO" || Remote.String() != "Remote Work" || Class(9).String() != "Unknown" {
		t.Fatal("class strings")
	}
}

// TestNilTracerRecordsNothing pins the untraced environment: every method of
// a nil *Tracer, and of the nil *Trace it hands out, is a no-op that
// allocates nothing.
func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	var tc *Trace
	allocs := testing.AllocsPerRun(100, func() {
		tc = tr.Start(taxonomy.Spanner, ms(1))
		child := tr.StartChild(tc, taxonomy.BigQuery, ms(2))
		tc.Annotate(ms(1), ms(3), CPU)
		child.Annotate(ms(2), ms(3), Remote)
		tr.Finish(child, ms(3))
		tr.Finish(tc, ms(4))
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %v times per op", allocs)
	}
	if tc != nil || tc.Sampled() {
		t.Fatalf("nil tracer started trace %+v", tc)
	}
	if tr.Total() != 0 || tr.Sampled() != nil {
		t.Fatalf("nil tracer reports %d traces, %d sampled", tr.Total(), len(tr.Sampled()))
	}
}
