package trace

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"hyperprof/internal/taxonomy"
)

func TestOverlapDisjoint(t *testing.T) {
	tr, tc := newSampledTrace(t)
	tc.Annotate(ms(0), ms(4), CPU)
	tc.Annotate(ms(4), ms(10), IO)
	tr.Finish(tc, ms(10))
	o := tc.ComputeOverlap()
	if o.CPUUnion != ms(4) || o.DepUnion != ms(6) || o.Intersection != 0 {
		t.Fatalf("overlap = %+v", o)
	}
	if o.F() != 1 {
		t.Fatalf("f = %v, want 1 (serial)", o.F())
	}
}

func TestOverlapFull(t *testing.T) {
	tr, tc := newSampledTrace(t)
	tc.Annotate(ms(0), ms(10), CPU)
	tc.Annotate(ms(2), ms(6), Remote)
	tr.Finish(tc, ms(10))
	o := tc.ComputeOverlap()
	if o.Intersection != ms(4) {
		t.Fatalf("intersection = %v", o.Intersection)
	}
	// Dep (4ms) is fully hidden under CPU: f = 0.
	if o.F() != 0 {
		t.Fatalf("f = %v, want 0", o.F())
	}
}

func TestOverlapPartial(t *testing.T) {
	tr, tc := newSampledTrace(t)
	tc.Annotate(ms(0), ms(6), CPU)
	tc.Annotate(ms(4), ms(10), IO)
	tr.Finish(tc, ms(10))
	o := tc.ComputeOverlap()
	if o.Intersection != ms(2) {
		t.Fatalf("intersection = %v", o.Intersection)
	}
	// min(cpu, dep) = 6ms, 2ms overlapped: f = 2/3.
	if math.Abs(o.F()-2.0/3) > 1e-9 {
		t.Fatalf("f = %v", o.F())
	}
}

func TestOverlapMergesFragmentedIntervals(t *testing.T) {
	tr, tc := newSampledTrace(t)
	// Overlapping CPU fragments must not double count.
	tc.Annotate(ms(0), ms(5), CPU)
	tc.Annotate(ms(3), ms(8), CPU)
	tc.Annotate(ms(0), ms(8), IO)
	tr.Finish(tc, ms(8))
	o := tc.ComputeOverlap()
	if o.CPUUnion != ms(8) || o.Intersection != ms(8) {
		t.Fatalf("overlap = %+v", o)
	}
}

func TestOverlapEmptyTrace(t *testing.T) {
	tr, tc := newSampledTrace(t)
	tr.Finish(tc, ms(5))
	if f := tc.ComputeOverlap().F(); f != 1 {
		t.Fatalf("empty trace f = %v", f)
	}
}

func TestMeanF(t *testing.T) {
	tr := NewTracer(1)
	// Trace 1 (10ms): serial, f=1.
	t1 := tr.Start(taxonomy.Spanner, 0)
	t1.Annotate(ms(0), ms(5), CPU)
	t1.Annotate(ms(5), ms(10), IO)
	tr.Finish(t1, ms(10))
	// Trace 2 (10ms): fully overlapped, f=0.
	t2 := tr.Start(taxonomy.Spanner, 0)
	t2.Annotate(ms(0), ms(10), CPU)
	t2.Annotate(ms(0), ms(10), IO)
	tr.Finish(t2, ms(10))
	if got := MeanF(tr.Sampled()); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("mean f = %v, want 0.5", got)
	}
	if MeanF(nil) != 1 {
		t.Fatal("empty mean f should be 1")
	}
}

func TestIntersectLenSweep(t *testing.T) {
	a := []Interval{{Start: 0, End: ms(4)}, {Start: ms(6), End: ms(8)}}
	b := []Interval{{Start: ms(2), End: ms(7)}}
	if got := intersectLen(a, b); got != ms(3) {
		t.Fatalf("intersect = %v, want 3ms", got)
	}
	if got := intersectLen(nil, b); got != 0 {
		t.Fatalf("nil intersect = %v", got)
	}
}

func TestOverlapDurationConsistency(t *testing.T) {
	// Property-ish check: intersection <= min(cpu, dep) always.
	tr, tc := newSampledTrace(t)
	for i := 0; i < 20; i++ {
		s := time.Duration(i) * time.Millisecond / 2
		tc.Annotate(s, s+ms(3), Class(i%3))
	}
	tr.Finish(tc, ms(15))
	o := tc.ComputeOverlap()
	min := o.CPUUnion
	if o.DepUnion < min {
		min = o.DepUnion
	}
	if o.Intersection > min {
		t.Fatalf("intersection %v exceeds min union %v", o.Intersection, min)
	}
}

func TestExportChrome(t *testing.T) {
	tr := NewTracer(1)
	for q := 0; q < 3; q++ {
		tc := tr.Start(taxonomy.Spanner, 0)
		tc.Annotate(0, ms(2), CPU)
		tc.Annotate(ms(2), ms(5), IO)
		tr.Finish(tc, ms(5))
	}
	tc := tr.Start(taxonomy.BigQuery, 0)
	tc.Annotate(0, ms(9), Remote)
	tr.Finish(tc, ms(9))

	b := NewChromeBuilder()
	b.AddTraces(tr.Sampled(), 0)
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	// 2 process metadata + 4 thread metadata + 7 intervals.
	if len(events) != 13 {
		t.Fatalf("events = %d", len(events))
	}
	names := map[string]int{}
	for _, e := range events {
		names[e["name"].(string)]++
	}
	if names["CPU"] != 3 || names["IO"] != 3 || names["Remote Work"] != 1 {
		t.Fatalf("interval names = %v", names)
	}
	if names["process_name"] != 2 {
		t.Fatalf("process metadata = %d", names["process_name"])
	}
	// Limit caps exported traces.
	b = NewChromeBuilder()
	b.AddTraces(tr.Sampled(), 1)
	capped, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var one []map[string]interface{}
	json.Unmarshal(capped, &one)
	if len(one) != 4 { // 1 process + 1 thread + 2 intervals
		t.Fatalf("capped events = %d", len(one))
	}
}

func TestExportChromeMarks(t *testing.T) {
	tr := NewTracer(1)
	tc := tr.Start(taxonomy.Spanner, 0)
	tc.Annotate(0, ms(2), CPU)
	tr.Finish(tc, ms(2))

	marks := []Mark{
		{At: ms(1), Name: "crash spanner/g0/r1"},
		{At: ms(4), Name: "recover spanner/g0/r1"},
	}
	b := NewChromeBuilder()
	b.AddMarks(marks)
	b.AddTraces(tr.Sampled(), 0)
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	instants := 0
	for _, e := range events {
		if e["ph"] == "i" {
			instants++
			if e["s"] != "g" {
				t.Fatalf("instant scope = %v, want global", e["s"])
			}
		}
	}
	if instants != 2 {
		t.Fatalf("instant events = %d, want 2", instants)
	}
}
