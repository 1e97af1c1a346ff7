package trace

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"hyperprof/internal/taxonomy"
)

// breakdownReference is the quadratic breakdown the sweep line replaced: it
// splits the window at every clamped endpoint and tests each interval
// against each elementary segment's midpoint. It is the differential
// reference for BreakdownWithPrecedence on traces whose window is not
// reversed.
func breakdownReference(t *Trace, order [3]Class) Breakdown {
	b := Breakdown{Total: t.End - t.Start}
	if len(t.Intervals) == 0 {
		b.Gap = b.Total
		return b
	}
	points := make([]time.Duration, 0, 2*len(t.Intervals)+2)
	points = append(points, t.Start, t.End)
	for _, iv := range t.Intervals {
		points = append(points, clamp(iv.Start, t.Start, t.End), clamp(iv.End, t.Start, t.End))
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	rank := map[Class]int{order[0]: 0, order[1]: 1, order[2]: 2}
	for i := 0; i+1 < len(points); i++ {
		lo, hi := points[i], points[i+1]
		if hi <= lo {
			continue
		}
		mid := lo + (hi-lo)/2
		best := -1
		for _, iv := range t.Intervals {
			if iv.Start <= mid && mid < iv.End {
				if r := rank[iv.Class]; best == -1 || r < best {
					best = r
				}
			}
		}
		seg := hi - lo
		switch {
		case best == -1:
			b.Gap += seg
		case order[best] == CPU:
			b.CPU += seg
		case order[best] == IO:
			b.IO += seg
		default:
			b.Remote += seg
		}
	}
	return b
}

// randomTrace builds a trace whose intervals mix every shape a breakdown can
// meet: overlapping, nested, zero-length, reversed (Annotate drops those,
// but a trace decoded from JSON keeps them), partly or wholly outside the
// window, and of a class outside the three.
func randomTrace(rng *rand.Rand) *Trace {
	start := time.Duration(rng.Intn(50) - 10)
	t := &Trace{Start: start, End: start + time.Duration(rng.Intn(200))}
	n := rng.Intn(48)
	for i := 0; i < n; i++ {
		s := time.Duration(rng.Intn(300) - 60)
		var e time.Duration
		switch rng.Intn(6) {
		case 0: // zero-length
			e = s
		case 1: // reversed
			e = s - time.Duration(1+rng.Intn(40))
		case 2: // nested in the previous interval, when there is one
			if i > 0 {
				prev := t.Intervals[i-1]
				if prev.End > prev.Start {
					s = prev.Start + time.Duration(rng.Int63n(int64(prev.End-prev.Start)))
					e = s + time.Duration(rng.Int63n(int64(prev.End-s)+1))
					break
				}
			}
			e = s + time.Duration(rng.Intn(80))
		default:
			e = s + time.Duration(rng.Intn(80))
		}
		t.Intervals = append(t.Intervals, Interval{Start: s, End: e, Class: Class(rng.Intn(4))})
	}
	return t
}

// TestBreakdownMatchesQuadraticReference checks the sweep line against the
// quadratic reference on random traces, under the default precedence, every
// permutation of it, and orders that repeat a class or name one outside the
// three.
func TestBreakdownMatchesQuadraticReference(t *testing.T) {
	orders := [][3]Class{
		DefaultPrecedence,
		{Remote, CPU, IO}, {IO, Remote, CPU}, {IO, CPU, Remote}, {CPU, Remote, IO}, {CPU, IO, Remote},
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 4000; i++ {
		tr := randomTrace(rng)
		order := orders[i%len(orders)]
		if i%7 == 0 {
			order = [3]Class{Class(rng.Intn(4)), Class(rng.Intn(4)), Class(rng.Intn(4))}
		}
		got, want := tr.BreakdownWithPrecedence(order), breakdownReference(tr, order)
		if got != want {
			t.Fatalf("trace %d, order %v: sweep %+v, reference %+v\nwindow [%d, %d) intervals %+v",
				i, order, got, want, tr.Start, tr.End, tr.Intervals)
		}
		if got.CPU+got.IO+got.Remote+got.Gap != got.Total {
			t.Fatalf("trace %d: %+v does not sum to its total", i, got)
		}
	}
}

// TestBreakdownReversedWindow pins the breakdown of a trace whose end lies
// before its start (one never finished): it is all gap, so the classes still
// sum to the total.
func TestBreakdownReversedWindow(t *testing.T) {
	tr := &Trace{Start: ms(10), End: ms(4), Intervals: []Interval{{Start: ms(0), End: ms(20), Class: CPU}}}
	if b := tr.ComputeBreakdown(); b != (Breakdown{Gap: -ms(6), Total: -ms(6)}) {
		t.Fatalf("breakdown = %+v", b)
	}
}

// TestBreakdownAllocatesNothing pins the stack buffer: a trace of up to 32
// intervals, more than any Spanner or BigTable trace carries, breaks down
// without a heap allocation.
func TestBreakdownAllocatesNothing(t *testing.T) {
	tr := NewTracer(1)
	tc := tr.Start(taxonomy.Spanner, 0)
	for i := 0; i < 32; i++ {
		s := time.Duration(i) * time.Millisecond
		tc.Annotate(s, s+5*time.Millisecond, Class(i%3))
	}
	tr.Finish(tc, 40*time.Millisecond)
	if n := testing.AllocsPerRun(100, func() { tc.ComputeBreakdown() }); n != 0 {
		t.Fatalf("ComputeBreakdown of %d intervals allocated %v times", len(tc.Intervals), n)
	}
}
