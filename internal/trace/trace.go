// Package trace is the repository's Dapper equivalent (§4.1): it records,
// per query, the time intervals a worker spent on CPU, on distributed
// storage IO, and blocked on remote work, samples a configurable fraction of
// queries, and computes the end-to-end breakdowns of Figure 2 including the
// paper's overlap precedence rule (overlapped time is categorized first as
// remote work, then IO, then CPU).
package trace

import (
	"cmp"
	"encoding/json"
	"slices"
	"time"

	"hyperprof/internal/taxonomy"
)

// Class is a coarse end-to-end time class (§4.1).
type Class int

// The three end-to-end time classes.
const (
	CPU Class = iota
	IO
	Remote
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case CPU:
		return "CPU"
	case IO:
		return "IO"
	case Remote:
		return "Remote Work"
	}
	return "Unknown"
}

// Interval is one annotated time range within a trace.
type Interval struct {
	Start, End time.Duration
	Class      Class
}

// Trace records one query's end-to-end execution. Annotations on an
// unsampled trace are dropped to keep tracing cheap, as in production Dapper.
type Trace struct {
	ID        uint64
	Platform  taxonomy.Platform
	Start     time.Duration
	End       time.Duration
	Intervals []Interval
	sampled   bool
	finished  bool
}

// Sampled reports whether this trace retains its annotations. A nil trace,
// the one an untraced environment hands out, retains none.
func (t *Trace) Sampled() bool { return t != nil && t.sampled }

// traceJSON is the wire form of a Trace. Traces cross process boundaries
// when a study runs on the exec backend, and the sampling and finish flags
// are unexported, so the round trip is explicit: a decoded trace must
// analyse, export and render exactly like the original.
type traceJSON struct {
	ID        uint64            `json:"id"`
	Platform  taxonomy.Platform `json:"platform"`
	Start     time.Duration     `json:"start"`
	End       time.Duration     `json:"end"`
	Intervals []Interval        `json:"intervals,omitempty"`
	Sampled   bool              `json:"sampled,omitempty"`
	Finished  bool              `json:"finished,omitempty"`
}

// MarshalJSON implements json.Marshaler, carrying the unexported sampling
// state alongside the exported fields.
func (t *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(traceJSON{
		ID: t.ID, Platform: t.Platform, Start: t.Start, End: t.End,
		Intervals: t.Intervals, Sampled: t.sampled, Finished: t.finished,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Trace) UnmarshalJSON(data []byte) error {
	var w traceJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*t = Trace{
		ID: w.ID, Platform: w.Platform, Start: w.Start, End: w.End,
		Intervals: w.Intervals, sampled: w.Sampled, finished: w.Finished,
	}
	return nil
}

// Annotate records that [start, end) was spent in the given class. Reversed
// or empty intervals are ignored. Annotations on unsampled or nil traces are
// dropped.
func (t *Trace) Annotate(start, end time.Duration, c Class) {
	if !t.Sampled() || end <= start {
		return
	}
	t.Intervals = append(t.Intervals, Interval{Start: start, End: end, Class: c})
}

// Tracer creates and collects traces. Sampling is deterministic in the trace
// ID so a run is reproducible: trace k is sampled iff k mod rate == 0.
//
// A nil *Tracer records nothing: Start and StartChild return a nil *Trace,
// Finish ignores it, and Sampled reports no traces. An environment
// whose study reads no traces carries a nil tracer, so its operations pay
// nothing for tracing.
type Tracer struct {
	rate    uint64
	nextID  uint64
	sampled []*Trace
}

// NewTracer creates a tracer keeping one out of every rate traces. The
// paper samples one-thousandth of queries; tests use rate 1 for full
// visibility. rate < 1 is treated as 1.
func NewTracer(rate int) *Tracer {
	if rate < 1 {
		rate = 1
	}
	return &Tracer{rate: uint64(rate)}
}

// Start begins a new trace for a query on the given platform at time now.
func (tr *Tracer) Start(p taxonomy.Platform, now time.Duration) *Trace {
	if tr == nil {
		return nil
	}
	id := tr.nextID
	tr.nextID++
	return &Trace{ID: id, Platform: p, Start: now, sampled: id%tr.rate == 0}
}

// StartChild begins a stage span that continues an existing logical request
// on another platform: the child shares the parent's trace ID and sampling
// decision, so the Chrome export renders every stage of one request at the
// same thread id across the platforms' process lanes — one end-to-end span
// crossing system boundaries. No new ID is allocated; the child is finished
// and collected independently of its parent.
func (tr *Tracer) StartChild(parent *Trace, p taxonomy.Platform, now time.Duration) *Trace {
	if tr == nil {
		return nil
	}
	return &Trace{ID: parent.ID, Platform: p, Start: now, sampled: parent.sampled}
}

// Finish marks the trace complete at time now and retains it if sampled.
func (tr *Tracer) Finish(t *Trace, now time.Duration) {
	if tr == nil || t.finished {
		return
	}
	t.finished = true
	t.End = now
	if t.sampled {
		tr.sampled = append(tr.sampled, t)
	}
}

// Sampled returns the retained traces in completion order.
func (tr *Tracer) Sampled() []*Trace {
	if tr == nil {
		return nil
	}
	return tr.sampled
}

// Breakdown is a trace's end-to-end time split into the three classes plus
// any uncovered gap (time not annotated at all, e.g. client-side queueing).
type Breakdown struct {
	CPU, IO, Remote, Gap time.Duration
	Total                time.Duration
}

// Frac returns the fraction of total time in the given class; gap time is
// folded into CPU, matching the paper's three-way normalization. A zero-total
// breakdown returns 0.
func (b Breakdown) Frac(c Class) float64 {
	if b.Total == 0 {
		return 0
	}
	var v time.Duration
	switch c {
	case CPU:
		v = b.CPU + b.Gap
	case IO:
		v = b.IO
	case Remote:
		v = b.Remote
	}
	return float64(v) / float64(b.Total)
}

// DefaultPrecedence is the paper's §4.1 rule: overlapped time is remote work
// first, then IO, then CPU.
var DefaultPrecedence = [3]Class{Remote, IO, CPU}

// ComputeBreakdown computes the trace's breakdown under the default
// precedence.
func (t *Trace) ComputeBreakdown() Breakdown {
	return t.BreakdownWithPrecedence(DefaultPrecedence)
}

// BreakdownWithPrecedence computes the breakdown with an explicit precedence
// order (order[0] wins overlaps), used by the precedence ablation study.
//
// It sweeps once over the intervals' endpoints, clamped to the trace window,
// in time order, keeping how many intervals of each precedence rank are open:
// each stretch between consecutive endpoints goes to the best rank open over
// it, or to Gap when none is. Intervals that are empty or reversed once
// clamped cover nothing, and an interval of a class order does not name
// counts as order[0]. A trace with no intervals, or whose window is empty or
// reversed (End before Start: a trace never finished), is all Gap.
func (t *Trace) BreakdownWithPrecedence(order [3]Class) Breakdown {
	b := Breakdown{Total: t.End - t.Start}
	if len(t.Intervals) == 0 || b.Total <= 0 {
		b.Gap = b.Total
		return b
	}
	// Two edges per interval; the buffer keeps a trace of up to 32 intervals
	// off the heap.
	var buf [64]edge
	edges := buf[:0]
	for _, iv := range t.Intervals {
		lo, hi := clamp(iv.Start, t.Start, t.End), clamp(iv.End, t.Start, t.End)
		if hi <= lo {
			continue
		}
		r := rankOf(order, iv.Class)
		edges = append(edges, edge{at: lo, rank: r, delta: 1}, edge{at: hi, rank: r, delta: -1})
	}
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
	var open [3]int
	prev := t.Start
	for i := 0; i < len(edges); {
		at := edges[i].at
		if seg := at - prev; seg > 0 {
			switch {
			case open[0] > 0:
				b.add(order[0], seg)
			case open[1] > 0:
				b.add(order[1], seg)
			case open[2] > 0:
				b.add(order[2], seg)
			default:
				b.Gap += seg
			}
			prev = at
		}
		for ; i < len(edges) && edges[i].at == at; i++ {
			open[edges[i].rank] += int(edges[i].delta)
		}
	}
	// Every interval has closed by its clamped end, so the rest of the
	// window is uncovered.
	b.Gap += t.End - prev
	return b
}

// edge is an interval's clamped start (delta +1) or end (delta -1), tagged
// with the interval's precedence rank.
type edge struct {
	at    time.Duration
	rank  int8
	delta int8
}

// rankOf returns c's precedence rank: its last position in order, or 0 when
// order does not name it.
func rankOf(order [3]Class, c Class) int8 {
	var r int8
	for i, o := range order {
		if o == c {
			r = int8(i)
		}
	}
	return r
}

// add credits seg to class c; a class other than CPU or IO counts as remote
// work.
func (b *Breakdown) add(c Class, seg time.Duration) {
	switch c {
	case CPU:
		b.CPU += seg
	case IO:
		b.IO += seg
	default:
		b.Remote += seg
	}
}

func clamp(v, lo, hi time.Duration) time.Duration {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Group is a Figure 2 query group.
type Group string

// The paper's §4.2 query groups.
const (
	GroupCPUHeavy    Group = "CPU Heavy"
	GroupIOHeavy     Group = "IO Heavy"
	GroupRemoteHeavy Group = "Remote Work Heavy"
	GroupOthers      Group = "Others"
	GroupOverall     Group = "Overall Average"
)

// Groups lists the Figure 2 groups in presentation order.
func Groups() []Group {
	return []Group{GroupCPUHeavy, GroupIOHeavy, GroupRemoteHeavy, GroupOthers, GroupOverall}
}

// GroupOf classifies a breakdown per §4.2: CPU heavy when >60% of time is
// CPU; otherwise IO (resp. remote) heavy when >30% of time is distributed
// storage (resp. remote work); otherwise Others.
func GroupOf(b Breakdown) Group {
	switch {
	case b.Frac(CPU) > 0.60:
		return GroupCPUHeavy
	case b.Frac(IO) > 0.30:
		return GroupIOHeavy
	case b.Frac(Remote) > 0.30:
		return GroupRemoteHeavy
	default:
		return GroupOthers
	}
}

// GroupStats aggregates breakdowns for one query group.
type GroupStats struct {
	Group      Group
	Queries    int
	QueryFrac  float64 // fraction of all sampled queries in this group
	CPUFrac    float64 // mean fraction of end-to-end time on CPU
	IOFrac     float64
	RemoteFrac float64
}

// Aggregate computes per-group statistics (the content of Figure 2) over a
// set of traces, including the overall average as the final row.
func Aggregate(traces []*Trace) []GroupStats {
	type acc struct {
		n               int
		cpu, io, remote float64
	}
	accs := map[Group]*acc{}
	for _, g := range Groups() {
		accs[g] = &acc{}
	}
	for _, t := range traces {
		b := t.ComputeBreakdown()
		for _, g := range []Group{GroupOf(b), GroupOverall} {
			a := accs[g]
			a.n++
			a.cpu += b.Frac(CPU)
			a.io += b.Frac(IO)
			a.remote += b.Frac(Remote)
		}
	}
	total := accs[GroupOverall].n
	out := make([]GroupStats, 0, len(accs))
	for _, g := range Groups() {
		a := accs[g]
		gs := GroupStats{Group: g, Queries: a.n}
		if a.n > 0 {
			gs.CPUFrac = a.cpu / float64(a.n)
			gs.IOFrac = a.io / float64(a.n)
			gs.RemoteFrac = a.remote / float64(a.n)
		}
		if total > 0 && g != GroupOverall {
			gs.QueryFrac = float64(a.n) / float64(total)
		} else if g == GroupOverall {
			gs.QueryFrac = 1
		}
		out = append(out, gs)
	}
	return out
}
