package trace

import (
	"encoding/json"
	"fmt"
	"time"
)

// This file exports sampled traces in the Chrome trace-event format so a
// simulated run can be inspected visually in chrome://tracing or Perfetto:
// one row per query with its CPU, IO and remote-work intervals as complete
// events, timeline marks (faults, violations) as instant events, and metric
// time series as counter tracks.

// chromeEvent is one entry of the Chrome trace-event JSON array format.
type chromeEvent struct {
	Name     string         `json:"name"`
	Phase    string         `json:"ph"`
	Scope    string         `json:"s,omitempty"`
	TsMicros float64        `json:"ts"`
	DurUs    float64        `json:"dur,omitempty"`
	PID      int            `json:"pid"`
	TID      uint64         `json:"tid"`
	Args     map[string]any `json:"args,omitempty"`
}

// Mark is a point annotation on the simulation timeline — typically an
// injected fault event — rendered as a global instant event so it cuts
// across every process row in the viewer.
type Mark struct {
	At   time.Duration
	Name string
}

// CounterPoint is one sample of a counter track.
type CounterPoint struct {
	At    time.Duration
	Value int64
}

// CounterTrack is one metric time series destined for a Chrome counter
// ('C') track, grouped under the named process row.
type CounterTrack struct {
	// Process is the process row the track renders under (typically the
	// platform name, so metrics sit next to that platform's query traces).
	Process string
	// Name is the track label.
	Name string
	// Points is the series, in ascending time order.
	Points []CounterPoint
}

// ChromeBuilder accumulates trace intervals, timeline marks and counter
// tracks into one Chrome trace-event document with a single process-id
// allocation scheme: every process row — platforms, the mark timeline,
// counter-track groups — gets its pid from the same allocator, so emitters
// can never collide. (Marks previously hardcoded pid 1, which is the first
// pid the allocator hands out to a platform; a document combining both would
// have interleaved fault marks into that platform's row.)
type ChromeBuilder struct {
	events []chromeEvent
	pids   map[string]int
}

// NewChromeBuilder returns an empty builder.
func NewChromeBuilder() *ChromeBuilder {
	return &ChromeBuilder{pids: map[string]int{}}
}

// pid returns the process id for a named process row, allocating it and
// emitting the process_name metadata event on first use.
func (b *ChromeBuilder) pid(process string) int {
	if id, ok := b.pids[process]; ok {
		return id
	}
	id := len(b.pids) + 1
	b.pids[process] = id
	b.events = append(b.events, chromeEvent{
		Name:  "process_name",
		Phase: "M",
		PID:   id,
		Args:  map[string]any{"name": process},
	})
	return id
}

// AddMarks adds timeline marks as global instant ('i') events under a
// dedicated "timeline" process row.
func (b *ChromeBuilder) AddMarks(marks []Mark) {
	if len(marks) == 0 {
		return
	}
	pid := b.pid("timeline")
	for _, m := range marks {
		b.events = append(b.events, chromeEvent{
			Name:     m.Name,
			Phase:    "i",
			Scope:    "g",
			TsMicros: float64(m.At.Microseconds()),
			PID:      pid,
		})
	}
}

// AddTraces adds sampled query traces: each platform becomes a process, each
// query a thread whose intervals appear as complete ('X') events. The limit
// caps exported traces (0 = all).
func (b *ChromeBuilder) AddTraces(traces []*Trace, limit int) {
	count := 0
	for _, t := range traces {
		if limit > 0 && count >= limit {
			break
		}
		count++
		pid := b.pid(string(t.Platform))
		bd := t.ComputeBreakdown()
		b.events = append(b.events, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   pid,
			TID:   t.ID,
			Args: map[string]any{
				"name": fmt.Sprintf("query %d (%s)", t.ID, GroupOf(bd)),
			},
		})
		for _, iv := range t.Intervals {
			b.events = append(b.events, chromeEvent{
				Name:     iv.Class.String(),
				Phase:    "X",
				TsMicros: float64(iv.Start.Microseconds()),
				DurUs:    float64((iv.End - iv.Start).Microseconds()),
				PID:      pid,
				TID:      t.ID,
			})
		}
	}
}

// AddCounters adds metric time series as counter ('C') events; the viewer
// renders each track as a filled step chart under its process row.
func (b *ChromeBuilder) AddCounters(tracks []CounterTrack) {
	for _, tr := range tracks {
		pid := b.pid(tr.Process)
		for _, pt := range tr.Points {
			b.events = append(b.events, chromeEvent{
				Name:     tr.Name,
				Phase:    "C",
				TsMicros: float64(pt.At.Microseconds()),
				PID:      pid,
				Args:     map[string]any{"value": pt.Value},
			})
		}
	}
}

// Marshal renders the accumulated document.
func (b *ChromeBuilder) Marshal() ([]byte, error) {
	return json.MarshalIndent(b.events, "", " ")
}
