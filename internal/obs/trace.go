package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TraceBuilder accumulates Chrome-tracing events (the JSON array format
// loadable in Perfetto or chrome://tracing) across named tracks. Tracks are
// created on first use and rendered with `"M"` thread_name metadata events,
// so a trace reads "spans", "GPT-3 PredTOP-Tran stage 1" instead of bare
// numeric thread ids. The builder has no clock of its own: every slice
// carries explicit timestamps — a simulated schedule's, or the wall-clock
// interval of a profiler span mirrored by Profiler.AttachTrace — so both kinds
// land on one timeline that starts at 0.
//
// All methods are safe for concurrent use and no-ops on a nil builder.
type TraceBuilder struct {
	mu      sync.Mutex
	traceID string
	tracks  map[string]int
	order   []string
	events  []traceEvent
}

// traceEvent is one Chrome-tracing event; struct (not map) encoding keeps the
// field order stable for golden-file tests.
type traceEvent struct {
	Name  string     `json:"name"`
	Phase string     `json:"ph"`
	TS    float64    `json:"ts"`
	Dur   float64    `json:"dur,omitempty"`
	PID   int        `json:"pid"`
	TID   int        `json:"tid"`
	Args  *traceArgs `json:"args,omitempty"`
}

type traceArgs struct {
	Name    string `json:"name"`
	TraceID string `json:"trace_id,omitempty"`
}

const tracePID = 1

// NewTrace returns an empty builder.
func NewTrace() *TraceBuilder {
	return &TraceBuilder{tracks: map[string]int{}}
}

// SetTraceID stamps the run's trace id onto the trace: Render carries it in
// the process_name metadata event's args, so grepping a trace file for the id
// finds the run. No-op on nil.
func (t *TraceBuilder) SetTraceID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.traceID = id
	t.mu.Unlock()
}

// tid returns the track's thread id, registering it on first use. Caller
// holds t.mu.
func (t *TraceBuilder) tid(track string) int {
	id, ok := t.tracks[track]
	if !ok {
		id = len(t.tracks) + 1
		t.tracks[track] = id
		t.order = append(t.order, track)
	}
	return id
}

// Slice appends a complete ("X") event on the named track with explicit
// timing: startSec seconds from the trace origin, durSec seconds long.
func (t *TraceBuilder) Slice(track, name string, startSec, durSec float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, traceEvent{
		Name: name, Phase: "X",
		TS: startSec * 1e6, Dur: durSec * 1e6,
		PID: tracePID, TID: t.tid(track),
	})
}

// Render writes the trace as a Chrome-tracing JSON array: thread_name
// metadata events first (in track registration order), then every recorded
// event in insertion order, one event per line for diffability.
func (t *TraceBuilder) Render(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]traceEvent, 0, len(t.order)+len(t.events)+1)
	events = append(events, traceEvent{
		Name: "process_name", Phase: "M", PID: tracePID,
		Args: &traceArgs{Name: "predtop", TraceID: t.traceID},
	})
	for _, track := range t.order {
		events = append(events, traceEvent{
			Name: "thread_name", Phase: "M",
			PID: tracePID, TID: t.tracks[track],
			Args: &traceArgs{Name: track},
		})
	}
	events = append(events, t.events...)
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "  %s%s\n", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// Observer bundles the observability outputs a long-running path can report
// to. Every handle is nil-safe, so any field may be nil and the zero Observer
// is fully inert: APIs thread one Observer instead of five optional parameters.
type Observer struct {
	Events *Sink
	Trace  *TraceBuilder
	Prof   *Profiler
	Flight *FlightRecorder
	Ctx    *TraceContext
}
