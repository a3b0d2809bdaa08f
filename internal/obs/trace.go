package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceBuilder accumulates Chrome-tracing events (the JSON array format
// loadable in Perfetto or chrome://tracing) across named tracks. Tracks are
// created on first use and rendered with `"M"` thread_name metadata events,
// so a trace reads "epochs", "stage 1", "PredTOP-Tran" instead of bare
// numeric thread ids. Slices carry explicit timestamps (simulated schedules,
// cumulative training wall time); Begin/End spans use wall-clock time since
// the builder was created, so both kinds land on one coherent timeline.
//
// All methods are safe for concurrent use and no-ops on a nil builder.
type TraceBuilder struct {
	mu      sync.Mutex
	epoch   time.Time
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

// NewTrace returns an empty builder; its wall-clock origin (for Begin/End
// spans) is the moment of creation.
func NewTrace() *TraceBuilder {
	return &TraceBuilder{epoch: time.Now(), tracks: map[string]int{}}
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

// Instant appends an instant ("i") event at now on the named track (e.g. an
// early-stop marker).
func (t *TraceBuilder) Instant(track, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, traceEvent{
		Name: name, Phase: "i",
		TS:  time.Since(t.epoch).Seconds() * 1e6,
		PID: tracePID, TID: t.tid(track),
	})
}

// Since returns seconds elapsed since the trace origin (0 on nil) — the time
// base explicit Slices should offset from when mixing with Begin/End spans.
func (t *TraceBuilder) Since() float64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Seconds()
}

// Begin opens a wall-clock span on the named track; the returned TraceSpan's
// End appends the completed slice. An inert TraceSpan (nil builder) costs
// nothing.
func (t *TraceBuilder) Begin(track, name string) TraceSpan {
	if t == nil {
		return TraceSpan{}
	}
	return TraceSpan{t: t, track: track, name: name, start: time.Since(t.epoch)}
}

// TraceSpan is an in-flight wall-clock trace slice (see TraceBuilder.Begin).
// Unlike the hierarchical Span (span.go), it records a single timeline slice
// and performs no aggregation.
type TraceSpan struct {
	t           *TraceBuilder
	track, name string
	start       time.Duration
}

// End completes the span. No-op on an inert span.
func (s TraceSpan) End() {
	if s.t == nil {
		return
	}
	end := time.Since(s.t.epoch)
	s.t.Slice(s.track, s.name, s.start.Seconds(), (end - s.start).Seconds())
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
// to. Any field — or the Observer itself — may be nil; the accessor methods
// make a nil Observer fully inert, so APIs thread a single *Observer instead
// of four optional parameters.
type Observer struct {
	Events *Sink
	Trace  *TraceBuilder
	Prof   *Profiler
	Acc    *AccuracyMonitor
	Flight *FlightRecorder
	Ctx    *TraceContext
}

// Sink returns the event sink (nil when absent).
func (o *Observer) Sink() *Sink {
	if o == nil {
		return nil
	}
	return o.Events
}

// Tracer returns the trace builder (nil when absent).
func (o *Observer) Tracer() *TraceBuilder {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Profiler returns the span profiler (nil when absent).
func (o *Observer) Profiler() *Profiler {
	if o == nil {
		return nil
	}
	return o.Prof
}

// Accuracy returns the accuracy monitor (nil when absent).
func (o *Observer) Accuracy() *AccuracyMonitor {
	if o == nil {
		return nil
	}
	return o.Acc
}

// Recorder returns the flight recorder (nil when absent).
func (o *Observer) Recorder() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.Flight
}

// TraceContext returns the run's trace context (nil when absent).
func (o *Observer) TraceContext() *TraceContext {
	if o == nil {
		return nil
	}
	return o.Ctx
}
