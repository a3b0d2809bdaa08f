package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// FlightRecorder keeps the last N telemetry events of a run in a fixed-size
// ring buffer so that a crash — worker panic, SIGQUIT, wedged run — can be
// turned into an attributable post-mortem instead of a bare stack. Writers
// append with Note (lock-free slot reservation via an atomic sequence, then a
// per-slot mutex; no heap allocation), and Dump serializes the surviving
// window as JSONL together with all goroutine stacks.
//
// Every event carries the run's TraceContext ids, so a flight dump joins the
// same grep as the metrics exposition, the JSONL event log, and the Chrome
// trace. A nil *FlightRecorder is fully inert.
type FlightRecorder struct {
	slots []flightSlot
	seq   atomic.Uint64
	tc    atomic.Pointer[TraceContext]

	mu       sync.Mutex
	flushers []func()
}

type flightSlot struct {
	mu sync.Mutex
	ev FlightEvent
}

// FlightEvent is one ring-buffer entry. Trace/Span hold the raw 64-bit ids
// (rendered as hex only at dump time, keeping Note allocation-free).
type FlightEvent struct {
	Seq   uint64
	T     int64 // unix nanoseconds
	Trace uint64
	Span  uint64
	Kind  string
	Msg   string
}

// DefaultFlightCapacity is the ring size NewFlightRecorder uses for
// capacity <= 0: comfortably above the ≥64-event post-mortem window the
// acceptance bar asks for, small enough to be cache-resident.
const DefaultFlightCapacity = 256

// NewFlightRecorder returns a recorder keeping the last capacity events
// (capacity <= 0 selects DefaultFlightCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{slots: make([]flightSlot, capacity)}
}

// SetTraceContext attaches the run's trace identity; subsequent Notes carry
// its trace/span ids. Safe to call concurrently with Note. No-op on nil.
func (f *FlightRecorder) SetTraceContext(tc *TraceContext) {
	if f == nil {
		return
	}
	f.tc.Store(tc)
}

// Enabled reports whether the recorder is live — the guard call sites use
// before building a formatted message for Note.
func (f *FlightRecorder) Enabled() bool { return f != nil }

// Note appends one event to the ring, overwriting the oldest when full.
// Allocation-free (kind and msg should be static or pre-built strings); no-op
// on a nil recorder.
func (f *FlightRecorder) Note(kind, msg string) {
	if f == nil {
		return
	}
	seq := f.seq.Add(1) - 1
	slot := &f.slots[seq%uint64(len(f.slots))]
	var trace, span uint64
	if tc := f.tc.Load(); tc != nil {
		trace, span = tc.traceID, tc.spanID
	}
	slot.mu.Lock()
	slot.ev = FlightEvent{Seq: seq, T: time.Now().UnixNano(), Trace: trace, Span: span, Kind: kind, Msg: msg}
	slot.mu.Unlock()
}

// OnDump registers fn to run at the start of every Dump — the hook the event
// sink uses to flush its buffer so the JSONL log is complete before the
// post-mortem is read. No-op on nil.
func (f *FlightRecorder) OnDump(fn func()) {
	if f == nil || fn == nil {
		return
	}
	f.mu.Lock()
	f.flushers = append(f.flushers, fn)
	f.mu.Unlock()
}

// flightRecord is the JSONL shape of one dumped event.
type flightRecord struct {
	Event   string `json:"event"`
	Seq     uint64 `json:"seq"`
	TUnixNs int64  `json:"t_unix_ns"`
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	Kind    string `json:"kind"`
	Msg     string `json:"msg,omitempty"`
}

// Dump writes the recorder's current window as JSONL: a flight_dump header
// (trace id, event count, overwritten-event count), each surviving event in
// sequence order, and a final flight_stacks record carrying every goroutine
// stack. Registered OnDump flushers run first. No-op on nil.
func (f *FlightRecorder) Dump(w io.Writer) error {
	if f == nil || w == nil {
		return nil
	}
	f.mu.Lock()
	flushers := append([]func(){}, f.flushers...)
	f.mu.Unlock()
	for _, fn := range flushers {
		fn()
	}

	// Snapshot the window. Events written concurrently with the snapshot may
	// or may not appear — a post-mortem needs recency, not atomicity.
	total := f.seq.Load()
	n := uint64(len(f.slots))
	start := uint64(0)
	dropped := uint64(0)
	if total > n {
		start = total - n
		dropped = total - n
	}
	events := make([]FlightEvent, 0, total-start)
	for s := start; s < total; s++ {
		slot := &f.slots[s%n]
		slot.mu.Lock()
		ev := slot.ev
		slot.mu.Unlock()
		// A slot whose Seq disagrees holds an event from a lapped-and-not-yet
		// -rewritten generation (the writer reserved s but has not finished);
		// skip it rather than report a stale sequence.
		if ev.Seq == s {
			events = append(events, ev)
		}
	}

	enc := json.NewEncoder(w)
	var traceID string
	if tc := f.tc.Load(); tc != nil {
		traceID = tc.TraceID()
	}
	header := struct {
		Event   string `json:"event"`
		TraceID string `json:"trace_id,omitempty"`
		Events  int    `json:"events"`
		Dropped uint64 `json:"dropped"`
	}{"flight_dump", traceID, len(events), dropped}
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, ev := range events {
		rec := flightRecord{
			Event: "flight_event", Seq: ev.Seq, TUnixNs: ev.T,
			Kind: ev.Kind, Msg: ev.Msg,
		}
		if ev.Trace != 0 {
			rec.TraceID = hex16(ev.Trace)
			rec.SpanID = hex16(ev.Span)
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	stacks := struct {
		Event   string `json:"event"`
		TraceID string `json:"trace_id,omitempty"`
		Stacks  string `json:"stacks"`
	}{"flight_stacks", traceID, string(allStacks())}
	return enc.Encode(stacks)
}

// allStacks returns every goroutine's stack, growing the buffer until
// runtime.Stack fits.
func allStacks() []byte {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// PanicHook returns a hook suitable for parallel.SetPanicHook: it notes the
// panic into the ring and dumps the flight window (plus goroutine stacks) to
// w before the panic is re-raised on the caller's goroutine. Nil-safe — a nil
// recorder yields a nil hook, which parallel treats as "no hook".
func (f *FlightRecorder) PanicHook(w io.Writer) func(recovered any, stack []byte) {
	if f == nil {
		return nil
	}
	return func(recovered any, stack []byte) {
		f.Note("panic", fmt.Sprint(recovered))
		f.Dump(w)
	}
}

// HandleSignals arranges for a SIGQUIT to dump the flight window to w (after
// which the default Go behaviour — process exit with stacks — is restored and
// re-raised). It returns a stop function that uninstalls the handler. No-op
// (returning a no-op stop) on a nil recorder.
func (f *FlightRecorder) HandleSignals(w io.Writer) func() {
	if f == nil || w == nil {
		return func() {}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				f.Note("signal", "SIGQUIT")
				f.Dump(w)
				// Restore default handling and re-raise so the run still
				// exits with the standard Go SIGQUIT stack dump.
				signal.Reset(syscall.SIGQUIT)
				syscall.Kill(syscall.Getpid(), syscall.SIGQUIT)
				return
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
