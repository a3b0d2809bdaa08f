package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Sink streams structured JSONL records — one JSON object per line — to an
// io.Writer. Records are arbitrary json-marshalable values; by convention
// every record carries an "event" field naming its kind (see README
// "Observability" for the schema the cmd tools emit). A nil *Sink discards
// everything, so call sites never need to guard.
//
// Writes are buffered (NewSink wraps the writer in a bufio.Writer), so
// callers must Flush or Close before reading the output; the cmd tools Close
// on exit and the flight recorder flushes before a post-mortem dump. When a
// TraceContext is attached, every emitted object gains leading
// "trace_id"/"span_id" fields, joining the JSONL log to the metric exposition
// and the Chrome trace of the same run.
type Sink struct {
	mu  sync.Mutex
	w   io.Writer
	bw  *bufio.Writer // nil → unbuffered (direct construction, benchmarks)
	err error
	// tracePrefix is the precomputed `"trace_id":"…","span_id":"…",` byte
	// splice inserted after the opening '{' of every record.
	tracePrefix []byte
	flight      *FlightRecorder
}

// NewSink returns a buffered sink writing to w (nil w → nil sink).
func NewSink(w io.Writer) *Sink {
	if w == nil {
		return nil
	}
	return &Sink{w: w, bw: bufio.NewWriter(w)}
}

// SetTraceContext attaches the run's trace identity: every subsequent record
// is emitted with leading "trace_id" and "span_id" fields. Passing nil
// detaches. No-op on a nil sink.
func (s *Sink) SetTraceContext(tc *TraceContext) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if tc == nil {
		s.tracePrefix = nil
		return
	}
	s.tracePrefix = []byte(`"trace_id":"` + tc.TraceID() + `","span_id":"` + tc.SpanID() + `",`)
}

// AttachFlight couples the sink to a flight recorder: each Emit leaves a
// breadcrumb in the ring, and the recorder flushes the sink's buffer before
// any post-mortem dump so the JSONL log on disk is complete. No-op when
// either side is nil.
func (s *Sink) AttachFlight(f *FlightRecorder) {
	if s == nil || f == nil {
		return
	}
	s.mu.Lock()
	s.flight = f
	s.mu.Unlock()
	f.OnDump(func() { s.Flush() })
}

// Emit marshals rec and writes it as one line. The first marshal or write
// error is sticky (later Emits are dropped) and reported by Err. No-op on a
// nil sink.
func (s *Sink) Emit(rec any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		s.err = err
		return
	}
	if len(s.tracePrefix) > 0 && len(b) > 1 && b[0] == '{' {
		spliced := make([]byte, 0, len(b)+len(s.tracePrefix)+1)
		spliced = append(spliced, '{')
		spliced = append(spliced, s.tracePrefix...)
		if b[1] == '}' { // empty object: drop the trailing comma
			spliced = spliced[:len(spliced)-1]
		}
		spliced = append(spliced, b[1:]...)
		b = spliced
	}
	b = append(b, '\n')
	if _, err := s.write(b); err != nil {
		s.err = err
	}
	s.flight.Note("sink", "emit")
}

// write sends b through the buffer when present, directly otherwise. Caller
// holds s.mu.
func (s *Sink) write(b []byte) (int, error) {
	if s.bw != nil {
		return s.bw.Write(b)
	}
	return s.w.Write(b)
}

// Flush forces buffered records to the underlying writer. The first flush
// error is sticky, like Emit errors. Nil-safe.
func (s *Sink) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Sink) flushLocked() error {
	if s.err != nil {
		return s.err
	}
	if s.bw != nil {
		if err := s.bw.Flush(); err != nil {
			s.err = err
		}
	}
	return s.err
}

// Close flushes and returns the sink's terminal error status. It does not
// close the underlying writer (the caller owns it). Nil-safe.
func (s *Sink) Close() error {
	return s.Flush()
}

// Err returns the first error encountered by Emit or Flush (nil on a nil
// sink). Note that with buffering a write error may only surface at Flush.
func (s *Sink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Logger is the minimal leveled replacement for the cmd tools' ad-hoc
// fmt/log prints: Printf-style progress lines that a -quiet flag (or a nil
// logger) silences wholesale. WithTrace derives a logger whose every line is
// prefixed with the run's trace id, joining log output to the other channels.
type Logger struct {
	mu     sync.Mutex
	w      io.Writer
	prefix string
}

// NewLogger returns a logger writing to w, or nil (silent) when quiet is set
// or w is nil.
func NewLogger(w io.Writer, quiet bool) *Logger {
	if quiet || w == nil {
		return nil
	}
	return &Logger{w: w}
}

// WithTrace returns a logger whose lines carry a "[<trace_id>] " prefix.
// With a nil logger or nil tc it returns the receiver unchanged.
func (l *Logger) WithTrace(tc *TraceContext) *Logger {
	if l == nil || tc == nil {
		return l
	}
	return &Logger{w: l.w, prefix: "[" + tc.TraceID() + "] "}
}

// Printf writes one formatted line (a trailing newline is added if missing).
// No-op on a nil logger.
func (l *Logger) Printf(format string, args ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fprintf(l.w, l.prefix+format, args...)
}

// Writer returns the underlying writer, or io.Discard on a nil logger —
// handy for APIs that take a progress io.Writer.
func (l *Logger) Writer() io.Writer {
	if l == nil {
		return io.Discard
	}
	return l.w
}

func fprintf(w io.Writer, format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	if !strings.HasSuffix(s, "\n") {
		s += "\n"
	}
	io.WriteString(w, s)
}
