package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestSinkEmitsJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	type rec struct {
		Event string  `json:"event"`
		Epoch int     `json:"epoch"`
		Loss  float64 `json:"loss"`
	}
	s.Emit(rec{"epoch", 1, 0.5})
	s.Emit(rec{"epoch", 2, 0.25})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	for i, line := range lines {
		var got rec
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d invalid: %v", i, err)
		}
		if got.Event != "epoch" || got.Epoch != i+1 {
			t.Fatalf("line %d: %+v", i, got)
		}
	}
}

func TestSinkTracePrefix(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	tc := NewTraceContext(42, "test")
	s.SetTraceContext(tc)
	s.Emit(struct {
		Event string `json:"event"`
	}{"x"})
	s.Emit(struct{}{}) // empty object must stay valid JSON
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	for i, line := range lines {
		var got map[string]any
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d invalid after splice: %v (%q)", i, err, line)
		}
		if got["trace_id"] != tc.TraceID() || got["span_id"] != tc.SpanID() {
			t.Fatalf("line %d missing trace identity: %q", i, line)
		}
	}
	if !strings.HasPrefix(lines[0], `{"trace_id":"`) {
		t.Fatalf("trace_id must lead the record: %q", lines[0])
	}

	// Detaching stops the splice.
	buf.Reset()
	s2 := NewSink(&buf)
	s2.SetTraceContext(tc)
	s2.SetTraceContext(nil)
	s2.Emit(struct {
		Event string `json:"event"`
	}{"y"})
	s2.Close()
	if strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("detached sink still stamps trace_id: %q", buf.String())
	}
}

func TestNilSinkAndLogger(t *testing.T) {
	var s *Sink
	s.Emit(map[string]int{"a": 1})
	s.SetTraceContext(NewTraceContext(1, "x"))
	s.AttachFlight(NewFlightRecorder(8))
	if s.Err() != nil || s.Flush() != nil || s.Close() != nil {
		t.Fatal("nil sink must not error")
	}
	if NewSink(nil) != nil {
		t.Fatal("NewSink(nil) must be nil")
	}

	var l *Logger
	l.Printf("dropped %d", 1)
	if l.WithTrace(NewTraceContext(1, "x")) != nil {
		t.Fatal("nil logger WithTrace must stay nil")
	}
	if l.Writer() == nil {
		t.Fatal("nil logger Writer must be io.Discard, not nil")
	}
	if NewLogger(nil, false) != nil || NewLogger(&bytes.Buffer{}, true) != nil {
		t.Fatal("quiet/nil logger must be nil")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("disk full")
}

func TestSinkStickyError(t *testing.T) {
	fw := &failWriter{}
	s := NewSink(fw)
	s.Emit(map[string]int{"a": 1})
	// With buffering the write error surfaces at Flush, not Emit.
	if err := s.Flush(); err == nil {
		t.Fatal("expected flush error")
	}
	if s.Err() == nil {
		t.Fatal("expected sticky error")
	}
	// Later emits and flushes are dropped without touching the writer again.
	s.Emit(map[string]int{"b": 2})
	if err := s.Close(); err == nil {
		t.Fatal("Close must report the sticky error")
	}
	if fw.n != 1 {
		t.Fatalf("writes after error: %d", fw.n)
	}
}

func TestSinkConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Emit(map[string]int{"w": w, "i": i})
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("%d lines", len(lines))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("interleaved line: %q", line)
		}
	}
}

func TestLoggerPrintf(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, false)
	l.Printf("x %d", 1)
	l.Printf("y\n")
	if got := buf.String(); got != "x 1\ny\n" {
		t.Fatalf("log output %q", got)
	}
	if l.Writer() != &buf {
		t.Fatal("Writer must expose the sink writer")
	}
}

func TestLoggerWithTrace(t *testing.T) {
	var buf bytes.Buffer
	tc := NewTraceContext(7, "test")
	l := NewLogger(&buf, false).WithTrace(tc)
	l.Printf("hello %d", 2)
	want := "[" + tc.TraceID() + "] hello 2\n"
	if got := buf.String(); got != want {
		t.Fatalf("traced log line %q, want %q", got, want)
	}
}

// The buffered/unbuffered pair quantifies the per-event overhead the
// bufio.Writer removes: the unbuffered sink pays one file write (a syscall)
// per Emit, the buffered one amortizes it over ~4KB of records.
func BenchmarkSinkEmit(b *testing.B) {
	rec := struct {
		Event string  `json:"event"`
		Epoch int     `json:"epoch"`
		Loss  float64 `json:"loss"`
	}{"epoch", 3, 0.125}
	open := func(b *testing.B) *os.File {
		f, err := os.Create(filepath.Join(b.TempDir(), "sink.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	b.Run("unbuffered", func(b *testing.B) {
		f := open(b)
		defer f.Close()
		s := &Sink{w: f} // direct construction bypasses the bufio wrapper
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Emit(rec)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("buffered", func(b *testing.B) {
		f := open(b)
		defer f.Close()
		s := NewSink(f)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Emit(rec)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	})
}
