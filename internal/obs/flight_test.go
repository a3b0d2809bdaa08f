package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// decodeFlightDump parses a Dump's JSONL output into its header, events, and
// stacks records.
func decodeFlightDump(t *testing.T, out []byte) (header map[string]any, events []map[string]any, stacks map[string]any) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		t.Fatalf("dump too short: %d lines", len(lines))
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("dump line %d invalid: %v (%q)", i, err, line)
		}
		switch rec["event"] {
		case "flight_dump":
			header = rec
		case "flight_event":
			events = append(events, rec)
		case "flight_stacks":
			stacks = rec
		default:
			t.Fatalf("unknown dump record %v", rec["event"])
		}
	}
	if header == nil || stacks == nil {
		t.Fatal("dump missing header or stacks record")
	}
	return header, events, stacks
}

func TestFlightRecorderDump(t *testing.T) {
	f := NewFlightRecorder(128)
	tc := NewTraceContext(9, "test")
	f.SetTraceContext(tc)
	for i := 0; i < 100; i++ {
		f.Note("step", "work")
	}
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	header, events, stacks := decodeFlightDump(t, buf.Bytes())
	// The ring holds all 100: the acceptance bar asks for a window of at least
	// 64 correlated events.
	if len(events) != 100 {
		t.Fatalf("dump window %d events, want 100", len(events))
	}
	if header["trace_id"] != tc.TraceID() {
		t.Fatalf("header trace_id %v", header["trace_id"])
	}
	for i, ev := range events {
		if ev["trace_id"] != tc.TraceID() {
			t.Fatalf("event %d not correlated: %v", i, ev["trace_id"])
		}
	}
	if !strings.Contains(stacks["stacks"].(string), "goroutine") {
		t.Fatal("stacks record missing goroutine stacks")
	}
}

// TestFlightRecorderWraparound: a full ring keeps only the newest events and
// reports how many were overwritten.
func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(16)
	for i := 0; i < 40; i++ {
		f.Note("n", "x")
	}
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	header, events, _ := decodeFlightDump(t, buf.Bytes())
	if got := header["dropped"].(float64); got != 24 {
		t.Fatalf("dropped %v, want 24", got)
	}
	if len(events) != 16 {
		t.Fatalf("window %d events, want 16", len(events))
	}
	// Sequence numbers must be the last 16 (24..39) in order.
	for i, ev := range events {
		if got := uint64(ev["seq"].(float64)); got != uint64(24+i) {
			t.Fatalf("event %d seq %d, want %d", i, got, 24+i)
		}
	}
}

// TestFlightRecorderOnDump: registered flushers (how the buffered sink joins
// a post-mortem) run before the dump is written.
func TestFlightRecorderOnDump(t *testing.T) {
	f := NewFlightRecorder(8)
	flushed := false
	f.OnDump(func() { flushed = true })
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if !flushed {
		t.Fatal("OnDump flusher did not run")
	}
}

// TestSinkFlushesOnFlightDump is the integration: an AttachFlight'd sink has
// its buffered records on disk by the time the dump is readable.
func TestSinkFlushesOnFlightDump(t *testing.T) {
	var out bytes.Buffer
	s := NewSink(&out)
	f := NewFlightRecorder(8)
	s.AttachFlight(f)
	s.Emit(map[string]string{"event": "x"}) // sits in the bufio buffer
	if out.Len() != 0 {
		t.Fatal("record should still be buffered")
	}
	var dump bytes.Buffer
	if err := f.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"event":"x"`) {
		t.Fatalf("sink not flushed before dump: %q", out.String())
	}
	// The Emit itself left a breadcrumb in the ring.
	if !strings.Contains(dump.String(), `"kind":"sink"`) {
		t.Fatalf("dump missing sink breadcrumb:\n%s", dump.String())
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Note("k", "m")
	f.SetTraceContext(NewTraceContext(1, "x"))
	f.OnDump(func() {})
	if f.Enabled() {
		t.Fatal("nil recorder must be inert")
	}
	if err := f.Dump(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if f.PanicHook(&bytes.Buffer{}) != nil {
		t.Fatal("nil recorder must yield a nil panic hook")
	}
	stop := f.HandleSignals(&bytes.Buffer{})
	stop()
}

// TestNilFlightRecorderZeroAlloc extends the hot-path guard: disabled flight
// recording costs nothing in the minibatch loop.
func TestNilFlightRecorderZeroAlloc(t *testing.T) {
	var f *FlightRecorder
	allocs := testing.AllocsPerRun(1000, func() {
		f.Note("train", "batch")
		_ = f.Enabled()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f per op", allocs)
	}
}

// TestEnabledFlightNoteZeroAlloc: even live, Note never heap-allocates — it
// is safe on the train-step hot path.
func TestEnabledFlightNoteZeroAlloc(t *testing.T) {
	f := NewFlightRecorder(64)
	f.SetTraceContext(NewTraceContext(1, "x"))
	allocs := testing.AllocsPerRun(1000, func() {
		f.Note("train", "batch")
	})
	if allocs != 0 {
		t.Fatalf("enabled Note allocated %.1f per op", allocs)
	}
}

// TestFlightRecorderConcurrent hammers the ring from many goroutines (the
// race detector validates the slot locking) and checks a concurrent Dump
// stays well-formed.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Note("w", fmt.Sprintf("worker %d", w))
			}
		}(w)
	}
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil { // concurrent with the writers
		t.Fatal(err)
	}
	wg.Wait()
	var final bytes.Buffer
	if err := f.Dump(&final); err != nil {
		t.Fatal(err)
	}
	_, events, _ := decodeFlightDump(t, final.Bytes())
	if len(events) != 32 {
		t.Fatalf("final window %d events, want 32", len(events))
	}
}
