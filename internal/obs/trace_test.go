package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

type testEvent struct {
	Name  string  `json:"name"`
	Phase string  `json:"ph"`
	TS    float64 `json:"ts"`
	Dur   float64 `json:"dur"`
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
	Args  struct {
		Name string `json:"name"`
	} `json:"args"`
}

func decodeTrace(t *testing.T, b []byte) []testEvent {
	t.Helper()
	var evs []testEvent
	if err := json.Unmarshal(b, &evs); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	return evs
}

func TestTraceNamedTracks(t *testing.T) {
	tb := NewTrace()
	tb.Slice("epochs", "epoch 1", 0, 1.5)
	tb.Slice("stage 1", "mb0", 0, 1)
	tb.Slice("epochs", "epoch 2", 1.5, 1.25)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, buf.Bytes())
	// process_name + 2 thread_name + 3 slices.
	if len(evs) != 6 {
		t.Fatalf("%d events", len(evs))
	}
	if evs[0].Phase != "M" || evs[0].Name != "process_name" || evs[0].Args.Name != "predtop" {
		t.Fatalf("missing process metadata: %+v", evs[0])
	}
	tracks := map[string]int{}
	for _, ev := range evs[1:3] {
		if ev.Phase != "M" || ev.Name != "thread_name" {
			t.Fatalf("expected thread_name metadata: %+v", ev)
		}
		tracks[ev.Args.Name] = ev.TID
	}
	if tracks["epochs"] != 1 || tracks["stage 1"] != 2 {
		t.Fatalf("track tids: %v", tracks)
	}
	for _, ev := range evs[3:] {
		if ev.Phase != "X" {
			t.Fatalf("expected complete event: %+v", ev)
		}
	}
	// Same track name → same tid; timestamps in microseconds.
	if evs[3].TID != evs[5].TID || evs[5].TS != 1.5e6 || evs[5].Dur != 1.25e6 {
		t.Fatalf("slice events: %+v %+v", evs[3], evs[5])
	}
}

func TestNilTraceBuilderInert(t *testing.T) {
	var tb *TraceBuilder
	tb.Slice("a", "b", 0, 1)
	if err := tb.Render(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceOneEventPerLine pins the diffable rendering golden tests rely on.
func TestTraceOneEventPerLine(t *testing.T) {
	tb := NewTrace()
	tb.Slice("a", "x", 0, 1)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// "[", process_name, thread_name, slice, "]".
	if len(lines) != 5 || lines[0] != "[" || lines[len(lines)-1] != "]" {
		t.Fatalf("layout:\n%s", buf.String())
	}
}
