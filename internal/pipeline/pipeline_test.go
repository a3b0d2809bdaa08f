package pipeline

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"predtop/internal/obs"
)

func TestLatencyFigure6Example(t *testing.T) {
	// Fig 6: four stages, three microbatches, stage 2 the bottleneck.
	lat := []float64{1, 3, 1, 1}
	got := Latency(lat, 3)
	want := 6.0 + 2*3 // Σ + (B−1)·max
	if got != want {
		t.Fatalf("Eqn 4: %v want %v", got, want)
	}
}

func TestLatencyEdgeCases(t *testing.T) {
	if Latency(nil, 3) != 0 || Latency([]float64{1}, 0) != 0 {
		t.Fatal("empty inputs should be zero")
	}
	// One stage: B sequential executions.
	if Latency([]float64{2}, 5) != 10 {
		t.Fatal("single-stage pipeline is serial")
	}
	// One microbatch: plain sum.
	if Latency([]float64{1, 2, 3}, 1) != 6 {
		t.Fatal("B=1 is the stage sum")
	}
}

func TestBottleneck(t *testing.T) {
	idx, max := Bottleneck([]float64{1, 3, 2})
	if idx != 1 || max != 3 {
		t.Fatalf("bottleneck (%d, %v)", idx, max)
	}
}

func TestBubbleFraction(t *testing.T) {
	// Perfectly balanced, many microbatches → bubble → 0.
	lat := []float64{1, 1, 1, 1}
	small := BubbleFraction(lat, 1000)
	if small > 0.01 {
		t.Fatalf("balanced deep pipeline bubble: %v", small)
	}
	// Few microbatches → large bubble.
	big := BubbleFraction(lat, 1)
	if big < 0.5 {
		t.Fatalf("B=1 bubble: %v", big)
	}
	if BubbleFraction(nil, 4) != 0 {
		t.Fatal("empty pipeline")
	}
}

// TestSimulatorMatchesEqn4 is the paper's white-box model invariant: the
// closed form equals the event-driven schedule exactly.
func TestSimulatorMatchesEqn4(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := 1 + rng.Intn(8)
		b := 1 + rng.Intn(12)
		lat := make([]float64, s)
		for i := range lat {
			lat[i] = 0.1 + rng.Float64()*5
		}
		makespan, _ := Simulate(lat, b)
		return math.Abs(makespan-Latency(lat, b)) < 1e-9
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateRespectsDependencies(t *testing.T) {
	lat := []float64{1, 3, 1, 1}
	_, tasks := Simulate(lat, 3)
	byKey := map[[2]int]Task{}
	for _, task := range tasks {
		byKey[[2]int{task.Stage, task.Microbatch}] = task
	}
	for _, task := range tasks {
		if task.Stage > 0 {
			prev := byKey[[2]int{task.Stage - 1, task.Microbatch}]
			if task.Start < prev.End-1e-12 {
				t.Fatalf("stage %d mb %d started before upstream finished", task.Stage, task.Microbatch)
			}
		}
		if task.Microbatch > 0 {
			prev := byKey[[2]int{task.Stage, task.Microbatch - 1}]
			if task.Start < prev.End-1e-12 {
				t.Fatalf("stage %d overlapped its own microbatches", task.Stage)
			}
		}
		if math.Abs(task.End-task.Start-lat[task.Stage]) > 1e-12 {
			t.Fatalf("task duration wrong: %+v", task)
		}
	}
	if len(tasks) != 12 {
		t.Fatalf("expected 4×3 tasks, got %d", len(tasks))
	}
}

func TestRenderTimeline(t *testing.T) {
	out := RenderTimeline([]float64{1, 3, 1, 1}, 3, 60)
	if !strings.Contains(out, "stage 1") || !strings.Contains(out, "stage 4") {
		t.Fatalf("timeline missing stages:\n%s", out)
	}
	if !strings.Contains(out, "makespan") {
		t.Fatal("timeline missing makespan")
	}
	// The bottleneck stage (2) should have no idle gaps after warmup —
	// its row must contain all three microbatch digits.
	for _, d := range []string{"0", "1", "2"} {
		if !strings.Contains(out, d) {
			t.Fatalf("timeline missing microbatch %s:\n%s", d, out)
		}
	}
}

// scheduleTrace renders a simulated schedule as a standalone Chrome-tracing
// file: AddSchedule on a fresh builder, then Render.
func scheduleTrace(t *testing.T, stageLat []float64, microbatches int) []byte {
	t.Helper()
	tb := obs.NewTrace()
	if err := AddSchedule(tb, "", stageLat, microbatches); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteChromeTrace(t *testing.T) {
	buf := scheduleTrace(t, []float64{1, 3, 1}, 2)
	var events []map[string]any
	if err := json.Unmarshal(buf, &events); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var slices, meta int
	names := map[string]bool{}
	for _, e := range events {
		switch e["ph"] {
		case "X":
			slices++
			if e["dur"].(float64) <= 0 {
				t.Fatalf("bad event %v", e)
			}
		case "M":
			meta++
			if args, ok := e["args"].(map[string]any); ok {
				names[args["name"].(string)] = true
			}
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if slices != 6 { // 3 stages × 2 microbatches
		t.Fatalf("trace slices: %d", slices)
	}
	if meta != 4 { // process_name + 3 thread_name
		t.Fatalf("metadata events: %d", meta)
	}
	for _, want := range []string{"stage 1", "stage 2", "stage 3"} {
		if !names[want] {
			t.Fatalf("missing named track %q (have %v)", want, names)
		}
	}
}

// TestWriteChromeTraceRejectsInvalidInput: bad input must be an error, not a
// garbage trace — AddSchedule adds nothing to the builder it rejects.
func TestWriteChromeTraceRejectsInvalidInput(t *testing.T) {
	var empty bytes.Buffer
	if err := obs.NewTrace().Render(&empty); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		lat  []float64
		mb   int
	}{
		{"zero microbatches", []float64{1, 2}, 0},
		{"negative microbatches", []float64{1, 2}, -3},
		{"negative latency", []float64{1, -2}, 4},
		{"NaN latency", []float64{math.NaN()}, 4},
		{"Inf latency", []float64{math.Inf(1)}, 4},
	}
	for _, tc := range cases {
		tb := obs.NewTrace()
		if err := AddSchedule(tb, "", tc.lat, tc.mb); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		var buf bytes.Buffer
		if err := tb.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), empty.Bytes()) {
			t.Fatalf("%s: added events alongside the error:\n%s", tc.name, &buf)
		}
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestWriteChromeTraceGolden pins the exact trace bytes for a pipeline
// schedule: struct encoding keeps the field order stable, track registration
// order fixes the tids, and the simulator's task order fixes the slices.
func TestWriteChromeTraceGolden(t *testing.T) {
	checkGolden(t, "testdata/pipeline_trace.golden.json", scheduleTrace(t, []float64{1, 3, 1}, 2))
}

// TestCombinedTraceGolden renders training epochs and a pipeline schedule as
// named tracks of one Perfetto file — the trace shape the instrumented cmd
// tools emit — and pins its bytes.
func TestCombinedTraceGolden(t *testing.T) {
	tb := obs.NewTrace()
	// Three training epochs at cumulative wall offsets, as the training
	// hooks record them.
	wall := []float64{0, 1.5, 2.75, 3.5}
	for e := 1; e < len(wall); e++ {
		tb.Slice("epochs", fmt.Sprintf("epoch %d", e), wall[e-1], wall[e]-wall[e-1])
	}
	if err := AddSchedule(tb, "", []float64{1, 3, 1}, 2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/combined_trace.golden.json", buf.Bytes())
}
