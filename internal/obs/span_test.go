package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNestingBuildsTree(t *testing.T) {
	p := NewProfiler()
	train := p.Start("train")
	fwd := train.Start("forward")
	fwd.Start("l0.attn").End()
	fwd.Start("l0.ffn").End()
	fwd.Start("l0.attn").End() // second visit folds into the same node
	fwd.End()
	train.End()

	p.mu.Lock()
	defer p.mu.Unlock()
	tr := p.root.children["train"]
	if tr == nil || tr.count != 1 {
		t.Fatalf("train node: %+v", tr)
	}
	f := tr.children["forward"]
	if f == nil || len(f.children) != 2 {
		t.Fatalf("forward node: %+v", f)
	}
	attn := f.children["l0.attn"]
	if attn == nil || attn.count != 2 {
		t.Fatalf("l0.attn count: %+v", attn)
	}
	if f.total < attn.total+f.children["l0.ffn"].total {
		t.Fatalf("parent total %v < sum of children", f.total)
	}
}

// TestWriteProfileTreeDeterministic: Record-fed durations render to an exact
// report — children name-sorted, self = total − Σ(children) clamped at zero.
func TestWriteProfileTreeDeterministic(t *testing.T) {
	p := NewProfiler()
	root := p.Start("train")
	root.Record("forward", 30*time.Millisecond, 6)
	root.Record("backward", 50*time.Millisecond, 6)
	root.End()
	// Overwrite the timed root total so the report is fully deterministic.
	p.mu.Lock()
	p.root.children["train"].total = 100 * time.Millisecond
	p.mu.Unlock()

	var buf bytes.Buffer
	if err := p.WriteProfileTree(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := strings.Join([]string{
		"# span profile: 1 root span(s), total 100ms",
		"# span                                              total         self      count",
		"train                                               100ms         20ms          1",
		"  backward                                           50ms         50ms          6",
		"  forward                                            30ms         30ms          6",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("profile tree mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	var again bytes.Buffer
	if err := p.WriteProfileTree(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != got {
		t.Fatal("profile tree render is not deterministic")
	}
}

// TestSpanSelfTimeClampsAtZero: parallel children can sum past the parent's
// wall time; self time must clamp at zero rather than go negative.
func TestSpanSelfTimeClampsAtZero(t *testing.T) {
	p := NewProfiler()
	s := p.Start("par")
	s.Record("w0", 80*time.Millisecond, 1)
	s.Record("w1", 80*time.Millisecond, 1)
	s.End()
	p.mu.Lock()
	p.root.children["par"].total = 90 * time.Millisecond
	p.mu.Unlock()
	var buf bytes.Buffer
	if err := p.WriteProfileTree(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "par                                                  90ms           0s          1") {
		t.Fatalf("self time not clamped:\n%s", buf.String())
	}
}

// TestInertSpanZeroAlloc pins the no-op contract for profiling: a nil
// profiler hands out zero Spans whose whole API costs nothing, so models and
// training loops instrument unconditionally.
func TestInertSpanZeroAlloc(t *testing.T) {
	var p *Profiler
	if p.Enabled() {
		t.Fatal("nil profiler must report disabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s := p.Start("train")
		c := s.Start("forward")
		c.Record("l0", time.Millisecond, 1)
		c.End()
		if s.Enabled() {
			panic("inert span claims enabled")
		}
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("inert spans allocated %.1f per op", allocs)
	}
	if err := p.WriteProfileTree(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	p.AttachTrace(NewTrace(), "spans")
}

// TestSpanConcurrentSiblingsFold: sibling spans opened by parallel workers
// fold into a single tree node (run under -race).
func TestSpanConcurrentSiblingsFold(t *testing.T) {
	p := NewProfiler()
	root := p.Start("batch")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := root.Start("sample")
				s.Record("vjp", time.Microsecond, 1)
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	p.mu.Lock()
	defer p.mu.Unlock()
	sample := p.root.children["batch"].children["sample"]
	if sample == nil || sample.count != 800 {
		t.Fatalf("sample node: %+v", sample)
	}
	if vjp := sample.children["vjp"]; vjp == nil || vjp.count != 800 || vjp.total != 800*time.Microsecond {
		t.Fatalf("vjp node: %+v", vjp)
	}
}

// TestAttachTraceMirrorsSpans: with a TraceBuilder attached, every End also
// lands a slice on the chosen track.
func TestAttachTraceMirrorsSpans(t *testing.T) {
	p := NewProfiler()
	tb := NewTrace()
	p.AttachTrace(tb, "spans")
	s := p.Start("opt")
	s.Start("step").End()
	s.End()
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"name":"spans"`, `"name":"opt"`, `"name":"step"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s:\n%s", want, out)
		}
	}
	// A slice is the span's own interval on the profiler's clock: the child
	// (ended first, so rendered first) lies inside its parent, and both start
	// after the profiler was created.
	evs := decodeTrace(t, buf.Bytes())
	step, opt := evs[len(evs)-2], evs[len(evs)-1]
	if step.Name != "step" || opt.Name != "opt" || opt.TS < 0 ||
		step.TS < opt.TS || step.TS+step.Dur > opt.TS+opt.Dur+1e-3 { // µs; 1 ns of float slack
		t.Fatalf("mirrored intervals: step %+v, opt %+v", step, opt)
	}
}
