package obs

import "testing"

// TestTraceContextDeterministic pins the determinism rule of DESIGN.md §7:
// trace ids derive from the seed and name alone — same inputs, same id,
// across runs and machines, with no wall-clock or RNG in the derivation.
func TestTraceContextDeterministic(t *testing.T) {
	a := NewTraceContext(42, "predtop-train")
	b := NewTraceContext(42, "predtop-train")
	if a.TraceID() != b.TraceID() || a.SpanID() != b.SpanID() {
		t.Fatalf("same seed+name diverged: %s/%s vs %s/%s",
			a.TraceID(), a.SpanID(), b.TraceID(), b.SpanID())
	}
	if NewTraceContext(43, "predtop-train").TraceID() == a.TraceID() {
		t.Fatal("different seeds must yield different trace ids")
	}
	if NewTraceContext(42, "predtop-eval").TraceID() == a.TraceID() {
		t.Fatal("different names must yield different trace ids")
	}
	if len(a.TraceID()) != 16 || len(a.SpanID()) != 16 {
		t.Fatalf("ids must be 16 hex chars: %q %q", a.TraceID(), a.SpanID())
	}
}

// TestTraceContextChildren: children share the parent's trace id, carry
// fresh deterministic span ids, and the sequence is reproducible.
func TestTraceContextChildren(t *testing.T) {
	parent := NewTraceContext(7, "run")
	c1 := parent.Child("train")
	c2 := parent.Child("eval")
	if c1.TraceID() != parent.TraceID() || c2.TraceID() != parent.TraceID() {
		t.Fatal("children must inherit the trace id")
	}
	if c1.SpanID() == parent.SpanID() || c1.SpanID() == c2.SpanID() {
		t.Fatalf("span ids must be distinct: parent %s c1 %s c2 %s",
			parent.SpanID(), c1.SpanID(), c2.SpanID())
	}
	// Replaying the same derivation sequence reproduces the same span ids.
	replay := NewTraceContext(7, "run")
	if replay.Child("train").SpanID() != c1.SpanID() || replay.Child("eval").SpanID() != c2.SpanID() {
		t.Fatal("child span ids must be reproducible")
	}
	if c1.Name() != "train" {
		t.Fatalf("child name %q", c1.Name())
	}
}

func TestTraceContextNil(t *testing.T) {
	var tc *TraceContext
	if tc.TraceID() != "" || tc.SpanID() != "" || tc.Name() != "" {
		t.Fatal("nil trace context must render empty ids")
	}
	if tc.Child("x") != nil {
		t.Fatal("nil Child must be nil")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		_ = tc.TraceID()
		_ = tc.SpanID()
		_ = tc.Child("x")
	})
	if allocs != 0 {
		t.Fatalf("nil trace context allocated %.1f per op", allocs)
	}
}
