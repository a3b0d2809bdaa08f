package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestAccuracyWelfordMeanMatchesOffline: the streaming mean must equal the
// offline MRE (mean absolute relative error) of the same residuals, exactly —
// it is the figure the paper's tables report.
func TestAccuracyWelfordMeanMatchesOffline(t *testing.T) {
	m := NewAccuracyMonitor(AccuracyConfig{})
	key := AccuracyKey{Family: "tran", Mesh: "2x8", Op: "GPT3"}
	preds := []float64{1.0, 2.2, 0.9, 4.0, 10.0, 0.33}
	acts := []float64{1.1, 2.0, 1.0, 4.4, 8.0, 0.30}
	sum := 0.0
	for i := range preds {
		m.Observe(key, preds[i], acts[i])
		sum += math.Abs(preds[i]-acts[i]) / acts[i] * 100
	}
	want := sum / float64(len(preds))
	st, ok := m.Stats(key)
	if !ok {
		t.Fatal("no stats")
	}
	if st.N != int64(len(preds)) {
		t.Fatalf("N %d", st.N)
	}
	if math.Abs(st.MeanPct-want) > 1e-9 {
		t.Fatalf("streaming mean %.12f, offline MRE %.12f", st.MeanPct, want)
	}
	if st.MaxPct < st.P95Pct || st.P95Pct < st.P50Pct {
		t.Fatalf("quantiles not ordered: p50 %.3f p95 %.3f max %.3f", st.P50Pct, st.P95Pct, st.MaxPct)
	}
}

// TestAccuracyQuantileSketchTolerance: sketch quantiles land within one
// bucket width (~21% relative) of the exact quantile.
func TestAccuracyQuantileSketchTolerance(t *testing.T) {
	m := NewAccuracyMonitor(AccuracyConfig{})
	key := AccuracyKey{Family: "f"}
	// 100 residuals of exactly i percent (actual 100, predicted 100+i).
	for i := 1; i <= 100; i++ {
		m.Observe(key, 100+float64(i), 100)
	}
	st, _ := m.Stats(key)
	// Exact P50 = 50%, P95 = 95%; the sketch reports the containing bucket's
	// upper bound, so at most one ladder step (×1.21) above.
	if st.P50Pct < 50 || st.P50Pct > 50*1.21 {
		t.Fatalf("P50 %.3f outside [50, %.3f]", st.P50Pct, 50*1.21)
	}
	if st.P95Pct < 95 || st.P95Pct > 95*1.21 {
		t.Fatalf("P95 %.3f outside [95, %.3f]", st.P95Pct, 95*1.21)
	}
	if st.MaxPct != 100 {
		t.Fatalf("max %.3f, want 100", st.MaxPct)
	}
}

// TestAccuracyDriftEdgeTriggered: the drift warning fires once per excursion
// above the threshold, re-arming only after the running mean recovers.
func TestAccuracyDriftEdgeTriggered(t *testing.T) {
	var logBuf bytes.Buffer
	m := NewAccuracyMonitor(AccuracyConfig{
		DriftThresholdPct: 10, MinSamples: 1, Log: NewLogger(&logBuf, false),
	})
	key := AccuracyKey{Family: "f", Mesh: "1x2", Op: "o"}
	warnings := func() int { return strings.Count(logBuf.String(), "accuracy drift") }

	m.Observe(key, 150, 100) // mean 50% > 10 → drift fires
	if st, _ := m.Stats(key); warnings() != 1 || !st.Drifted {
		t.Fatalf("after excursion: %d warning(s), drifted=%v", warnings(), st.Drifted)
	}
	m.Observe(key, 160, 100) // still above: edge-triggered, no second fire
	if warnings() != 1 {
		t.Fatalf("drift re-fired while high: %d warnings", warnings())
	}
	// Drown the mean below the threshold to re-arm…
	for i := 0; i < 40; i++ {
		m.Observe(key, 100, 100)
	}
	if st, _ := m.Stats(key); st.MeanPct > 10 || st.Drifted {
		t.Fatalf("mean %.2f drifted=%v after recovery", st.MeanPct, st.Drifted)
	}
	// …then cross again with a huge residual: second excursion, second count.
	m.Observe(key, 100000, 100)
	if warnings() != 2 {
		t.Fatalf("drift after second excursion: %d warnings", warnings())
	}
}

// TestAccuracyLabeledExport: gauges land in the registry under the group's
// family/mesh/op labels and survive into the Prometheus exposition.
func TestAccuracyLabeledExport(t *testing.T) {
	r := NewRegistry()
	m := NewAccuracyMonitor(AccuracyConfig{Metrics: r})
	m.Observe(AccuracyKey{Family: "tran", Mesh: "2x8", Op: "GPT3"}, 110, 100)
	m.Observe(AccuracyKey{Family: "gcn", Mesh: "2x8", Op: "GPT3"}, 130, 100)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		`predtop_accuracy_mre{family="tran",mesh="2x8",op="GPT3"} 10`,
		`predtop_accuracy_mre{family="gcn",mesh="2x8",op="GPT3"} 30`,
		`predtop_accuracy_samples_total{family="tran",mesh="2x8",op="GPT3"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("missing %q in exposition:\n%s", line, out)
		}
	}
	// One TYPE header per base name, even with two labeled series.
	if got := strings.Count(out, "# TYPE predtop_accuracy_mre gauge"); got != 1 {
		t.Fatalf("%d TYPE headers for predtop_accuracy_mre:\n%s", got, out)
	}
}

// TestAccuracyRejectsDegenerate: non-positive actuals and non-finite inputs
// never enter a group.
func TestAccuracyRejectsDegenerate(t *testing.T) {
	m := NewAccuracyMonitor(AccuracyConfig{})
	key := AccuracyKey{}
	m.Observe(key, 1, 0)
	m.Observe(key, 1, -5)
	m.Observe(key, math.NaN(), 1)
	m.Observe(key, math.Inf(1), 1)
	m.Observe(key, 1, math.Inf(1))
	if _, ok := m.Stats(key); ok {
		t.Fatal("degenerate observations created a group")
	}
}

// TestAccuracyEmitTo: one sorted JSONL record per group.
func TestAccuracyEmitTo(t *testing.T) {
	m := NewAccuracyMonitor(AccuracyConfig{})
	m.Observe(AccuracyKey{Family: "z"}, 110, 100)
	m.Observe(AccuracyKey{Family: "a"}, 120, 100)
	var buf bytes.Buffer
	s := NewSink(&buf)
	m.EmitTo(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d accuracy records", len(lines))
	}
	if !strings.Contains(lines[0], `"family":"a"`) || !strings.Contains(lines[1], `"family":"z"`) {
		t.Fatalf("records not key-sorted:\n%s", buf.String())
	}
	if !strings.Contains(lines[0], `"event":"accuracy"`) {
		t.Fatalf("bad record shape: %q", lines[0])
	}
}

// TestNilAccuracyMonitorZeroAlloc extends the disabled-path guard: a nil
// monitor's Observe is free, so eval paths can call it unconditionally.
func TestNilAccuracyMonitorZeroAlloc(t *testing.T) {
	var m *AccuracyMonitor
	key := AccuracyKey{Family: "f", Mesh: "2x8", Op: "GPT3"}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Observe(key, 1.1, 1.0)
	})
	if allocs != 0 {
		t.Fatalf("nil monitor allocated %.1f per op", allocs)
	}
	if _, ok := m.Stats(key); ok {
		t.Fatal("nil monitor must have no stats")
	}
	if m.Keys() != nil {
		t.Fatal("nil monitor Keys must be nil")
	}
	m.EmitTo(NewSink(&bytes.Buffer{}))
}
