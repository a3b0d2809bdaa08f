package obs

import (
	"strings"
	"testing"
	"time"
)

// sloClock is a manually-advanced clock for deterministic window rotation.
type sloClock struct{ t time.Time }

func newSLOClock() *sloClock { return &sloClock{t: time.Unix(1000, 0)} }

func (c *sloClock) now() time.Time          { return c.t }
func (c *sloClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func (c *sloClock) tracker(cfg SLOConfig) *SLOTracker {
	cfg.Now = c.now
	return NewSLOTracker(cfg)
}

// TestSLOTrackerQuantiles: the bucket sketch reports nearest-rank upper-bound
// quantiles clamped to the window max (the one rule, sketch.quantile), and the
// window max for overflow ranks.
func TestSLOTrackerQuantiles(t *testing.T) {
	c := newSLOClock()
	tr := c.tracker(SLOConfig{Windows: []time.Duration{time.Minute}})
	// 90 fast (1ms) + 10 slow (10ms) observations → p50 ≈ 1ms bucket,
	// p95/p99 in the 10ms bucket. Bucket bounds are powers of two from 100µs,
	// so 1ms lands under le=0.0016; 10ms lands under le=0.0128, which the
	// window max of 10ms tightens to the exact value.
	for i := 0; i < 90; i++ {
		tr.Observe(0.001, false, 1, 2)
	}
	for i := 0; i < 10; i++ {
		tr.Observe(0.010, false, 3, 4)
	}
	snap := tr.Snapshot()
	w := snap.Windows[0]
	if w.Total != 100 {
		t.Fatalf("total = %d, want 100", w.Total)
	}
	if w.P50 != 0.0016 {
		t.Errorf("p50 = %v, want 0.0016", w.P50)
	}
	if w.P95 != 0.010 || w.P99 != 0.010 {
		t.Errorf("p95/p99 = %v/%v, want 0.01", w.P95, w.P99)
	}
	// Overflow rank: one observation far beyond the last bound reports the
	// window max, not a bucket bound.
	tr2 := c.tracker(SLOConfig{Windows: []time.Duration{time.Minute}})
	tr2.Observe(7.5, false, 1, 2)
	if got := tr2.Snapshot().Windows[0].P99; got != 7.5 {
		t.Errorf("overflow p99 = %v, want the window max 7.5", got)
	}
}

// TestSLOTrackerWindowRotation: observations expire once the clock moves a
// full window past them, slot by slot, and a fully idle window reads zero.
func TestSLOTrackerWindowRotation(t *testing.T) {
	c := newSLOClock()
	tr := c.tracker(SLOConfig{Windows: []time.Duration{time.Minute}})
	for i := 0; i < 30; i++ {
		tr.Observe(0.002, true, 1, 2)
	}
	if got := tr.Snapshot().Windows[0].Total; got != 30 {
		t.Fatalf("total = %d, want 30", got)
	}
	// Half a window later the traffic is still visible…
	c.advance(30 * time.Second)
	tr.Observe(0.002, false, 1, 2)
	if got := tr.Snapshot().Windows[0].Total; got != 31 {
		t.Fatalf("total after 30s = %d, want 31", got)
	}
	// …one slot past the full window, the original burst is gone.
	c.advance(31 * time.Second)
	snap := tr.Snapshot()
	w := snap.Windows[0]
	if w.Total != 1 || w.Errors != 0 {
		t.Fatalf("after expiry: total=%d errors=%d, want 1/0", w.Total, w.Errors)
	}
	// Far beyond the window: everything expires, zero-traffic semantics.
	c.advance(time.Hour)
	w = tr.Snapshot().Windows[0]
	if w.Total != 0 || w.P99 != 0 || w.ErrRate != 0 || w.BurnRate != 0 {
		t.Fatalf("idle window not zeroed: %+v", w)
	}
}

// TestSLOTrackerBurnRate: burn = (errors + slow) / total / budget; a
// zero-traffic window burns nothing, and a disabled budget reads 0.
func TestSLOTrackerBurnRate(t *testing.T) {
	c := newSLOClock()
	tr := c.tracker(SLOConfig{
		Windows: []time.Duration{time.Minute}, P99Objective: 0.005, ErrObjective: 0.10,
		MinSamples: 1000, // keep breach out of this test's way
	})
	for i := 0; i < 8; i++ {
		tr.Observe(0.001, false, 1, 2) // fast, ok
	}
	tr.Observe(0.050, false, 1, 2) // slow
	tr.Observe(0.001, true, 1, 2)  // error
	w := tr.Snapshot().Windows[0]
	if w.ErrRate != 0.1 {
		t.Errorf("err rate = %v, want 0.1", w.ErrRate)
	}
	// bad = 1 slow + 1 err of 10 → 0.2; budget 0.10 → burn 2.
	if w.BurnRate != 2 {
		t.Errorf("burn rate = %v, want 2", w.BurnRate)
	}

	noBudget := c.tracker(SLOConfig{Windows: []time.Duration{time.Minute}})
	noBudget.Observe(1, true, 1, 2)
	if got := noBudget.Snapshot().Windows[0].BurnRate; got != 0 {
		t.Errorf("burn with no budget = %v, want 0", got)
	}
}

// TestSLOTrackerEdgeTriggeredBreach: the breach counter counts ok→breach
// transitions, not breached requests, and re-arms only after recovery.
func TestSLOTrackerEdgeTriggeredBreach(t *testing.T) {
	c := newSLOClock()
	var fired int
	reg := NewRegistry()
	tr := c.tracker(SLOConfig{
		Windows: []time.Duration{time.Minute}, P99Objective: 0.001, MinSamples: 5,
		Metrics: reg, OnBreach: func(s SLOSnapshot) {
			fired++
			if !s.Breached || len(s.Worst) == 0 {
				t.Errorf("breach snapshot not breached or missing worst list: %+v", s)
			}
		},
	})
	// Below MinSamples nothing can breach, however slow.
	for i := 0; i < 4; i++ {
		tr.Observe(0.5, false, 1, 2)
	}
	if tr.Breached() || tr.Breaches() != 0 {
		t.Fatalf("breached below MinSamples (breaches=%d)", tr.Breaches())
	}
	// The 5th slow request arms and trips the breach — exactly once, no
	// matter how much more bad traffic follows.
	for i := 0; i < 20; i++ {
		tr.Observe(0.5, false, 1, 2)
	}
	if !tr.Breached() || tr.Breaches() != 1 || fired != 1 {
		t.Fatalf("breaches=%d fired=%d, want 1/1", tr.Breaches(), fired)
	}
	if got := reg.Counter(SLOBreachesMetric).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", SLOBreachesMetric, got)
	}
	if got := reg.Gauge(SLOBreachGauge).Value(); got != 1 {
		t.Errorf("%s = %v, want 1", SLOBreachGauge, got)
	}
	// Recovery: the window rotates the bad traffic out, state returns to ok…
	c.advance(2 * time.Minute)
	if tr.Snapshot().Breached {
		t.Fatal("still breached after the window rotated clean")
	}
	if got := reg.Gauge(SLOBreachGauge).Value(); got != 0 {
		t.Errorf("%s after recovery = %v, want 0", SLOBreachGauge, got)
	}
	// …and a fresh excursion fires a second edge.
	for i := 0; i < 5; i++ {
		tr.Observe(0.5, false, 1, 2)
	}
	if tr.Breaches() != 2 || fired != 2 {
		t.Fatalf("breaches=%d fired=%d after second excursion, want 2/2", tr.Breaches(), fired)
	}
}

// TestSLOTrackerWorst: the worst list is bounded, sorted slowest-first, and
// ages out entries older than the longest window.
func TestSLOTrackerWorst(t *testing.T) {
	c := newSLOClock()
	tr := c.tracker(SLOConfig{Windows: []time.Duration{time.Minute}, WorstK: 3})
	for i, lat := range []float64{0.001, 0.009, 0.003, 0.007, 0.005} {
		tr.Observe(lat, false, uint64(100+i), uint64(200+i))
	}
	snap := tr.Snapshot()
	if len(snap.Worst) != 3 {
		t.Fatalf("worst len = %d, want 3", len(snap.Worst))
	}
	want := []float64{0.009, 0.007, 0.005}
	for i, w := range snap.Worst {
		if w.LatencySeconds != want[i] {
			t.Errorf("worst[%d] = %v, want %v", i, w.LatencySeconds, want[i])
		}
		if len(w.TraceID) != 16 || len(w.SpanID) != 16 {
			t.Errorf("worst[%d] ids not 16-hex: %q %q", i, w.TraceID, w.SpanID)
		}
	}
	// Past the window horizon the stale offenders disappear from the view.
	c.advance(2 * time.Minute)
	if got := len(tr.Snapshot().Worst); got != 0 {
		t.Fatalf("worst after horizon = %d entries, want 0", got)
	}
}

// TestSLOTrackerMetrics: the labeled gauge series land in the exposition
// under the documented names.
func TestSLOTrackerMetrics(t *testing.T) {
	c := newSLOClock()
	reg := NewRegistry()
	tr := c.tracker(SLOConfig{
		Windows:      []time.Duration{time.Minute, 5 * time.Minute},
		P99Objective: 1, ErrObjective: 0.5, Metrics: reg,
	})
	tr.Observe(0.001, false, 1, 2)
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	exp := b.String()
	for _, want := range []string{
		`predtop_slo_latency_seconds{quantile="0.99",window="1m0s"}`,
		`predtop_slo_latency_seconds{quantile="0.5",window="5m0s"}`,
		`predtop_slo_error_rate{window="1m0s"} 0`,
		`predtop_slo_burn_rate{window="1m0s"} 0`,
		"predtop_slo_breach 0",
		"predtop_slo_breach_total 0",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSLOTrackerNil: every method on a nil tracker is inert.
func TestSLOTrackerNil(t *testing.T) {
	var tr *SLOTracker
	tr.Observe(1, true, 1, 2)
	if tr.Breached() || tr.Breaches() != 0 {
		t.Fatal("nil tracker not inert")
	}
	if snap := tr.Snapshot(); snap.Breached || len(snap.Windows) != 0 {
		t.Fatalf("nil snapshot not zero: %+v", snap)
	}
}
