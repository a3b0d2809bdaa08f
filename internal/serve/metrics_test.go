package serve

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewMetrics()
	c := r.Counter("c")
	c.Inc()
	c.Inc()
	if c.Value() != 2 {
		t.Fatalf("counter %d", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatal("counter not shared by name")
	}

	g := r.gauge("g")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge %v", g.Value())
	}

	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count %d", h.Count())
	}
	if math.Abs(h.Sum()-5060.5) > 1e-9 {
		t.Fatalf("hist sum %v", h.Sum())
	}
	var m Metric
	for _, s := range r.Snapshot() {
		if s.Name == "h" {
			m = s
		}
	}
	want := map[float64]int64{1: 1, 10: 2, 100: 1}
	for _, b := range m.Buckets {
		if want[b.LE] != b.Count {
			t.Fatalf("bucket le=%v count=%d", b.LE, b.Count)
		}
		delete(want, b.LE)
	}
	if len(want) != 0 || m.Overflow != 1 {
		t.Fatalf("buckets %+v overflow %d", m.Buckets, m.Overflow)
	}
}

func TestSnapshotSortedAndKinds(t *testing.T) {
	r := NewMetrics()
	r.Counter("z_count").Inc()
	r.gauge("a_gauge").Set(1)
	r.Histogram("m_hist", nil).Observe(0.01)
	snap := r.Snapshot()
	// Every registry carries obs_dropped_samples_total from birth.
	if len(snap) != 4 {
		t.Fatalf("snapshot size %d", len(snap))
	}
	names := []string{snap[0].Name, snap[1].Name, snap[2].Name, snap[3].Name}
	want := []string{"a_gauge", "m_hist", droppedSamplesMetric, "z_count"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot not sorted: %v", names)
		}
	}
	if snap[0].Kind != "gauge" || snap[1].Kind != "histogram" || snap[2].Kind != "counter" || snap[3].Kind != "counter" {
		t.Fatalf("kinds: %+v", snap)
	}
}

// TestNonFiniteSamplesDropped pins the exposition-safety guard: NaN and ±Inf
// never enter a gauge or histogram; each rejected sample bumps
// obs_dropped_samples_total instead.
func TestNonFiniteSamplesDropped(t *testing.T) {
	r := NewMetrics()
	g := r.gauge("g")
	g.Set(1.5)
	g.Set(math.NaN())
	g.Set(math.Inf(1))
	g.Set(math.Inf(-1))
	if g.Value() != 1.5 {
		t.Fatalf("gauge corrupted by non-finite Set: %v", g.Value())
	}
	h := r.Histogram("h", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	if h.Count() != 1 || h.Sum() != 0.5 {
		t.Fatalf("histogram corrupted: count %d sum %v", h.Count(), h.Sum())
	}
	if got := r.Counter(droppedSamplesMetric).Value(); got != 5 {
		t.Fatalf("dropped-samples counter %d, want 5", got)
	}
}

// TestNilRegistryIsInert pins the no-op contract: a nil registry hands out
// nil instruments whose every method is safe and free.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Metrics
	c, g, h := r.Counter("c"), r.gauge("g"), r.Histogram("h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

// TestNilInstrumentsZeroAlloc is the hot-path guarantee: observing through a
// disabled (nil) registry allocates nothing, so the request path can be
// instrumented unconditionally.
func TestNilInstrumentsZeroAlloc(t *testing.T) {
	var r *Metrics
	c := r.Counter("requests_total")
	h := r.Histogram("request_seconds", nil)
	g := r.gauge("lr")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1e-3)
		h.Observe(0.5)
	})
	if allocs != 0 {
		t.Fatalf("nil instruments allocated %.1f per op", allocs)
	}
}

// TestEnabledHistogramZeroAllocObserve: even enabled, Observe stays
// allocation-free — only instrument creation allocates.
func TestEnabledHistogramZeroAllocObserve(t *testing.T) {
	r := NewMetrics()
	h := r.Histogram("h", nil)
	c := r.Counter("c")
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(0.01)
		c.Inc()
	})
	if allocs != 0 {
		t.Fatalf("enabled Observe allocated %.1f per op", allocs)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c").Inc()
				r.Histogram("h", nil).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 4000 {
		t.Fatalf("concurrent counter %d", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 4000 {
		t.Fatalf("concurrent histogram %d", got)
	}
}

// TestExpBuckets: the ladder, and the three static layouts the package builds
// from it are ascending and finite, which Histogram's binary search needs.
func TestExpBuckets(t *testing.T) {
	b := expBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d: %v want %v", i, b[i], want[i])
		}
	}
	for _, ladder := range [][]float64{defBuckets, sloBuckets, requestSecondsBuckets} {
		for i, v := range ladder {
			if !(v > 0) || math.IsInf(v, 0) || (i > 0 && v <= ladder[i-1]) {
				t.Fatalf("ladder %v is not ascending and finite at %d", ladder, i)
			}
		}
	}
}

func TestGaugeAdd(t *testing.T) {
	r := NewMetrics()
	g := r.gauge("depth")
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("after +3/-1: %v, want 2", got)
	}
	g.Add(math.NaN())
	g.Add(math.Inf(1))
	if got := g.Value(); got != 2 {
		t.Fatalf("non-finite delta changed value: %v", got)
	}
	if got := r.Counter(droppedSamplesMetric).Value(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	var nilG *gauge
	nilG.Add(1) // must not panic
}

func TestGaugeAddConcurrent(t *testing.T) {
	g := NewMetrics().gauge("depth")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("paired adds did not cancel: %v", got)
	}
}
