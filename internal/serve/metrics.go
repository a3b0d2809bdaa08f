package serve

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"predtop/internal/obs"
)

// Metrics is the daemon's metrics namespace — the only one in the repository:
// counters, gauges and fixed-bucket histograms, created on first use and
// shared by series afterwards, served as GET /metrics and snapshotted into
// predtop-serve's final metrics record. Every instrument is safe for
// concurrent use and only observes: nothing it holds feeds back into a
// prediction.
//
// A series is named once, where its instrument is created, in its exposition
// form: the family name, then for a labeled series its label block with the
// keys in sorted order, as in
// predtop_serve_requests_total{code="200",endpoint="/predict"}. Every label
// value is a constant of the daemon's own code, never client input, so the
// registry escapes and sanitizes nothing; TestServePromExposition checks the
// grammar of a live daemon's page.
//
// A nil *Metrics hands out nil instruments, and every method of a nil
// instrument is a no-op that allocates nothing, so the handlers are
// instrumented unconditionally and a daemon started without a registry (the
// benchmark's baseline for what the instrumentation costs) runs the same code.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*gauge
	histograms map[string]*Histogram
	// dropped counts non-finite samples rejected by gauge.Set and
	// Histogram.Observe (exported as obs_dropped_samples_total), so a daemon
	// that computed a NaN is visible instead of corrupting the exposition.
	dropped *Counter
}

// droppedSamplesMetric is the counter every registry carries from birth: the
// number of NaN/±Inf samples rejected by gauge.Set and Histogram.Observe.
const droppedSamplesMetric = "obs_dropped_samples_total"

// NewMetrics returns an empty enabled registry.
func NewMetrics() *Metrics {
	r := &Metrics{
		counters:   map[string]*Counter{},
		gauges:     map[string]*gauge{},
		histograms: map[string]*Histogram{},
		dropped:    &Counter{},
	}
	r.counters[droppedSamplesMetric] = r.dropped
	return r
}

// Counter returns the counter of series, creating it if needed. A nil
// registry returns a nil (no-op) counter.
func (r *Metrics) Counter(series string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[series]
	if !ok {
		c = &Counter{}
		r.counters[series] = c
	}
	return c
}

// runInfoMetric is the info-style gauge carrying the daemon's trace id as a
// label (value constant 1), the hook that makes a trace id greppable in the
// Prometheus exposition.
const runInfoMetric = "predtop_run_info"

// setRunInfo publishes the daemon's trace identity as
// predtop_run_info{name="…",trace_id="…"} = 1; the name is the tool's.
// No-op when the registry or tc is nil.
func (r *Metrics) setRunInfo(tc *obs.TraceContext) {
	if r == nil || tc == nil {
		return
	}
	r.gauge(runInfoMetric + `{name="` + tc.Name() + `",trace_id="` + tc.TraceID() + `"}`).Set(1)
}

// gauge returns the gauge of series, creating it if needed. A nil registry
// returns a nil (no-op) gauge.
func (r *Metrics) gauge(series string) *gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[series]
	if !ok {
		g = &gauge{dropped: r.dropped}
		r.gauges[series] = g
	}
	return g
}

// Histogram returns the histogram of series, creating it with the given
// bucket upper bounds (ascending; nil or empty selects a default latency
// ladder, 1 µs to ~67 s in powers of four). Bounds are fixed at creation —
// later calls with different bounds return the existing instrument. A nil
// registry returns a nil (no-op) histogram.
func (r *Metrics) Histogram(series string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[series]
	if !ok {
		if len(bounds) == 0 {
			bounds = defBuckets
		}
		h = &Histogram{bounds: append([]float64(nil), bounds...), dropped: r.dropped}
		h.counts = make([]atomic.Int64, len(h.bounds)+1)
		r.histograms[series] = h
	}
	return h
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one. No-op on nil.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// gauge is a last-value-wins float metric.
type gauge struct {
	bits    atomic.Uint64
	dropped *Counter
}

// Set records v. No-op on nil. A NaN or ±Inf value is dropped (and counted
// in obs_dropped_samples_total) so exposition output stays finite.
func (g *gauge) Set(v float64) {
	if g == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		g.dropped.Inc()
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (the queue-depth gauge is maintained by
// paired increments and decrements from concurrent handlers). No-op on nil; a
// non-finite delta is dropped and counted like a non-finite Set.
func (g *gauge) Add(delta float64) {
	if g == nil {
		return
	}
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		g.dropped.Inc()
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the last set value (0 on nil).
func (g *gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets: counts[i] holds
// observations v ≤ bounds[i] (first matching bucket), and the final slot
// holds the overflow beyond the last bound.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64
	count   atomic.Int64
	sum     atomicFloat
	dropped *Counter
}

// Observe records v. No-op on nil; allocation-free otherwise. A NaN or ±Inf
// observation is dropped (and counted in obs_dropped_samples_total) so the
// histogram sum stays finite.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.dropped.Inc()
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// atomicFloat is a lock-free accumulating float64.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// defBuckets is the ladder a histogram created without bounds gets.
var defBuckets = expBuckets(1e-6, 4, 14)

// expBuckets returns n exponential bucket bounds lo, lo·factor, lo·factor², …
// Its callers are the package's static layouts, all positive, ascending and
// finite.
func expBuckets(lo, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo
		lo *= factor
	}
	return out
}

// bucketCount is one histogram bucket in a snapshot: the count of
// observations at or below the upper bound LE (cumulative counts are left to
// consumers).
type bucketCount struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Metric is a point-in-time export of one instrument, JSONL-friendly (no
// ±Inf anywhere: overflow beyond the last histogram bound is a separate
// field).
type Metric struct {
	Name string `json:"name"`
	// Labels is the series' inner label block (`k="v",k2="v2"`), empty for
	// an unlabeled series.
	Labels   string        `json:"labels,omitempty"`
	Kind     string        `json:"kind"` // "counter", "gauge", or "histogram"
	Value    float64       `json:"value,omitempty"`
	Count    int64         `json:"count,omitempty"`
	Sum      float64       `json:"sum,omitempty"`
	Buckets  []bucketCount `json:"buckets,omitempty"`
	Overflow int64         `json:"overflow,omitempty"`
}

// Snapshot exports every instrument, sorted by name (nil registry → nil).
// Concurrent observations during a snapshot may land in either side; each
// individual instrument read is atomic.
func (r *Metrics) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for series, c := range r.counters {
		m := seriesMetric(series, "counter")
		m.Value = float64(c.Value())
		out = append(out, m)
	}
	for series, g := range r.gauges {
		m := seriesMetric(series, "gauge")
		m.Value = g.Value()
		out = append(out, m)
	}
	for series, h := range r.histograms {
		m := seriesMetric(series, "histogram")
		m.Count, m.Sum = h.Count(), h.Sum()
		for i, b := range h.bounds {
			if n := h.counts[i].Load(); n > 0 {
				m.Buckets = append(m.Buckets, bucketCount{LE: b, Count: n})
			}
		}
		m.Overflow = h.counts[len(h.bounds)].Load()
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// seriesMetric starts the export of series: the family name before its first
// '{', the label block inside the braces.
func seriesMetric(series, kind string) Metric {
	name, labels, _ := strings.Cut(series, "{")
	return Metric{Name: name, Labels: strings.TrimSuffix(labels, "}"), Kind: kind}
}
