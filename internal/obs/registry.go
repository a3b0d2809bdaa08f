// Package obs is the repository's observability layer. Batch code paths —
// predictor training, planner search, experiment grids — keep exactly two
// instruments: a deterministic stats struct of their own for facts, and this
// package's span Profiler for time — the only wall clock they start and stop.
// Around them obs provides the structured JSONL event Sink, the Chrome-tracing
// TraceBuilder (no clock of its own: it renders the profiler's span intervals
// and simulated schedules), the deterministic TraceContext and the crash
// FlightRecorder. The metrics Registry (counters, gauges, fixed-bucket histograms, Prometheus exposition)
// and the SLOTracker belong to the serving daemon alone: internal/cli builds
// a registry only for predtop-serve.
//
// The central contract is that observation is free when disabled and passive
// when enabled:
//
//   - Every method is nil-safe. A nil *Registry hands out nil instruments,
//     and a nil *Counter/*Gauge/*Histogram/*Sink/*TraceBuilder/*Logger is a
//     no-op — zero allocations, zero time.Now calls — so hot loops are
//     instrumented unconditionally and pay nothing unless a caller opted in.
//   - Instruments only observe. They never feed back into computation, so
//     the bitwise-determinism guarantee of the training engine (DESIGN.md §6)
//     is preserved with observability on or off.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a process-local metrics namespace. Instruments are created on
// first use and shared by name afterwards; all instruments are safe for
// concurrent use. The zero *Registry (nil) disables everything.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// dropped counts non-finite samples rejected by Gauge.Set and
	// Histogram.Observe (exported as obs_dropped_samples_total), so a run
	// that computed a NaN is visible instead of corrupting the exposition.
	dropped *Counter
}

// DroppedSamplesMetric is the counter every registry carries from birth: the
// number of NaN/±Inf samples rejected by Gauge.Set and Histogram.Observe.
const DroppedSamplesMetric = "obs_dropped_samples_total"

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		dropped:    &Counter{},
	}
	r.counters[DroppedSamplesMetric] = r.dropped
	return r
}

// Counter returns the named counter, creating it if needed. A nil registry
// returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Label is one metric dimension (e.g. {family="PredTOP-Tran"}). Labeled
// instruments share the base name in the Prometheus exposition; the label
// block distinguishes the series.
type Label struct {
	Key   string
	Value string
}

// labelSep joins a base name and its rendered label block in the internal
// instrument key; '\x00' cannot appear in either half.
const labelSep = "\x00"

// renderLabels produces the canonical inner label block `k="v",k2="v2"`:
// labels sorted by key, keys sanitized to the Prometheus charset, values
// escaped per the text exposition format. Empty input renders "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(SanitizeMetricName(l.Key))
		b.WriteString(`="`)
		for j := 0; j < len(l.Value); j++ {
			switch c := l.Value[j]; c {
			case '\\':
				b.WriteString(`\\`)
			case '"':
				b.WriteString(`\"`)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteByte(c)
			}
		}
		b.WriteByte('"')
	}
	return b.String()
}

// instrKey builds the internal map key for a (name, labels) pair.
func instrKey(name string, labels []Label) string {
	inner := renderLabels(labels)
	if inner == "" {
		return name
	}
	return name + labelSep + inner
}

// splitInstrKey recovers (name, labels) from an internal key.
func splitInstrKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, labelSep[0]); i >= 0 {
		return key[:i], key[i+1:]
	}
	return key, ""
}

// CounterWith returns the counter for (name, labels), creating it if needed.
// Labels are canonicalized (sorted by key, values escaped), so call order
// does not create duplicate series. A nil registry returns a nil counter.
func (r *Registry) CounterWith(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.Counter(instrKey(name, labels))
}

// GaugeWith returns the gauge for (name, labels), creating it if needed (see
// CounterWith for label canonicalization). A nil registry returns nil.
func (r *Registry) GaugeWith(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.Gauge(instrKey(name, labels))
}

// HistogramWith returns the histogram for (name, labels), creating it with
// the given bucket bounds if needed (see CounterWith for label
// canonicalization and Histogram for bound semantics). Labeled series of one
// name share a TYPE header in the Prometheus exposition, with the label block
// merged into each _bucket/_sum/_count line. A nil registry returns nil.
func (r *Registry) HistogramWith(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.Histogram(instrKey(name, labels), bounds)
}

// RunInfoMetric is the info-style gauge carrying a run's trace id as a label
// (value constant 1), the hook that makes a trace id greppable in the
// Prometheus exposition.
const RunInfoMetric = "predtop_run_info"

// SetRunInfo publishes the run's trace identity as predtop_run_info
// {trace_id="…",name="…"} = 1. No-op when the registry or tc is nil.
func (r *Registry) SetRunInfo(tc *TraceContext) {
	if r == nil || tc == nil {
		return
	}
	r.GaugeWith(RunInfoMetric, Label{"trace_id", tc.TraceID()}, Label{"name", tc.Name()}).Set(1)
}

// Gauge returns the named gauge, creating it if needed. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{dropped: r.dropped}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (ascending; nil or empty selects a default latency ladder, 1 µs
// to ~67 s in powers of four). Bounds are fixed
// at creation — later calls with different bounds return the existing
// instrument. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = defBuckets
		}
		h = &Histogram{bounds: append([]float64(nil), bounds...), dropped: r.dropped}
		h.counts = make([]atomic.Int64, len(h.bounds)+1)
		r.histograms[name] = h
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

// Add adds n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric.
type Gauge struct {
	bits    atomic.Uint64
	dropped *Counter
}

// Set records v. No-op on nil. A NaN or ±Inf value is dropped (and counted
// in obs_dropped_samples_total) so exposition output stays finite.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		g.dropped.Inc()
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (useful for level gauges like queue depth
// that are maintained by paired increments and decrements from concurrent
// goroutines). No-op on nil; a non-finite delta is dropped and counted like a
// non-finite Set.
func (g *Gauge) Add(delta float64) {
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
func (g *Gauge) Value() float64 {
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
var defBuckets = MustExpBuckets(1e-6, 4, 14)

// ExpBuckets returns n exponential bucket bounds lo, lo·factor, lo·factor², …
// It rejects degenerate layouts: lo must be positive and finite, factor > 1,
// and n >= 1 (anything else would produce non-ascending or non-finite
// bounds, which Histogram's binary search silently misclassifies).
func ExpBuckets(lo, factor float64, n int) ([]float64, error) {
	if !(lo > 0) || math.IsInf(lo, 1) {
		return nil, fmt.Errorf("obs: ExpBuckets lo must be a positive finite number, got %v", lo)
	}
	if !(factor > 1) || math.IsInf(factor, 1) {
		return nil, fmt.Errorf("obs: ExpBuckets factor must be a finite number > 1, got %v", factor)
	}
	if n < 1 {
		return nil, fmt.Errorf("obs: ExpBuckets needs n >= 1 buckets, got %d", n)
	}
	out := make([]float64, n)
	v := lo
	for i := range out {
		if math.IsInf(v, 1) {
			return nil, fmt.Errorf("obs: ExpBuckets overflows to +Inf at bucket %d (lo=%v factor=%v)", i, lo, factor)
		}
		out[i] = v
		v *= factor
	}
	return out, nil
}

// MustExpBuckets is ExpBuckets for static layouts; it panics on invalid
// arguments.
func MustExpBuckets(lo, factor float64, n int) []float64 {
	b, err := ExpBuckets(lo, factor, n)
	if err != nil {
		panic(err)
	}
	return b
}

// BucketCount is one histogram bucket in a snapshot: the count of
// observations at or below the upper bound LE (cumulative counts are left to
// consumers).
type BucketCount struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Metric is a point-in-time export of one instrument, JSONL-friendly (no
// ±Inf anywhere: overflow beyond the last histogram bound is a separate
// field).
type Metric struct {
	Name string `json:"name"`
	// Labels is the canonical rendered label block (`k="v",k2="v2"`), empty
	// for unlabeled instruments.
	Labels   string        `json:"labels,omitempty"`
	Kind     string        `json:"kind"` // "counter", "gauge", or "histogram"
	Value    float64       `json:"value,omitempty"`
	Count    int64         `json:"count,omitempty"`
	Sum      float64       `json:"sum,omitempty"`
	Buckets  []BucketCount `json:"buckets,omitempty"`
	Overflow int64         `json:"overflow,omitempty"`
}

// Snapshot exports every instrument, sorted by name (nil registry → nil).
// Concurrent observations during a snapshot may land in either side; each
// individual instrument read is atomic.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for key, c := range r.counters {
		name, labels := splitInstrKey(key)
		out = append(out, Metric{Name: name, Labels: labels, Kind: "counter", Value: float64(c.Value())})
	}
	for key, g := range r.gauges {
		name, labels := splitInstrKey(key)
		out = append(out, Metric{Name: name, Labels: labels, Kind: "gauge", Value: g.Value()})
	}
	for key, h := range r.histograms {
		name, labels := splitInstrKey(key)
		m := Metric{Name: name, Labels: labels, Kind: "histogram", Count: h.Count(), Sum: h.Sum()}
		for i, b := range h.bounds {
			if n := h.counts[i].Load(); n > 0 {
				m.Buckets = append(m.Buckets, BucketCount{LE: b, Count: n})
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
