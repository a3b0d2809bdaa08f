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
// shared by name afterwards, served as GET /metrics and snapshotted into
// predtop-serve's final metrics record. Every instrument is safe for
// concurrent use and only observes: nothing it holds feeds back into a
// prediction.
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

// Counter returns the named counter, creating it if needed. A nil registry
// returns a nil (no-op) counter.
func (r *Metrics) Counter(name string) *Counter {
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

// label is one metric dimension (e.g. {endpoint="/predict"}). Labeled
// instruments share the base name in the Prometheus exposition; the label
// block distinguishes the series.
type label struct {
	Key   string
	Value string
}

// labelSep joins a base name and its rendered label block in the internal
// instrument key; '\x00' cannot appear in either half.
const labelSep = "\x00"

// renderLabels produces the canonical inner label block `k="v",k2="v2"`:
// labels sorted by key, keys sanitized to the Prometheus charset, values
// escaped per the text exposition format, so a quote, backslash or newline in
// any value cannot break a scraper's parse. Empty input renders "".
func renderLabels(labels []label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeMetricName(l.Key))
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
func instrKey(name string, labels []label) string {
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

// counterWith returns the counter for (name, labels), creating it if needed.
// Labels are canonicalized (sorted by key, values escaped), so call order
// does not create duplicate series. A nil registry returns a nil counter.
func (r *Metrics) counterWith(name string, labels ...label) *Counter {
	if r == nil {
		return nil
	}
	return r.Counter(instrKey(name, labels))
}

// gaugeWith returns the gauge for (name, labels), creating it if needed (see
// counterWith for label canonicalization). A nil registry returns nil.
func (r *Metrics) gaugeWith(name string, labels ...label) *gauge {
	if r == nil {
		return nil
	}
	return r.gauge(instrKey(name, labels))
}

// histogramWith returns the histogram for (name, labels), creating it with
// the given bucket bounds if needed (see counterWith for label
// canonicalization and Histogram for bound semantics). Labeled series of one
// name share a TYPE header in the Prometheus exposition, with the label block
// merged into each _bucket/_sum/_count line. A nil registry returns nil.
func (r *Metrics) histogramWith(name string, bounds []float64, labels ...label) *Histogram {
	if r == nil {
		return nil
	}
	return r.Histogram(instrKey(name, labels), bounds)
}

// runInfoMetric is the info-style gauge carrying the daemon's trace id as a
// label (value constant 1), the hook that makes a trace id greppable in the
// Prometheus exposition.
const runInfoMetric = "predtop_run_info"

// setRunInfo publishes the daemon's trace identity as predtop_run_info
// {trace_id="…",name="…"} = 1. No-op when the registry or tc is nil.
func (r *Metrics) setRunInfo(tc *obs.TraceContext) {
	if r == nil || tc == nil {
		return
	}
	r.gaugeWith(runInfoMetric, label{"trace_id", tc.TraceID()}, label{"name", tc.Name()}).Set(1)
}

// gauge returns the named gauge, creating it if needed. A nil registry
// returns a nil (no-op) gauge.
func (r *Metrics) gauge(name string) *gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &gauge{dropped: r.dropped}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (ascending; nil or empty selects a default latency ladder, 1 µs
// to ~67 s in powers of four). Bounds are fixed
// at creation — later calls with different bounds return the existing
// instrument. A nil registry returns a nil (no-op) histogram.
func (r *Metrics) Histogram(name string, bounds []float64) *Histogram {
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
	// Labels is the canonical rendered label block (`k="v",k2="v2"`), empty
	// for unlabeled instruments.
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
