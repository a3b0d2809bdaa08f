package obs

import (
	"math"
	"sort"
	"sync"
)

// AccuracyMonitor streams predicted-vs-actual latency residuals so prediction
// quality is watched online, not only in offline tables: per key it keeps a
// Welford mean/variance of the absolute relative error, the max, and a fixed
// log-bucket quantile sketch for P50/P95. Groups are keyed by model family,
// mesh shape, and op/benchmark name, mirroring the paper's Table V axes.
//
// With a registry attached (the serving daemon) every Observe refreshes the
// labeled predtop_accuracy_mre gauge and predtop_accuracy_samples_total. A
// configurable drift threshold logs a warning the moment a group's running
// MRE crosses it (edge-triggered; re-arms when it recovers) and marks the
// group drifted. The full statistics — quantiles, max and the drifted mark —
// are read with Stats and written by EmitTo.
//
// The monitor only observes — it never feeds back into training or planning,
// so determinism is untouched. A nil *AccuracyMonitor is fully inert and its
// disabled path allocation-free.
type AccuracyMonitor struct {
	cfg    AccuracyConfig
	bounds []float64 // quantile-sketch bucket upper bounds, in percent

	mu     sync.Mutex
	groups map[AccuracyKey]*accGroup
}

// AccuracyKey identifies one residual population. Empty fields are legal and
// simply render as empty labels.
type AccuracyKey struct {
	Family string // predictor family, e.g. "PredTOP-Tran"
	Mesh   string // mesh shape, e.g. "2x8"
	Op     string // op type / benchmark, e.g. "GPT3"
}

// AccuracyConfig configures a monitor (zero value is usable).
type AccuracyConfig struct {
	// DriftThresholdPct arms drift detection: when a group's running mean
	// absolute relative error (in percent) exceeds it, the monitor logs one
	// warning per excursion and reports the group as Drifted until it
	// recovers. <= 0 disables drift detection.
	DriftThresholdPct float64
	// MinSamples gates drift detection so a group's first noisy residuals
	// cannot trip it (default 16).
	MinSamples int
	// Metrics receives the labeled MRE gauge and sample counter. Nil
	// disables metric export (observations still accumulate).
	Metrics *Registry
	// Log receives drift warnings; nil silences them.
	Log *Logger
}

// Metric names exported by the accuracy monitor.
const (
	AccuracyMREMetric     = "predtop_accuracy_mre"
	AccuracySamplesMetric = "predtop_accuracy_samples_total"
)

// accGroup is one key's streaming state. Instruments are resolved once at
// group creation so the per-observation path does no map lookups or
// allocation.
type accGroup struct {
	mean    float64 // Welford running mean of |rel err| in percent
	m2      float64 // Welford sum of squared deviations
	maxErr  float64
	sk      sketch // its n is the group's sample count
	drifted bool

	mre     *Gauge
	samples *Counter
}

// accBounds is the quantile-sketch ladder: 0.01% to ~1.3e4% relative error in
// ~21% steps, giving sub-bucket-width quantile resolution over the whole
// range a latency predictor can plausibly produce.
var accBounds = MustExpBuckets(0.01, 1.21, 74)

// NewAccuracyMonitor returns an enabled monitor.
func NewAccuracyMonitor(cfg AccuracyConfig) *AccuracyMonitor {
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 16
	}
	return &AccuracyMonitor{cfg: cfg, bounds: accBounds, groups: map[AccuracyKey]*accGroup{}}
}

// group returns key's state, creating it (and resolving its instruments) on
// first use. Caller holds m.mu.
func (m *AccuracyMonitor) group(key AccuracyKey) *accGroup {
	g, ok := m.groups[key]
	if !ok {
		labels := []Label{{"family", key.Family}, {"mesh", key.Mesh}, {"op", key.Op}}
		g = &accGroup{
			sk:      newSketch(m.bounds),
			mre:     m.cfg.Metrics.GaugeWith(AccuracyMREMetric, labels...),
			samples: m.cfg.Metrics.CounterWith(AccuracySamplesMetric, labels...),
		}
		m.groups[key] = g
	}
	return g
}

// Observe records one predicted-vs-actual pair. Non-finite inputs and
// non-positive actuals are dropped (a relative error against them is
// meaningless). No-op on a nil monitor.
func (m *AccuracyMonitor) Observe(key AccuracyKey, predicted, actual float64) {
	if m == nil {
		return
	}
	if !(actual > 0) || math.IsInf(actual, 0) || math.IsNaN(predicted) || math.IsInf(predicted, 0) {
		return
	}
	errPct := math.Abs(predicted-actual) / actual * 100

	m.mu.Lock()
	g := m.group(key)
	g.sk.add(sort.SearchFloat64s(m.bounds, errPct))
	delta := errPct - g.mean
	g.mean += delta / float64(g.sk.n)
	g.m2 += delta * (errPct - g.mean)
	if errPct > g.maxErr {
		g.maxErr = errPct
	}
	mean, n := g.mean, g.sk.n

	driftCrossed := false
	if m.cfg.DriftThresholdPct > 0 && n >= int64(m.cfg.MinSamples) {
		if mean > m.cfg.DriftThresholdPct && !g.drifted {
			g.drifted = true
			driftCrossed = true
		} else if mean <= m.cfg.DriftThresholdPct {
			g.drifted = false // re-arm after recovery
		}
	}
	mreG, samplesC := g.mre, g.samples
	m.mu.Unlock()

	mreG.Set(mean)
	samplesC.Inc()
	if driftCrossed {
		m.cfg.Log.Printf("obs: accuracy drift: family=%q mesh=%q op=%q MRE %.2f%% > threshold %.2f%% after %d samples",
			key.Family, key.Mesh, key.Op, mean, m.cfg.DriftThresholdPct, n)
	}
}

// AccuracyStats is a point-in-time read of one group. All error figures are
// absolute relative errors in percent; P50/P95 carry quantile-sketch
// granularity (the bucket upper bound, ~21% relative spacing).
type AccuracyStats struct {
	N       int64   `json:"n"`
	MeanPct float64 `json:"mre_pct"`
	StdPct  float64 `json:"std_pct"`
	P50Pct  float64 `json:"p50_pct"`
	P95Pct  float64 `json:"p95_pct"`
	MaxPct  float64 `json:"max_pct"`
	Drifted bool    `json:"drifted,omitempty"`
}

// Stats returns key's current statistics (ok=false when the key has no
// observations or the monitor is nil).
func (m *AccuracyMonitor) Stats(key AccuracyKey) (AccuracyStats, bool) {
	if m == nil {
		return AccuracyStats{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.groups[key]
	if !ok || g.sk.n == 0 {
		return AccuracyStats{}, false
	}
	return m.statsLocked(g), true
}

func (m *AccuracyMonitor) statsLocked(g *accGroup) AccuracyStats {
	std := 0.0
	if g.sk.n > 1 {
		std = math.Sqrt(g.m2 / float64(g.sk.n-1))
	}
	return AccuracyStats{
		N: g.sk.n, MeanPct: g.mean, StdPct: std,
		P50Pct: g.sk.quantile(m.bounds, 0.50, g.maxErr), P95Pct: g.sk.quantile(m.bounds, 0.95, g.maxErr),
		MaxPct: g.maxErr, Drifted: g.drifted,
	}
}

// Keys returns every observed key, sorted (nil monitor → nil).
func (m *AccuracyMonitor) Keys() []AccuracyKey {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]AccuracyKey, 0, len(m.groups))
	for k := range m.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		if a.Mesh != b.Mesh {
			return a.Mesh < b.Mesh
		}
		return a.Op < b.Op
	})
	return keys
}

// accuracyRecord is the JSONL shape EmitTo writes per group.
type accuracyRecord struct {
	Event  string `json:"event"`
	Family string `json:"family,omitempty"`
	Mesh   string `json:"mesh,omitempty"`
	Op     string `json:"op,omitempty"`
	AccuracyStats
}

// EmitTo writes one {"event":"accuracy"} JSONL record per observed key to
// the sink, in sorted key order. No-op when either side is nil.
func (m *AccuracyMonitor) EmitTo(s *Sink) {
	if m == nil || s == nil {
		return
	}
	for _, key := range m.Keys() {
		m.mu.Lock()
		g := m.groups[key]
		var stats AccuracyStats
		if g != nil {
			stats = m.statsLocked(g)
		}
		m.mu.Unlock()
		if stats.N == 0 {
			continue
		}
		s.Emit(accuracyRecord{
			Event: "accuracy", Family: key.Family, Mesh: key.Mesh, Op: key.Op,
			AccuracyStats: stats,
		})
	}
}
