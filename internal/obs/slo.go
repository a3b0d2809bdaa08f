package obs

import (
	"sort"
	"sync"
	"time"
)

// SLOTracker turns a stream of request (latency, error) observations into a
// rolling service-level verdict: per window (1m/5m/1h by default) it keeps
// p50/p95/p99 latency and the error rate over ring-buffered bucket sketches
// (nearest rank, clamped to the window max: see sketch.quantile),
// compares them against configured objectives, computes the error-budget burn
// rate, and edge-triggers a breach transition the moment any window goes out
// of objective — firing predtop_slo_breach_total, the OnBreach callback, and
// (through the serving layer) the incident-capture pipeline.
//
// Time never comes from the wall clock directly: every read goes through the
// injectable SLOConfig.Now, so tests drive window rotation deterministically.
// Like every obs instrument, a nil *SLOTracker is fully inert and the
// per-observation path is allocation-free.
type SLOTracker struct {
	cfg     SLOConfig
	bounds  []float64 // latency bucket upper bounds, seconds
	slotNS  []int64   // per-window slot duration in nanoseconds
	breachC *Counter
	breachG *Gauge

	longest time.Duration // widest window; the worst-list horizon

	mu       sync.Mutex
	windows  []*sloWindow
	worst    []worstEntry // kept sorted by latency, descending
	breached bool
	breaches int64
}

// SLOConfig configures a tracker. The zero value plus objectives is usable:
// default windows 1m/5m/1h, 10-sample arming, wall-clock time.
type SLOConfig struct {
	// P99Objective is the latency objective in seconds: a window whose p99
	// exceeds it is in breach, and every request slower than it consumes
	// error budget. <= 0 disables the latency objective.
	P99Objective float64
	// ErrObjective is the tolerated bad-request fraction (errors + requests
	// over the latency objective), i.e. the error budget. A window whose bad
	// fraction exceeds it is in breach; burn rate is bad-fraction divided by
	// this budget. <= 0 disables the error objective (burn rate reads 0).
	ErrObjective float64
	// Windows are the rolling horizons (default 1m, 5m, 1h). Each is carved
	// into sloSlots ring slots, so resolution is Window/60.
	Windows []time.Duration
	// MinSamples arms breach detection per window: a window with fewer
	// observations never breaches, so an idle daemon's first slow request
	// cannot page anyone (default 10).
	MinSamples int
	// WorstK bounds the worst-recent-requests list surfaced by Snapshot and
	// the breach records (default 8).
	WorstK int
	// Now is the clock (default time.Now); tests inject a manual one.
	Now func() time.Time
	// Metrics receives the predtop_slo_* gauges and the breach counter. Nil
	// disables export (verdicts still accumulate).
	Metrics *Registry
	// OnBreach fires once per ok→breach transition (edge-triggered, outside
	// the tracker lock) with the snapshot that crossed the line.
	OnBreach func(SLOSnapshot)
}

// Metric names exported by the SLO tracker.
const (
	SLOLatencyMetric   = "predtop_slo_latency_seconds"
	SLOErrorRateMetric = "predtop_slo_error_rate"
	SLOBurnRateMetric  = "predtop_slo_burn_rate"
	SLOBreachGauge     = "predtop_slo_breach"
	SLOBreachesMetric  = "predtop_slo_breach_total"
)

// sloSlots is the ring length of every window: resolution is Window/60 (1s
// slots for the 1m window), and rotation retires exactly one slot at a time.
const sloSlots = 60

// sloBuckets is the latency sketch ladder: 100µs to ~3.3s in powers of two,
// the same base ladder as the serving request histogram plus headroom; the
// overflow slot catches anything slower and reports the window max.
var sloBuckets = MustExpBuckets(1e-4, 2, 15)

// sloWindow is one rolling horizon. Aggregate counts are maintained
// incrementally — observations add, retired slots subtract — so evaluating
// the window after each request is an O(buckets) scan, not an O(slots) merge.
type sloWindow struct {
	dur      time.Duration
	lastSlot int64 // absolute slot number of the ring head
	slots    []sloSlot
	agg      sloSlot
	breached bool

	p50, p95, p99, errRate, burn *Gauge
}

// sloSlot is one slot's (or the aggregate's) counts.
type sloSlot struct {
	sk   sketch // latency sketch over sloBuckets; its n is the request total
	errs int64
	slow int64   // over the latency objective
	max  float64 // slowest request; the aggregate's is refreshed on rotation
}

func (s *sloSlot) reset() {
	s.sk.reset()
	s.errs, s.slow, s.max = 0, 0, 0
}

// worstEntry is one candidate for the worst-recent-requests list.
type worstEntry struct {
	lat         float64
	trace, span uint64
	at          int64 // unix nanoseconds, from the injected clock
}

// NewSLOTracker returns an enabled tracker.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	if len(cfg.Windows) == 0 {
		cfg.Windows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 10
	}
	if cfg.WorstK <= 0 {
		cfg.WorstK = 8
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	t := &SLOTracker{
		cfg:     cfg,
		bounds:  sloBuckets,
		breachC: cfg.Metrics.Counter(SLOBreachesMetric),
		breachG: cfg.Metrics.Gauge(SLOBreachGauge),
	}
	for _, d := range cfg.Windows {
		if d > t.longest {
			t.longest = d
		}
	}
	t.breachG.Set(0)
	for _, d := range cfg.Windows {
		if d <= 0 {
			continue
		}
		w := &sloWindow{dur: d, slots: make([]sloSlot, sloSlots)}
		w.agg.sk = newSketch(t.bounds)
		for i := range w.slots {
			w.slots[i].sk = newSketch(t.bounds)
		}
		lbl := Label{Key: "window", Value: d.String()}
		w.p50 = cfg.Metrics.GaugeWith(SLOLatencyMetric, lbl, Label{Key: "quantile", Value: "0.5"})
		w.p95 = cfg.Metrics.GaugeWith(SLOLatencyMetric, lbl, Label{Key: "quantile", Value: "0.95"})
		w.p99 = cfg.Metrics.GaugeWith(SLOLatencyMetric, lbl, Label{Key: "quantile", Value: "0.99"})
		w.errRate = cfg.Metrics.GaugeWith(SLOErrorRateMetric, lbl)
		w.burn = cfg.Metrics.GaugeWith(SLOBurnRateMetric, lbl)
		t.windows = append(t.windows, w)
		t.slotNS = append(t.slotNS, int64(d)/sloSlots)
	}
	t.worst = make([]worstEntry, 0, cfg.WorstK)
	return t
}

// Observe records one finished request: its latency in seconds, whether it
// failed (server-side errors only — a client's 4xx is not an SLO violation),
// and its raw trace/span ids for the worst-offender list. No-op on nil;
// allocation-free otherwise.
func (t *SLOTracker) Observe(latency float64, isErr bool, trace, span uint64) {
	if t == nil {
		return
	}
	now := t.cfg.Now()
	slow := t.cfg.P99Objective > 0 && latency > t.cfg.P99Objective
	bi := sort.SearchFloat64s(t.bounds, latency)

	t.mu.Lock()
	for i, w := range t.windows {
		t.rotate(w, t.slotNS[i], now)
		slot := &w.slots[w.lastSlot%sloSlots]
		slot.sk.add(bi)
		w.agg.sk.add(bi)
		slot.max = max(slot.max, latency)
		w.agg.max = max(w.agg.max, latency)
		if isErr {
			slot.errs++
			w.agg.errs++
		}
		if slow {
			slot.slow++
			w.agg.slow++
		}
	}
	t.noteWorst(latency, trace, span, now.UnixNano())
	fired, snap := t.evaluateLocked(now)
	t.mu.Unlock()
	if fired && t.cfg.OnBreach != nil {
		t.cfg.OnBreach(snap)
	}
}

// rotate advances w's ring head to now, zeroing (and subtracting from the
// aggregate) every slot the clock skipped. Caller holds t.mu.
func (t *SLOTracker) rotate(w *sloWindow, slotNS int64, now time.Time) {
	cur := now.UnixNano() / slotNS
	if w.lastSlot == 0 && w.agg.sk.n == 0 {
		w.lastSlot = cur // first observation: adopt the clock without sweeping
		return
	}
	if cur <= w.lastSlot {
		return
	}
	steps := cur - w.lastSlot
	if steps > sloSlots {
		steps = sloSlots // everything expired; one full sweep is enough
	}
	for s := int64(1); s <= steps; s++ {
		slot := &w.slots[(w.lastSlot+s)%sloSlots]
		w.agg.sk.sub(&slot.sk)
		w.agg.errs -= slot.errs
		w.agg.slow -= slot.slow
		slot.reset()
	}
	w.lastSlot = cur
	w.agg.max = 0
	for i := range w.slots {
		w.agg.max = max(w.agg.max, w.slots[i].max)
	}
}

// quantileLocked reads quantile q of w's live requests (see sketch.quantile
// for the rule). Caller holds t.mu.
func (t *SLOTracker) quantileLocked(w *sloWindow, q float64) float64 {
	return w.agg.sk.quantile(t.bounds, q, w.agg.max)
}

// evaluateLocked refreshes every window's gauges and breach verdict and
// returns whether the tracker just transitioned into breach (plus the
// snapshot to hand OnBreach). Caller holds t.mu.
func (t *SLOTracker) evaluateLocked(now time.Time) (fired bool, snap SLOSnapshot) {
	any := false
	for _, w := range t.windows {
		p50 := t.quantileLocked(w, 0.50)
		p95 := t.quantileLocked(w, 0.95)
		p99 := t.quantileLocked(w, 0.99)
		errRate, burn := t.ratesLocked(w)
		w.p50.Set(p50)
		w.p95.Set(p95)
		w.p99.Set(p99)
		w.errRate.Set(errRate)
		w.burn.Set(burn)
		w.breached = w.agg.sk.n >= int64(t.cfg.MinSamples) &&
			((t.cfg.P99Objective > 0 && p99 > t.cfg.P99Objective) ||
				(t.cfg.ErrObjective > 0 && errRate > t.cfg.ErrObjective))
		any = any || w.breached
	}
	fired = any && !t.breached
	if fired {
		t.breaches++
		t.breachC.Inc()
	}
	t.breached = any
	if any {
		t.breachG.Set(1)
	} else {
		t.breachG.Set(0)
	}
	if fired {
		snap = t.snapshotLocked(now)
	}
	return fired, snap
}

// ratesLocked computes w's error rate (errors/total, server errors only) and
// burn rate (bad fraction over the error budget, where bad = errors + slow).
// A zero-traffic window reads 0 for both. Caller holds t.mu.
func (t *SLOTracker) ratesLocked(w *sloWindow) (errRate, burn float64) {
	if w.agg.sk.n == 0 {
		return 0, 0
	}
	total := float64(w.agg.sk.n)
	errRate = float64(w.agg.errs) / total
	if t.cfg.ErrObjective > 0 {
		burn = (float64(w.agg.errs+w.agg.slow) / total) / t.cfg.ErrObjective
	}
	return errRate, burn
}

// noteWorst offers one request to the bounded worst list. Entries past the
// horizon are purged first so a stale excursion cannot crowd out the live
// offenders a fresh breach needs to name. Caller holds t.mu.
func (t *SLOTracker) noteWorst(lat float64, trace, span uint64, at int64) {
	live := t.worst[:0]
	for _, e := range t.worst {
		if e.at >= at-int64(t.longest) {
			live = append(live, e)
		}
	}
	t.worst = live
	k := t.cfg.WorstK
	if len(t.worst) == k && lat <= t.worst[k-1].lat {
		return
	}
	e := worstEntry{lat: lat, trace: trace, span: span, at: at}
	if len(t.worst) < k {
		t.worst = append(t.worst, e)
	} else {
		t.worst[k-1] = e
	}
	for i := len(t.worst) - 1; i > 0 && t.worst[i].lat > t.worst[i-1].lat; i-- {
		t.worst[i], t.worst[i-1] = t.worst[i-1], t.worst[i]
	}
}

// SLOWindowStats is one window's contribution to a snapshot.
type SLOWindowStats struct {
	Window   time.Duration `json:"window_ns"`
	Total    int64         `json:"total"`
	Errors   int64         `json:"errors"`
	Slow     int64         `json:"slow"`
	P50      float64       `json:"p50_s"`
	P95      float64       `json:"p95_s"`
	P99      float64       `json:"p99_s"`
	ErrRate  float64       `json:"err_rate"`
	BurnRate float64       `json:"burn_rate"`
	Breached bool          `json:"breached"`
}

// WorstRequest is one entry of the worst-recent-requests list: the request's
// latency, its rendered trace/span ids (joining it to the access log and the
// flight recorder), and when it finished.
type WorstRequest struct {
	LatencySeconds float64 `json:"latency_s"`
	TraceID        string  `json:"trace_id"`
	SpanID         string  `json:"span_id"`
	AtUnixNano     int64   `json:"t_unix_ns"`
}

// SLOSnapshot is a point-in-time read of the tracker: every window's stats,
// the overall breach state, and the worst recent requests (newest horizons
// first, slowest requests first).
type SLOSnapshot struct {
	P99Objective float64          `json:"p99_objective_s"`
	ErrObjective float64          `json:"err_objective"`
	Windows      []SLOWindowStats `json:"windows"`
	Breached     bool             `json:"breached"`
	Breaches     int64            `json:"breaches"`
	Worst        []WorstRequest   `json:"worst,omitempty"`
}

// Snapshot returns the tracker's current verdicts (rotating windows to the
// injected clock first). Zero value on a nil tracker.
func (t *SLOTracker) Snapshot() SLOSnapshot {
	if t == nil {
		return SLOSnapshot{}
	}
	now := t.cfg.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, w := range t.windows {
		t.rotate(w, t.slotNS[i], now)
	}
	// Rotation may have retired the traffic that caused a breach; refresh the
	// verdict so an idle tracker recovers without needing new requests.
	t.evaluateLocked(now)
	return t.snapshotLocked(now)
}

// snapshotLocked builds a snapshot from current state. Caller holds t.mu.
func (t *SLOTracker) snapshotLocked(now time.Time) SLOSnapshot {
	snap := SLOSnapshot{
		P99Objective: t.cfg.P99Objective,
		ErrObjective: t.cfg.ErrObjective,
		Breached:     t.breached,
		Breaches:     t.breaches,
	}
	for _, w := range t.windows {
		errRate, burn := t.ratesLocked(w)
		snap.Windows = append(snap.Windows, SLOWindowStats{
			Window: w.dur, Total: w.agg.sk.n, Errors: w.agg.errs, Slow: w.agg.slow,
			P50: t.quantileLocked(w, 0.50), P95: t.quantileLocked(w, 0.95),
			P99:     t.quantileLocked(w, 0.99),
			ErrRate: errRate, BurnRate: burn, Breached: w.breached,
		})
	}
	// Entries older than the longest window no longer explain the current
	// verdict; drop them from the view (the ring itself keeps them until
	// displaced, which is fine — they can only come back into view on a
	// clock that moved backwards, which the injected clocks never do).
	horizon := now.Add(-t.longest).UnixNano()
	for _, e := range t.worst {
		if e.at < horizon {
			continue
		}
		snap.Worst = append(snap.Worst, WorstRequest{
			LatencySeconds: e.lat, TraceID: hex16(e.trace), SpanID: hex16(e.span),
			AtUnixNano: e.at,
		})
	}
	return snap
}

// Breached reports the current overall breach state (false on nil).
func (t *SLOTracker) Breached() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.breached
}

// Breaches returns the number of ok→breach transitions so far (0 on nil).
func (t *SLOTracker) Breaches() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.breaches
}
