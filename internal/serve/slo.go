package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// sloTracker turns the stream of /predict (latency, error) observations into
// a rolling service-level verdict: per window it keeps p50/p95/p99 latency
// and the error rate over ring-buffered bucket sketches (nearest rank,
// clamped to the window max: see sketch.quantile), compares them against
// Config.SLOP99 / SLOErr, computes the error-budget burn rate, and
// edge-triggers a breach transition the moment any window goes out of
// objective — firing predtop_slo_breach_total and the onBreach callback (the
// incident capture).
//
// Time never comes from the wall clock directly: every read goes through
// Config.sloNow when a test injects one, so tests drive window rotation
// deterministically. A nil *sloTracker (a daemon without objectives) is inert,
// and the per-observation path is allocation-free.
type sloTracker struct {
	p99, errBudget float64 // seconds and bad-request fraction; <= 0 disables one
	now            func() time.Time
	onBreach       func(sloSnapshot) // once per ok→breach edge, outside the lock
	breachC        *Counter
	breachG        *gauge

	mu       sync.Mutex
	windows  []*sloWindow
	worst    []worstEntry // kept sorted by latency, descending
	breached bool
	breaches int64
}

// The tracker's fixed shape: three rolling horizons, each carved into
// sloSlots ring slots (resolution Window/60, rotation retiring one slot at a
// time); a window with fewer than sloMinSamples observations never breaches,
// so an idle daemon's first slow request cannot page anyone; and the
// worst-recent-requests list holds sloWorstK entries.
var (
	sloWindows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}
	sloHorizon = sloWindows[len(sloWindows)-1] // the worst list's horizon
)

const (
	sloSlots      = 60
	sloMinSamples = 10
	sloWorstK     = 8
)

// Metric names exported by the SLO tracker.
const (
	sloLatencyMetric   = "predtop_slo_latency_seconds"
	sloErrorRateMetric = "predtop_slo_error_rate"
	sloBurnRateMetric  = "predtop_slo_burn_rate"
	sloBreachGauge     = "predtop_slo_breach"
	sloBreachesMetric  = "predtop_slo_breach_total"
)

// sloBuckets is the latency sketch ladder: 100µs to ~3.3s in powers of two,
// the same base ladder as the serving request histogram plus headroom; the
// overflow slot catches anything slower and reports the window max.
var sloBuckets = expBuckets(1e-4, 2, 15)

// sloWindow is one rolling horizon. Aggregate counts are maintained
// incrementally — observations add, retired slots subtract — so evaluating
// the window after each request is an O(buckets) scan, not an O(slots) merge.
type sloWindow struct {
	dur      time.Duration
	slotNS   int64 // dur / sloSlots in nanoseconds
	lastSlot int64 // absolute slot number of the ring head
	slots    []sloSlot
	agg      sloSlot
	breached bool

	p50, p95, p99, errRate, burn *gauge
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

// newSLOTracker returns the tracker for cfg's objectives, exporting its
// predtop_slo_* series through cfg.Metrics (nil: verdicts still accumulate).
func newSLOTracker(cfg Config, onBreach func(sloSnapshot)) *sloTracker {
	t := &sloTracker{
		p99:       cfg.SLOP99.Seconds(),
		errBudget: cfg.SLOErr,
		now:       cfg.sloNow,
		onBreach:  onBreach,
		breachC:   cfg.Metrics.Counter(sloBreachesMetric),
		breachG:   cfg.Metrics.gauge(sloBreachGauge),
		worst:     make([]worstEntry, 0, sloWorstK),
	}
	if t.now == nil {
		t.now = time.Now
	}
	t.breachG.Set(0)
	for _, d := range sloWindows {
		w := &sloWindow{dur: d, slotNS: int64(d) / sloSlots, slots: make([]sloSlot, sloSlots)}
		w.agg.sk = newSketch(sloBuckets)
		for i := range w.slots {
			w.slots[i].sk = newSketch(sloBuckets)
		}
		lbl := label{Key: "window", Value: d.String()}
		w.p50 = cfg.Metrics.gaugeWith(sloLatencyMetric, lbl, label{Key: "quantile", Value: "0.5"})
		w.p95 = cfg.Metrics.gaugeWith(sloLatencyMetric, lbl, label{Key: "quantile", Value: "0.95"})
		w.p99 = cfg.Metrics.gaugeWith(sloLatencyMetric, lbl, label{Key: "quantile", Value: "0.99"})
		w.errRate = cfg.Metrics.gaugeWith(sloErrorRateMetric, lbl)
		w.burn = cfg.Metrics.gaugeWith(sloBurnRateMetric, lbl)
		t.windows = append(t.windows, w)
	}
	return t
}

// Observe records one finished request: its latency in seconds, whether it
// failed (server-side errors only — a client's 4xx is not an SLO violation),
// and its raw trace/span ids for the worst-offender list. No-op on nil;
// allocation-free otherwise.
func (t *sloTracker) Observe(latency float64, isErr bool, trace, span uint64) {
	if t == nil {
		return
	}
	now := t.now()
	slow := t.p99 > 0 && latency > t.p99
	bi := sort.SearchFloat64s(sloBuckets, latency)

	t.mu.Lock()
	for _, w := range t.windows {
		w.rotate(now)
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
	if fired && t.onBreach != nil {
		t.onBreach(snap)
	}
}

// rotate advances w's ring head to now, zeroing (and subtracting from the
// aggregate) every slot the clock skipped. Caller holds the tracker's lock.
func (w *sloWindow) rotate(now time.Time) {
	cur := now.UnixNano() / w.slotNS
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

// quantile reads quantile q of w's live requests (see sketch.quantile for the
// rule). Caller holds the tracker's lock.
func (w *sloWindow) quantile(q float64) float64 {
	return w.agg.sk.quantile(sloBuckets, q, w.agg.max)
}

// evaluateLocked refreshes every window's gauges and breach verdict and
// returns whether the tracker just transitioned into breach (plus the
// snapshot to hand onBreach). Caller holds t.mu.
func (t *sloTracker) evaluateLocked(now time.Time) (fired bool, snap sloSnapshot) {
	any := false
	for _, w := range t.windows {
		p50, p95, p99 := w.quantile(0.50), w.quantile(0.95), w.quantile(0.99)
		errRate, burn := t.ratesLocked(w)
		w.p50.Set(p50)
		w.p95.Set(p95)
		w.p99.Set(p99)
		w.errRate.Set(errRate)
		w.burn.Set(burn)
		w.breached = w.agg.sk.n >= sloMinSamples &&
			((t.p99 > 0 && p99 > t.p99) || (t.errBudget > 0 && errRate > t.errBudget))
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
func (t *sloTracker) ratesLocked(w *sloWindow) (errRate, burn float64) {
	if w.agg.sk.n == 0 {
		return 0, 0
	}
	total := float64(w.agg.sk.n)
	errRate = float64(w.agg.errs) / total
	if t.errBudget > 0 {
		burn = (float64(w.agg.errs+w.agg.slow) / total) / t.errBudget
	}
	return errRate, burn
}

// noteWorst offers one request to the bounded worst list. Entries past the
// horizon are purged first so a stale excursion cannot crowd out the live
// offenders a fresh breach needs to name. Caller holds t.mu.
func (t *sloTracker) noteWorst(lat float64, trace, span uint64, at int64) {
	live := t.worst[:0]
	for _, e := range t.worst {
		if e.at >= at-int64(sloHorizon) {
			live = append(live, e)
		}
	}
	t.worst = live
	if len(t.worst) == sloWorstK && lat <= t.worst[sloWorstK-1].lat {
		return
	}
	e := worstEntry{lat: lat, trace: trace, span: span, at: at}
	if len(t.worst) < sloWorstK {
		t.worst = append(t.worst, e)
	} else {
		t.worst[sloWorstK-1] = e
	}
	for i := len(t.worst) - 1; i > 0 && t.worst[i].lat > t.worst[i-1].lat; i-- {
		t.worst[i], t.worst[i-1] = t.worst[i-1], t.worst[i]
	}
}

// sloWindowStats is one window's contribution to a snapshot.
type sloWindowStats struct {
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

// worstRequest is one entry of the worst-recent-requests list: the request's
// latency, its rendered trace/span ids (joining it to the access log and the
// flight recorder), and when it finished.
type worstRequest struct {
	LatencySeconds float64 `json:"latency_s"`
	TraceID        string  `json:"trace_id"`
	SpanID         string  `json:"span_id"`
	AtUnixNano     int64   `json:"t_unix_ns"`
}

// sloSnapshot is a point-in-time read of the tracker: every window's stats,
// the overall breach state and count of ok→breach edges, and the worst
// recent requests (slowest first).
type sloSnapshot struct {
	P99Objective float64          `json:"p99_objective_s"`
	ErrObjective float64          `json:"err_objective"`
	Windows      []sloWindowStats `json:"windows"`
	Breached     bool             `json:"breached"`
	Breaches     int64            `json:"breaches"`
	Worst        []worstRequest   `json:"worst,omitempty"`
}

// Snapshot returns the tracker's current verdicts (rotating windows to the
// injected clock first). Zero value on a nil tracker.
func (t *sloTracker) Snapshot() sloSnapshot {
	if t == nil {
		return sloSnapshot{}
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range t.windows {
		w.rotate(now)
	}
	// Rotation may have retired the traffic that caused a breach; refresh the
	// verdict so an idle tracker recovers without needing new requests.
	t.evaluateLocked(now)
	return t.snapshotLocked(now)
}

// snapshotLocked builds a snapshot from current state. Caller holds t.mu.
func (t *sloTracker) snapshotLocked(now time.Time) sloSnapshot {
	snap := sloSnapshot{
		P99Objective: t.p99,
		ErrObjective: t.errBudget,
		Breached:     t.breached,
		Breaches:     t.breaches,
	}
	for _, w := range t.windows {
		errRate, burn := t.ratesLocked(w)
		snap.Windows = append(snap.Windows, sloWindowStats{
			Window: w.dur, Total: w.agg.sk.n, Errors: w.agg.errs, Slow: w.agg.slow,
			P50: w.quantile(0.50), P95: w.quantile(0.95), P99: w.quantile(0.99),
			ErrRate: errRate, BurnRate: burn, Breached: w.breached,
		})
	}
	// Entries older than the longest window no longer explain the current
	// verdict; drop them from the view (the ring itself keeps them until
	// displaced, which is fine — they can only come back into view on a
	// clock that moved backwards, which the injected clocks never do).
	cutoff := now.Add(-sloHorizon).UnixNano()
	for _, e := range t.worst {
		if e.at < cutoff {
			continue
		}
		snap.Worst = append(snap.Worst, worstRequest{
			LatencySeconds: e.lat, TraceID: fmt.Sprintf("%016x", e.trace),
			SpanID: fmt.Sprintf("%016x", e.span), AtUnixNano: e.at,
		})
	}
	return snap
}
