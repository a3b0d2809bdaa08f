package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runCfg is what one run was asked to do.
type runCfg struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks every size to one rep and 200 requests so that the
	// package's tests exercise every code path in seconds.
	smoke  bool
	outDir string
}

// result is one workload's run. metrics holds the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one; exact holds the
// outputs that must repeat bit for bit between two runs of one seed.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]sample
	exact     string
	// phases are the sent/succeeded/failed lines of the load generator.
	phases []string
}

// Set-up is repeated so that setup_s is a median: at least setupMinReps
// times, then until setupBudget is spent. A model build of milliseconds gets
// the full count, a one-second daemon set-up the minimum.
const (
	setupMinReps = 3
	setupMaxReps = 25
	setupBudget  = time.Second
)

// repeatSetup runs build repeatedly, tearing each product down before the
// next is built, and returns the last product with the median build time.
func repeatSetup[T any](cfg runCfg, build func() (T, error), teardown func(T)) (T, sample, error) {
	var last T
	var times []time.Duration
	total := time.Duration(0)
	for len(times) < setupMinReps || (total < setupBudget && len(times) < setupMaxReps) {
		if len(times) > 0 && teardown != nil {
			teardown(last)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, sample{}, err
		}
		d := time.Since(t0)
		last, times, total = v, append(times, d), total+d
		if cfg.smoke {
			break
		}
	}
	return last, sample{median(seconds(times)), len(times)}, nil
}

// memCounters is the part of runtime.MemStats the per-layer runtime metrics
// are differences of.
type memCounters struct {
	mallocs, bytes, pauseNs uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs}
}

// putRuntime reports allocation and GC cost between two readings, per op.
func putRuntime(out map[string]sample, before, after memCounters, ops int) {
	n := float64(ops)
	out["runtime.allocs_per_op"] = sample{float64(after.mallocs-before.mallocs) / n, ops}
	out["runtime.alloc_mb_per_op"] = sample{float64(after.bytes-before.bytes) / 1e6 / n, ops}
	out["runtime.gc_pause_ms"] = sample{float64(after.pauseNs-before.pauseNs) / 1e6, ops}
	out["runtime.peak_rss_mb"] = sample{peakRSSMB(), 1}
}

// peakRSSMB reads the process's resident-set high-water mark (0 where
// /proc is not available).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1e3
		}
	}
	return 0
}

// runReps runs a rep-based workload: the inputs built repeatedly, one warm-up
// rep whose outputs become the reference, then timed reps. The warm-up rep is
// set-up a user pays as well, so setup_s is the median build plus that one
// rep; repeating it with the build would spend a quarter of the run on it.
func runReps(cfg runCfg, name string, setup func(runCfg) (*repWorkload, error)) (*result, error) {
	w, setupS, err := repeatSetup(cfg, func() (*repWorkload, error) { return setup(cfg) }, nil)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ref := w.rep(nil, 0, 0)
	setupS.Value += time.Since(t0).Seconds()
	res := &result{workload: name, metrics: map[string]sample{}, exact: ref.sig, attempted: 1}
	timed := func(rec *recorder, id int) time.Duration {
		t0 := time.Now()
		root := rec.begin("rep", 0, id)
		o := w.rep(rec, root, id)
		rec.end(root)
		d := time.Since(t0)
		res.attempted++
		if !o.ok || o.sig != ref.sig {
			res.failed++
		}
		return d
	}
	if !ref.ok {
		res.failed++
	}

	if !cfg.trace {
		var reps []time.Duration
		for start := time.Now(); len(reps) == 0 ||
			(!cfg.smoke && (len(reps) < minReps || time.Since(start).Seconds() < cfg.seconds)); {
			reps = append(reps, timed(nil, len(reps)+1))
		}
		// Nine to thirteen reps support no percentile above the median (see
		// tail in stats.go), so op_tail_ms reads the median as well.
		asc := sorted(seconds(reps))
		mid := median(asc)
		res.phases = append(res.phases, fmt.Sprintf("reps n=%d fastest=%.1f ms median=%.1f ms slowest=%.1f ms",
			len(asc), asc[0]*1e3, mid*1e3, asc[len(asc)-1]*1e3))
		_, tailS := tail(asc)
		res.metrics["setup_s"] = setupS
		res.metrics["op_p50_ms"] = sample{mid * 1e3, len(asc)}
		res.metrics["op_tail_ms"] = sample{tailS * 1e3, len(asc)}
		res.metrics["throughput_per_s"] = sample{w.units / mid, len(asc)}
		return res, nil
	}

	// Traced run: untraced and traced reps alternate, so that drift of the
	// host over the run lands on both sides of the overhead comparison.
	pairs := 3
	if cfg.smoke {
		pairs = 1
	}
	rec := newRecorder()
	var bare, traced []time.Duration
	before := readMem()
	for i := 0; i < pairs; i++ {
		bare = append(bare, timed(nil, 2*i+1))
		traced = append(traced, timed(rec, 2*i+2))
	}
	putRuntime(res.metrics, before, readMem(), 2*pairs)
	for k, v := range ref.quality {
		res.metrics[k] = sample{v, 1}
	}
	b, t := median(seconds(bare)), median(seconds(traced))
	res.metrics["trace.overhead_share"] = sample{(t - b) / b, pairs}
	spanMetrics(res.metrics, rec.spans)
	return res, writeTrace(cfg, rec, name)
}

// writeTrace stores a run's spans under the output directory.
func writeTrace(cfg runCfg, rec *recorder, workload string) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if err := rec.write(filepath.Join(cfg.outDir, "trace-"+workload+".json"), workload); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// spanMetrics derives the metrics that come from a workload's own spans:
// how much of each rep the layer spans cover, and the planner's breakdown.
// Span names a workload never records leave their metrics at 0.
func spanMetrics(out map[string]sample, spans []span) {
	self := selfTimes(spans)
	var repTotal, repSelf int64
	durs := map[string][]float64{}  // span name → durations in seconds
	selfs := map[string][]float64{} // span name → self times in seconds
	for _, s := range spans {
		d := s.End - s.Start
		if s.Name == "rep" {
			repTotal += d
			repSelf += self[s.ID]
		}
		durs[s.Name] = append(durs[s.Name], float64(d)/1e9)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e9)
	}
	share := func(part float64) float64 {
		if repTotal == 0 {
			return 0
		}
		return part / (float64(repTotal) / 1e9)
	}
	out["trace.coverage_share"] = sample{1 - share(float64(repSelf)/1e9), len(durs["rep"])}

	plans := len(durs["planner.optimize"])
	lookups := len(durs["planner.lookup.hit"]) + len(durs["planner.lookup.miss"])
	perPlan := 0.0
	if plans > 0 {
		perPlan = float64(lookups) / float64(plans)
	}
	out["planner.provider_build_s"] = sample{median(durs["planner.provider_build"]), plans}
	out["planner.lookups_per_plan"] = sample{perPlan, plans}
	out["planner.lookup_miss_us"] = sample{median(durs["planner.lookup.miss"]) * 1e6, len(durs["planner.lookup.miss"])}
	out["planner.optimize_self_ms"] = sample{median(selfs["planner.optimize"]) * 1e3, plans}
	out["planner.evaluate_ms"] = sample{median(durs["planner.evaluate"]) * 1e3, plans}
	out["planner.provider_share"] = sample{share(sum(durs["planner.provider_build"])), plans}
	out["planner.search_share"] = sample{share(sum(selfs["planner.optimize"])), plans}
}
