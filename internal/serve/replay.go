package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"predtop/internal/models"
)

// ReplayConfig drives a synthetic load replay against a running daemon: a
// deterministic stream of /predict queries drawn from the benchmark stage
// universe, issued by a pool of concurrent clients.
type ReplayConfig struct {
	// URL is the daemon's base URL, e.g. "http://127.0.0.1:9400".
	URL string
	// Queries is the total number of /predict calls (default 1000).
	Queries int
	// Concurrency is the client pool size (default 8).
	Concurrency int
	// Seed makes the query stream reproducible.
	Seed int64
	// Benches is the benchmark rotation (default GPT-3 only).
	Benches []string
	// Layers overrides the benchmark depth for every query (default 8,
	// keeping replay graphs small; 0 = the paper's full depth).
	Layers int
	// MaxLen bounds the sampled stage length in segments (default 3).
	MaxLen int
	// Model pins the registry key each query names (default "": the
	// daemon's sole model).
	Model string
	// Client is the HTTP client (default a pooled client with a 30s
	// timeout).
	Client *http.Client
}

// ReplayResult summarizes one replay: client-side throughput and latency
// percentiles plus the server-side cache counters and SLO verdict scraped
// from /metrics after the run.
type ReplayResult struct {
	Queries     int     `json:"queries"`
	Errors      int     `json:"errors"`
	WallSeconds float64 `json:"wall_seconds"`
	QPS         float64 `json:"qps"`
	P50ms       float64 `json:"p50_ms"`
	P95ms       float64 `json:"p95_ms"`
	P99ms       float64 `json:"p99_ms"`

	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	Generation   float64 `json:"generation"`

	// SLO verdicts scraped from the daemon's predtop_slo_* series. The -1
	// sentinels mean the daemon exports no SLO tracker (started without
	// objectives) — distinct from a healthy 0.
	SLOBreached float64 `json:"slo_breached"` // 1 in breach, 0 ok, -1 not configured
	SLOBreaches float64 `json:"slo_breaches"` // ok→breach edges so far, -1 not configured
	SLOBurn1m   float64 `json:"slo_burn_1m"`  // 1m-window error-budget burn rate
	SLOP991m    float64 `json:"slo_p99_1m_s"` // 1m-window p99 latency estimate
}

// SLOConfigured reports whether the scraped daemon exports an SLO tracker.
func (r *ReplayResult) SLOConfigured() bool { return r.SLOBreached >= 0 }

// Replay runs the load driver to completion and returns the summary. The
// only error path is a malformed config or an unreachable daemon on the very
// first query; per-query failures are counted in Errors instead.
func Replay(cfg ReplayConfig) (*ReplayResult, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("serve: replay needs a daemon URL")
	}
	if cfg.Queries <= 0 {
		cfg.Queries = 1000
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if len(cfg.Benches) == 0 {
		cfg.Benches = []string{"GPT-3"}
	}
	if cfg.Layers == 0 {
		cfg.Layers = 8
	}
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 3
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}

	bodies, err := replayStream(cfg)
	if err != nil {
		return nil, err
	}

	durs := make([]float64, len(bodies))
	var next atomic.Int64
	var errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				t0 := time.Now()
				resp, err := cfg.Client.Post(cfg.URL+"/predict", "application/json",
					bytes.NewReader(bodies[i]))
				durs[i] = time.Since(t0).Seconds()
				if err != nil {
					errs.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	sort.Float64s(durs)
	res := &ReplayResult{
		Queries:     len(bodies),
		Errors:      int(errs.Load()),
		WallSeconds: wall,
		QPS:         float64(len(bodies)) / wall,
		P50ms:       percentile(durs, 0.50) * 1e3,
		P95ms:       percentile(durs, 0.95) * 1e3,
		P99ms:       percentile(durs, 0.99) * 1e3,
	}
	if err := scrapeMetrics(cfg.Client, cfg.URL, res); err != nil {
		return res, fmt.Errorf("serve: scraping /metrics after replay: %w", err)
	}
	return res, nil
}

// replayStream pregenerates the deterministic query bodies.
func replayStream(cfg ReplayConfig) ([][]byte, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	segs := map[string]int{}
	for _, b := range cfg.Benches {
		mc, ok := models.ByName(b, cfg.Layers)
		if !ok {
			return nil, fmt.Errorf("serve: unknown bench %q in replay config", b)
		}
		segs[b] = models.Build(mc).NumSegments()
	}
	bodies := make([][]byte, cfg.Queries)
	for i := range bodies {
		bench := cfg.Benches[rng.Intn(len(cfg.Benches))]
		n := segs[bench]
		length := 1 + rng.Intn(cfg.MaxLen)
		if length > n {
			length = n
		}
		lo := rng.Intn(n - length + 1)
		req := PredictRequest{
			Model: cfg.Model, Bench: bench, Layers: cfg.Layers,
			Lo: lo, Hi: lo + length,
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// percentile reads q from an already-sorted sample (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// scrapeMetrics fills the server-side counters of res from GET /metrics.
func scrapeMetrics(client *http.Client, url string, res *ReplayResult) error {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	res.SLOBreached, res.SLOBreaches = -1, -1 // until the series prove otherwise
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := promSample(line)
		if !ok {
			continue
		}
		// The SLO gauges are labeled by window (and quantile); promSample
		// strips labels, so the 1m-window series are matched on the full
		// rendered prefix instead.
		switch {
		case strings.HasPrefix(line, sloBurnRateMetric+`{window="1m0s"}`):
			res.SLOBurn1m = val
		case strings.HasPrefix(line, sloLatencyMetric+`{quantile="0.99",window="1m0s"}`):
			res.SLOP991m = val
		}
		switch name {
		case CacheHitsMetric:
			res.CacheHits = int64(val)
		case CacheMissesMetric:
			res.CacheMisses = int64(val)
		case RegistryGenerationMetric:
			res.Generation = val
		case sloBreachGauge:
			res.SLOBreached = val
		case sloBreachesMetric:
			res.SLOBreaches = val
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if total := res.CacheHits + res.CacheMisses; total > 0 {
		res.CacheHitRate = float64(res.CacheHits) / float64(total)
	}
	return nil
}

// promSample parses one exposition sample line into (bare name, value),
// dropping any label set.
func promSample(line string) (string, float64, bool) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", 0, false
	}
	val, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return "", 0, false
	}
	name := line[:sp]
	if b := strings.IndexByte(name, '{'); b >= 0 {
		name = name[:b]
	}
	return name, val, true
}
