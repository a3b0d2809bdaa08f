package serve

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestServePromExposition pins the metric series a live daemon with SLO
// objectives exports: exact series names and label shapes (the contract a
// scrape config or dashboard is written against), value-level checks tied to
// the traffic the test generated, and the text-format grammar of the whole
// page (see checkPromGrammar) — through a real /metrics scrape of a serving
// daemon rather than a bare registry.
func TestServePromExposition(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, func(c *Config) { c.SLOP99, c.SLOErr = time.Second, 0.05 })

	// Traffic: 3 queries of distinct stage classes (ED, DD, DH: misses),
	// 1 repeat (hit), 1 bad request, 1 models listing, 1 reload.
	for _, sp := range [][2]int{{0, 2}, {1, 3}, {4, 6}, {0, 2}} {
		if _, code := postPredict(t, s.URL(), PredictRequest{
			Bench: "GPT-3", Layers: testLayers, Lo: sp[0], Hi: sp[1],
		}); code != 200 {
			t.Fatalf("query [%d,%d): code %d", sp[0], sp[1], code)
		}
	}
	resp, err := http.Post(s.URL()+"/predict", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad request: code %d", resp.StatusCode)
	}
	if resp, err = http.Get(s.URL() + "/models"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp, err = http.Post(s.URL()+"/reload", "application/json", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if resp, err = http.Get(s.URL() + "/metrics"); err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(raw)

	// Exact sample lines whose values are fully determined by the traffic
	// above. Generation is 2 (startup load + explicit reload), which also
	// purged the memo — so hits/misses still read the pre-reload traffic.
	for _, want := range []string{
		`predtop_serve_registry_generation 2`,
		`predtop_serve_registry_models 1`,
		`predtop_serve_reloads_total{result="ok"} 2`,
		`predtop_serve_cache_hits_total 1`,
		`predtop_serve_cache_misses_total 3`,
		// One forward per miss, each counted as a batch of one (kept for the
		// frozen benchmark's serve.mean_batch rung).
		`predtop_serve_batches_total 3`,
		`predtop_serve_batched_requests_total 3`,
		`predtop_serve_requests_total{code="200",endpoint="/predict"} 4`,
		`predtop_serve_requests_total{code="400",endpoint="/predict"} 1`,
		`predtop_serve_requests_total{code="200",endpoint="/models"} 1`,
		`predtop_serve_requests_total{code="200",endpoint="/reload"} 1`,
		`predtop_serve_queue_depth 0`, // every miss got its forward slot
		"# TYPE predtop_serve_registry_generation gauge",
		"# TYPE predtop_serve_reloads_total counter",
		"# TYPE predtop_serve_request_seconds histogram",
		"# TYPE predtop_serve_queue_depth gauge",
	} {
		if !strings.Contains(exposition, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Per-endpoint latency histogram: a labeled series with both the
	// endpoint label and the le bucket label, and a matching _count.
	bucketRe := regexp.MustCompile(`(?m)^predtop_serve_request_seconds_bucket\{endpoint="/predict",le="\+Inf"\} (\d+)$`)
	mb := bucketRe.FindStringSubmatch(exposition)
	if mb == nil {
		t.Fatal("no +Inf bucket for the /predict latency histogram")
	}
	if mb[1] != "5" { // 4 ok + 1 bad request
		t.Errorf("/predict latency count = %s, want 5", mb[1])
	}
	if !strings.Contains(exposition, `predtop_serve_request_seconds_count{endpoint="/predict"} 5`) {
		t.Error("missing /predict latency _count")
	}
	if !strings.Contains(exposition, `predtop_serve_request_seconds_count{endpoint="/models"} 1`) {
		t.Error("missing /models latency _count")
	}

	// The batch size, max and pad-waste families went with the layer that fed
	// them.
	if strings.Contains(exposition, "predtop_serve_batch_") {
		t.Error("exposition still carries a predtop_serve_batch_* series")
	}

	families := checkPromGrammar(t, exposition)
	want := []string{
		"obs_dropped_samples_total", runInfoMetric,
		BatchedRequestsMetric, BatchesMetric, CacheHitsMetric, CacheMissesMetric, QueueDepthMetric,
		RegistryGenerationMetric, RegistryModelsMetric, ReloadsMetric, RequestSecondsMetric, RequestsMetric,
		sloBreachGauge, sloBreachesMetric, sloBurnRateMetric, sloErrorRateMetric, sloLatencyMetric,
	}
	sort.Strings(want)
	if !slices.Equal(families, want) {
		t.Errorf("families on the page:\n  %v\nwant\n  %v", families, want)
	}
}

var (
	promName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	// promLabels is a whole inner label block whose values hold no quote,
	// backslash or newline: the daemon's label values need no escaping.
	promLabels = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\\n]*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\\n]*")*$`)
	promKey    = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)
)

// checkPromGrammar checks every line of a text exposition and returns its
// families, sorted. A line is a `# TYPE family kind` header or a sample
// `series value`. Each family has exactly one TYPE line, ahead of its
// samples; a sample's name matches [a-zA-Z_:][a-zA-Z0-9_:]* and belongs to a
// typed family (a histogram's through _bucket, _sum or _count); its label
// block, if any, parses, with strictly ascending keys; its value parses.
func checkPromGrammar(t *testing.T, page string) []string {
	t.Helper()
	kinds := map[string]string{}
	var families []string
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			switch {
			case len(f) != 2 || !promName.MatchString(f[0]):
				t.Errorf("malformed TYPE line %q", line)
			case kinds[f[0]] != "":
				t.Errorf("second TYPE line for %s", f[0])
			case f[1] != "counter" && f[1] != "gauge" && f[1] != "histogram":
				t.Errorf("unknown kind in %q", line)
			default:
				kinds[f[0]] = f[1]
				families = append(families, f[0])
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("sample line %q has no value", line)
			continue
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Errorf("sample line %q: %v", line, err)
		}
		name, block, labeled := strings.Cut(line[:sp], "{")
		if !promName.MatchString(name) {
			t.Errorf("sample name %q is not a metric name", name)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && kinds[base] == "histogram" {
				family = base
			}
		}
		if kinds[family] == "" {
			t.Errorf("sample %q precedes its family's TYPE line or has none", line)
		}
		if !labeled {
			continue
		}
		inner, closed := strings.CutSuffix(block, "}")
		if !closed || !promLabels.MatchString(inner) {
			t.Errorf("label block of %q does not parse", line)
			continue
		}
		var keys []string
		for _, m := range promKey.FindAllStringSubmatch(inner, -1) {
			keys = append(keys, m[1])
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Errorf("label keys of %q are not strictly ascending", line)
			}
		}
	}
	sort.Strings(families)
	return families
}

// TestServePromRunInfo: the exposition carries the predtop_run_info series
// with the daemon's trace identity, so scrapes can be joined to JSONL events.
func TestServePromRunInfo(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, nil)
	resp, err := http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	want := fmt.Sprintf(`%s{name="serve-test",trace_id="%s"} 1`, runInfoMetric, s.trace.TraceID())
	if !strings.Contains(string(raw), want+"\n") {
		t.Fatalf("exposition missing %s:\n%s", want, raw)
	}
}
