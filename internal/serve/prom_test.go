package serve

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// TestServePromExposition pins the predtop_serve_* metric series a live
// daemon exports: exact series names and label shapes (the contract a
// scrape config or dashboard is written against), plus value-level checks
// tied to the traffic the test generated. This extends the obs package's
// golden exposition tests one level up — through a real /metrics scrape of a
// serving daemon rather than a bare registry.
func TestServePromExposition(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, nil)

	// Traffic: 3 distinct queries (misses), 1 repeat (hit), 1 bad request,
	// 1 models listing, 1 reload.
	for _, sp := range [][2]int{{0, 2}, {1, 3}, {2, 4}, {0, 2}} {
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

	// One TYPE header per metric name even with several labeled series.
	if n := strings.Count(exposition, "# TYPE predtop_serve_request_seconds histogram"); n != 1 {
		t.Errorf("request_seconds TYPE header appears %d times, want 1", n)
	}
	if n := strings.Count(exposition, "# TYPE predtop_serve_requests_total counter"); n != 1 {
		t.Errorf("requests_total TYPE header appears %d times, want 1", n)
	}

	// The batch size, max and pad-waste families went with the layer that fed
	// them.
	if strings.Contains(exposition, "predtop_serve_batch_") {
		t.Error("exposition still carries a predtop_serve_batch_* series")
	}
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
