package serve

import (
	"math"
	"sync"
	"testing"

	"predtop/internal/models"
	"predtop/internal/obs"
	"predtop/internal/predictor"
	"predtop/internal/stage"
)

// TestServeEndToEnd is the serving integration test: a daemon on an ephemeral
// port holding two predictor families answers a burst of concurrent
// mixed-family requests, and every response must be bitwise identical to
// calling PredictEncoded directly on the same model file — concurrent
// forwards and memoization are not allowed to change a single bit.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	trTran := writeTestModel(t, dir, "tran", "tran", 1)
	trGCN := writeTestModel(t, dir, "gcn", "gcn", 2)
	s := startTestServer(t, dir, nil)

	// The expected table, computed directly — the determinism baseline.
	m := models.Build(testBenchCfg())
	enc := predictor.NewEncoder(m, true)
	type query struct {
		model  string
		tr     predictor.Trained
		lo, hi int
	}
	var queries []query
	for _, mt := range []struct {
		key string
		tr  predictor.Trained
	}{{"tran", trTran}, {"gcn", trGCN}} {
		for _, sp := range []stage.Spec{{Lo: 0, Hi: 2}, {Lo: 1, Hi: 4}, {Lo: 3, Hi: 6}} {
			queries = append(queries, query{mt.key, mt.tr, sp.Lo, sp.Hi})
		}
	}
	want := make([]float64, len(queries))
	for i, q := range queries {
		want[i] = q.tr.PredictEncoded(enc.Encode(stage.Spec{Lo: q.lo, Hi: q.hi}))
		if math.IsNaN(want[i]) || math.IsInf(want[i], 0) {
			t.Fatalf("direct prediction %d not finite: %v", i, want[i])
		}
	}

	// Burst: every query issued from 4 goroutines concurrently, so requests
	// for both families interleave on the forward slots.
	const reps = 4
	var wg sync.WaitGroup
	errs := make(chan string, reps*len(queries))
	for rep := 0; rep < reps; rep++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				resp, code := postPredict(t, s.URL(), PredictRequest{
					Model: q.model, Bench: "GPT-3", Layers: testLayers, Lo: q.lo, Hi: q.hi,
				})
				if code != 200 {
					errs <- "non-200 response"
					continue
				}
				if math.Float64bits(resp.LatencySeconds) != math.Float64bits(want[i]) {
					errs <- "served latency diverged from direct PredictEncoded"
				}
				if resp.Model != q.model || resp.Generation != 1 {
					errs <- "wrong model or generation in response"
				}
				if resp.TraceID == "" || resp.SpanID == "" {
					errs <- "missing trace/span id"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// Families must be reported per model.
	if resp, _ := postPredict(t, s.URL(), PredictRequest{Model: "tran", Bench: "GPT-3", Layers: testLayers, Lo: 0, Hi: 2}); resp.Family != "Tran" {
		t.Fatalf("tran family = %q", resp.Family)
	}
	if resp, _ := postPredict(t, s.URL(), PredictRequest{Model: "gcn", Bench: "GPT-3", Layers: testLayers, Lo: 0, Hi: 2}); resp.Family != "GCN" {
		t.Fatalf("gcn family = %q", resp.Family)
	}

	// Determinism unaffected by serving: the direct table still reproduces
	// after the whole burst ran through the shared context pools.
	for i, q := range queries {
		again := q.tr.PredictEncoded(enc.Encode(stage.Spec{Lo: q.lo, Hi: q.hi}))
		if math.Float64bits(again) != math.Float64bits(want[i]) {
			t.Fatalf("direct prediction %d changed after serving: %v != %v", i, again, want[i])
		}
	}

	// Memoization: a repeat of the first query must be served from the LRU.
	resp, code := postPredict(t, s.URL(), PredictRequest{
		Model: "tran", Bench: "GPT-3", Layers: testLayers, Lo: 0, Hi: 2,
	})
	if code != 200 || !resp.Cached {
		t.Fatalf("repeat query not cached (code=%d cached=%v)", code, resp.Cached)
	}
	if math.Float64bits(resp.LatencySeconds) != math.Float64bits(want[0]) {
		t.Fatalf("cached latency diverged: %v != %v", resp.LatencySeconds, want[0])
	}
}

// TestServeGroundTruthAccuracy: a request attaching ground_truth gets its
// relative error back, and three such requests on one key leave the labeled
// gauge at their running mean — bit for bit — and the counter at three.
func TestServeGroundTruthAccuracy(t *testing.T) {
	dir := t.TempDir()
	tr := writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, nil)

	m := models.Build(testBenchCfg())
	enc := predictor.NewEncoder(m, true)
	pred := tr.PredictEncoded(enc.Encode(stage.Spec{Lo: 0, Hi: 2}))

	mean := 0.0
	for n, scale := range []float64{1.25, 0.9, 3} { // the first is 20% off by construction
		gt := pred * scale
		resp, code := postPredict(t, s.URL(), PredictRequest{
			Bench: "GPT-3", Layers: testLayers, Lo: 0, Hi: 2, GroundTruth: &gt, Mesh: "2x2",
		})
		if code != 200 || resp.RelErrPct == nil {
			t.Fatalf("request %d: code %d, rel_err_pct %v", n, code, resp.RelErrPct)
		}
		if n == 0 && math.Abs(*resp.RelErrPct-20) > 1e-9 {
			t.Fatalf("rel_err_pct = %v, want 20", *resp.RelErrPct)
		}
		mean += (*resp.RelErrPct - mean) / float64(n+1)
	}
	labels := []obs.Label{{Key: "family", Value: "Tran"}, {Key: "mesh", Value: "2x2"}, {Key: "op", Value: "GPT-3"}}
	if got := s.cfg.Metrics.GaugeWith(AccuracyMREMetric, labels...).Value(); math.Float64bits(got) != math.Float64bits(mean) {
		t.Errorf("%s = %v, want the running mean %v", AccuracyMREMetric, got, mean)
	}
	if got := s.cfg.Metrics.CounterWith(AccuracySamplesMetric, labels...).Value(); got != 3 {
		t.Errorf("%s = %d, want 3", AccuracySamplesMetric, got)
	}
}

// TestServeSingleModelDefault: with one resident model, requests may omit
// the model key.
func TestServeSingleModelDefault(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "only", "tran", 1)
	s := startTestServer(t, dir, nil)
	resp, code := postPredict(t, s.URL(), PredictRequest{Bench: "GPT-3", Layers: testLayers, Lo: 0, Hi: 2})
	if code != 200 || resp.Model != "only" {
		t.Fatalf("code=%d model=%q", code, resp.Model)
	}
}
