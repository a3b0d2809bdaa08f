package serve

import (
	"math"
	"sync"
	"testing"
	"time"

	"predtop/internal/models"
	"predtop/internal/obs"
	"predtop/internal/predictor"
	"predtop/internal/stage"
)

// TestServeFusedBatchMetrics: every coalesced group runs the one fused
// forward, so the batch-level instruments must agree with each other — one
// size observation per batch, one pad-waste observation per per-model group,
// every request counted once — while per-request results stay bitwise
// identical to the graph alone at B=1. And they must already agree when a
// reply is released: a client that reads the counters the moment its answer
// arrives finds its own batch counted (the counters used to move after the
// reply, so a fast scrape saw a batch that had answered but did not exist).
func TestServeFusedBatchMetrics(t *testing.T) {
	dir := t.TempDir()
	tr := writeTestModel(t, dir, "tran", "tran", 1)
	metrics := obs.NewRegistry()
	s := startTestServer(t, dir, func(c *Config) {
		c.Metrics = metrics
		c.MaxBatch = 8
		c.Window = 2 * time.Millisecond // give the burst a chance to coalesce
	})

	m := models.Build(testBenchCfg())
	enc := predictor.NewEncoder(m, true)
	specs := []stage.Spec{{Lo: 0, Hi: 2}, {Lo: 1, Hi: 4}, {Lo: 3, Hi: 6}, {Lo: 0, Hi: 5}, {Lo: 2, Hi: 3}}
	want := make([]float64, len(specs))
	for i, sp := range specs {
		want[i] = tr.PredictEncoded(enc.Encode(sp))
	}
	batchesCtr := metrics.Counter(BatchesMetric)
	requestsCtr := metrics.Counter(BatchedRequestsMetric)
	sizes := metrics.Histogram(BatchSizeMetric, batchSizeBuckets)
	pw := metrics.Histogram(PadWasteMetric, padWasteBuckets)

	var wg sync.WaitGroup
	errs := make(chan string, 2*len(specs))
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp stage.Spec) {
			defer wg.Done()
			resp, code := postPredict(t, s.URL(), PredictRequest{
				Model: "tran", Bench: "GPT-3", Layers: testLayers, Lo: sp.Lo, Hi: sp.Hi,
			})
			if code != 200 {
				errs <- "non-200 response"
				return
			}
			if math.Float64bits(resp.LatencySeconds) != math.Float64bits(want[i]) {
				errs <- "served latency diverged from direct PredictEncoded"
			}
			if batchesCtr.Value() < 1 || requestsCtr.Value() < 1 || sizes.Count() < 1 || pw.Count() < 1 {
				errs <- "reply released before its batch was counted"
			}
		}(i, sp)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	batches := batchesCtr.Value()
	if batches < 1 || batches > int64(len(specs)) {
		t.Fatalf("batches = %d for %d requests", batches, len(specs))
	}
	if got := requestsCtr.Value(); got != int64(len(specs)) {
		t.Fatalf("batched requests = %d, want %d", got, len(specs))
	}
	if sizes.Count() != batches {
		t.Fatalf("batch-size observations = %d, want one per batch (%d)", sizes.Count(), batches)
	}
	// One model is loaded, so every batch is exactly one group.
	if pw.Count() != batches {
		t.Fatalf("pad-waste observations = %d, want one per group (%d)", pw.Count(), batches)
	}
	if sum := pw.Sum(); sum < 0 || sum > float64(pw.Count()) {
		t.Fatalf("pad-waste sum %v outside [0, count]: fractions must be in [0, 1)", sum)
	}
}
