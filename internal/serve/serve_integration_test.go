package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"predtop/internal/models"
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

// TestServeIgnoresGroundTruth: a body carrying the retired ground_truth and
// mesh fields is answered like the same body without them — 200, latency_s
// bit-equal to a direct PredictEncoded call, no rel_err_pct.
func TestServeIgnoresGroundTruth(t *testing.T) {
	dir := t.TempDir()
	tr := writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, nil)

	m := models.Build(testBenchCfg())
	enc := predictor.NewEncoder(m, true)
	want := tr.PredictEncoded(enc.Encode(stage.Spec{Lo: 0, Hi: 2}))

	plain := fmt.Sprintf(`{"bench":"GPT-3","layers":%d,"lo":0,"hi":2}`, testLayers)
	extra := fmt.Sprintf(`{"bench":"GPT-3","layers":%d,"lo":0,"hi":2,"ground_truth":0.5,"mesh":"2x2"}`, testLayers)
	for _, body := range []string{extra, plain} { // the first is the miss
		resp, err := http.Post(s.URL()+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s: status %d, %v", body, resp.StatusCode, err)
		}
		var got float64
		if err := json.Unmarshal(out["latency_s"], &got); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: latency_s %v, want %v", body, got, want)
		}
		if _, ok := out["rel_err_pct"]; ok {
			t.Fatalf("%s: answered a rel_err_pct", body)
		}
	}
}

// TestServeClientInputAddsNoSeries: the metric series a daemon exports are
// fixed by its routes and status codes, never by what a client sends. A
// second round of novel bodies — new mesh labels and ground truths, unknown
// model keys, rejected benches — leaves the registry's series set
// exactly as the first round left it.
func TestServeClientInputAddsNoSeries(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, nil)

	series := func() map[string]bool {
		set := map[string]bool{}
		for _, m := range s.cfg.Metrics.Snapshot() {
			set[m.Name+"{"+m.Labels+"}"] = true
		}
		return set
	}
	round := func(r int) {
		for i := 0; i < 4; i++ {
			for _, body := range []string{
				fmt.Sprintf(`{"bench":"GPT-3","layers":%d,"lo":%d,"hi":%d,"ground_truth":%v,"mesh":"m%d-%d"}`,
					testLayers, i, i+1, 0.01*float64(r*4+i+1), r, i),
				fmt.Sprintf(`{"model":"nope-%d-%d","bench":"GPT-3","lo":0,"hi":2}`, r, i),
				fmt.Sprintf(`{"bench":"resnet-%d-%d","lo":0,"hi":2}`, r, i),
			} {
				resp, err := http.Post(s.URL()+"/predict", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
		}
	}
	round(0)
	first := series()
	round(1)
	second := series()
	for k := range second {
		if !first[k] {
			t.Errorf("round 2 added series %s", k)
		}
	}
	if len(second) != len(first) {
		t.Errorf("series: %d after round 1, %d after round 2", len(first), len(second))
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
