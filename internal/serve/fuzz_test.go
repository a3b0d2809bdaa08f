package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"predtop/internal/models"
)

// FuzzDecodePredictRequest: the /predict decoder must never panic, and every
// request it accepts must satisfy the bounds the server's fast path assumes —
// a known benchmark, a non-empty stage range within the segment cap, and a
// finite positive ground truth.
func FuzzDecodePredictRequest(f *testing.F) {
	f.Add([]byte(`{"bench":"GPT-3","lo":0,"hi":2}`))
	f.Add([]byte(`{"model":"tran","bench":"moe","layers":8,"lo":1,"hi":4}`))
	f.Add([]byte(`{"bench":"GPT-3","lo":0,"hi":2,"ground_truth":0.01,"mesh":"2x2"}`))
	f.Add([]byte(`{"bench":"GPT-3","lo":0,"hi":2,"ground_truth":1e309}`))
	f.Add([]byte(`{"bench":"GPT-3","lo":-1,"hi":1000000}`))
	f.Add([]byte(`{"bench":"resnet","lo":0,"hi":2}`))
	f.Add([]byte(`{"bench":"GPT-3","layers":999,"lo":0,"hi":2}`))
	f.Add([]byte(`{"bench":`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"bench":"GPT-3","lo":9007199254740993,"hi":-9007199254740993}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodePredictRequest(data)
		if err != nil {
			return
		}
		if _, ok := models.ByName(req.Bench, req.Layers); !ok {
			t.Fatalf("accepted unknown bench %q", req.Bench)
		}
		if req.Layers < 0 || req.Layers > MaxLayers {
			t.Fatalf("accepted layers %d", req.Layers)
		}
		if req.Lo < 0 || req.Hi <= req.Lo || req.Hi-req.Lo > MaxStageSegments {
			t.Fatalf("accepted stage range [%d, %d)", req.Lo, req.Hi)
		}
		if gt := req.GroundTruth; gt != nil &&
			(math.IsNaN(*gt) || math.IsInf(*gt, 0) || *gt <= 0) {
			t.Fatalf("accepted ground_truth %v", *gt)
		}
	})
}

// TestServeRejectsMalformed: every malformed /predict body is answered with
// a 4xx — never a panic, never a 5xx — and after the whole gauntlet a valid
// query still returns the exact pre-gauntlet value, proving neither the LRU
// nor the forward path was poisoned.
func TestServeRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, nil)

	// Baseline before the gauntlet.
	valid := PredictRequest{Bench: "GPT-3", Layers: testLayers, Lo: 0, Hi: 2}
	base, code := postPredict(t, s.URL(), valid)
	if code != 200 {
		t.Fatalf("baseline query failed: %d", code)
	}

	cases := []struct {
		name string
		body string
	}{
		{"truncated JSON", `{"bench":"GPT-3","lo":0`},
		{"empty body", ``},
		{"JSON null", `null`},
		{"JSON array", `[1,2,3]`},
		{"missing bench", `{"lo":0,"hi":2}`},
		{"unknown bench", `{"bench":"resnet50","lo":0,"hi":2}`},
		{"NaN ground truth", `{"bench":"GPT-3","lo":0,"hi":2,"ground_truth":"NaN"}`},
		{"Inf ground truth", `{"bench":"GPT-3","lo":0,"hi":2,"ground_truth":1e999}`},
		{"negative ground truth", `{"bench":"GPT-3","lo":0,"hi":2,"ground_truth":-0.5}`},
		{"zero ground truth", `{"bench":"GPT-3","lo":0,"hi":2,"ground_truth":0}`},
		{"negative lo", `{"bench":"GPT-3","lo":-3,"hi":2}`},
		{"inverted range", `{"bench":"GPT-3","lo":5,"hi":2}`},
		{"empty range", `{"bench":"GPT-3","lo":2,"hi":2}`},
		{"oversized stage", fmt.Sprintf(`{"bench":"GPT-3","lo":0,"hi":%d}`, MaxStageSegments+2)},
		{"oversized layers", fmt.Sprintf(`{"bench":"GPT-3","layers":%d,"lo":0,"hi":2}`, MaxLayers+1)},
		{"negative layers", `{"bench":"GPT-3","layers":-1,"lo":0,"hi":2}`},
		{"hi past segments", fmt.Sprintf(`{"bench":"GPT-3","layers":%d,"lo":%d,"hi":%d}`,
			testLayers, testLayers+1, testLayers+3)},
		{"unknown model", `{"model":"nope","bench":"GPT-3","lo":0,"hi":2}`},
		{"huge body", `{"bench":"` + strings.Repeat("x", MaxRequestBytes) + `","lo":0,"hi":2}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(s.URL()+"/predict", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("%s: status %d, want 4xx", tc.name, resp.StatusCode)
		}
	}
	// GET on a POST endpoint and vice versa.
	if resp, err := http.Get(s.URL() + "/predict"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /predict: %d", resp.StatusCode)
		}
	}
	if resp, err := http.Post(s.URL()+"/models", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /models: %d", resp.StatusCode)
		}
	}

	// The gauntlet must not have poisoned anything: same query, same bits.
	after, code := postPredict(t, s.URL(), valid)
	if code != 200 {
		t.Fatalf("post-gauntlet query failed: %d", code)
	}
	if math.Float64bits(after.LatencySeconds) != math.Float64bits(base.LatencySeconds) {
		t.Fatalf("latency changed after malformed gauntlet: %v != %v",
			after.LatencySeconds, base.LatencySeconds)
	}
	if !after.Cached {
		t.Fatal("post-gauntlet query should hit the memo")
	}
}
