package serve

import (
	"encoding/json"
	"fmt"
	"math"

	"predtop/internal/models"
)

// Request-validation bounds. They exist so an adversarial or buggy client is
// answered with a 4xx instead of making the daemon build an arbitrarily large
// operator graph (the encoded reachability masks are O(nodes²)).
const (
	// MaxRequestBytes bounds the /predict request body.
	MaxRequestBytes = 1 << 20
	// MaxLayers bounds the benchmark-depth override a request may ask for.
	MaxLayers = 64
	// MaxStageSegments bounds the stage length (hi-lo) of one query.
	MaxStageSegments = 16
)

// PredictRequest is the JSON body of POST /predict: which resident model to
// query, which benchmark stage graph to encode, and optionally a profiled
// ground-truth latency that feeds the predtop_accuracy_* series.
type PredictRequest struct {
	// Model is the registry key (model file name without .predtop). Empty is
	// allowed when exactly one model is resident.
	Model string `json:"model,omitempty"`
	// Bench selects the benchmark family the stage is sliced from: "GPT-3"
	// or "MoE" (case-insensitive; "gpt3"/"moe" accepted).
	Bench string `json:"bench"`
	// Layers overrides the benchmark depth (0 = the paper's Table IV value).
	Layers int `json:"layers,omitempty"`
	// Lo and Hi delimit the stage as a segment range [lo, hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// GroundTruth, when present, is the profiled latency in seconds; the
	// server returns the relative error and folds it into the
	// predtop_accuracy_* series. Must be finite and positive.
	GroundTruth *float64 `json:"ground_truth,omitempty"`
	// Mesh is a free-form mesh label ("2x2") used only as the accuracy
	// series' mesh label.
	Mesh string `json:"mesh,omitempty"`
}

// PredictResponse is the JSON body of a successful /predict answer.
// LatencySeconds round-trips through JSON bit-exactly (shortest round-trip
// float encoding), so a client can compare it bitwise against a direct
// PredictEncoded call.
type PredictResponse struct {
	TraceID        string   `json:"trace_id,omitempty"`
	SpanID         string   `json:"span_id,omitempty"`
	Model          string   `json:"model"`
	Family         string   `json:"family"`
	Bench          string   `json:"bench"`
	Layers         int      `json:"layers,omitempty"`
	Lo             int      `json:"lo"`
	Hi             int      `json:"hi"`
	LatencySeconds float64  `json:"latency_s"`
	LatencyMS      float64  `json:"latency_ms"`
	Cached         bool     `json:"cached"`
	Generation     uint64   `json:"generation"`
	RelErrPct      *float64 `json:"rel_err_pct,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// DecodePredictRequest parses and validates a /predict body. Every rejection
// is an error the handler maps to a 4xx — malformed JSON, unknown benchmarks,
// oversized depths or stages, inverted ranges, and non-finite or non-positive
// ground truths all land here, never in a panic or a poisoned cache. Range
// checks against the resolved benchmark's segment count happen later, once
// the benchmark model is built.
func DecodePredictRequest(data []byte) (*PredictRequest, error) {
	if len(data) > MaxRequestBytes {
		return nil, fmt.Errorf("request body exceeds %d bytes", MaxRequestBytes)
	}
	var req PredictRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("malformed JSON: %v", err)
	}
	if req.Bench == "" {
		return nil, fmt.Errorf("missing bench (want \"GPT-3\" or \"MoE\")")
	}
	if _, ok := models.ByName(req.Bench, 0); !ok {
		return nil, fmt.Errorf("unknown bench %q (want \"GPT-3\" or \"MoE\")", req.Bench)
	}
	if req.Layers < 0 || req.Layers > MaxLayers {
		return nil, fmt.Errorf("layers %d out of range [0, %d]", req.Layers, MaxLayers)
	}
	if req.Lo < 0 {
		return nil, fmt.Errorf("lo %d must be >= 0", req.Lo)
	}
	if req.Hi <= req.Lo {
		return nil, fmt.Errorf("empty stage range [%d, %d)", req.Lo, req.Hi)
	}
	if req.Hi-req.Lo > MaxStageSegments {
		return nil, fmt.Errorf("stage length %d exceeds %d segments", req.Hi-req.Lo, MaxStageSegments)
	}
	if gt := req.GroundTruth; gt != nil {
		if math.IsNaN(*gt) || math.IsInf(*gt, 0) || *gt <= 0 {
			return nil, fmt.Errorf("ground_truth must be a finite positive latency, got %v", *gt)
		}
	}
	return &req, nil
}
