package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"predtop"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its argument: %v", xs)
	}
}

// TestTailRule pins "the highest percentile with at least ten samples beyond
// it": none above the median for a nine- or twelve-rep workload, the value
// with exactly ten beyond it for a mid-sized sample, p99 once that has ten.
func TestTailRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		wantQ float64
		wantV float64
	}{
		{0, 0.5, 0},
		{9, 0.5, 5},
		{12, 0.5, 6.5},
		{21, 0.5, 11},       // the value with ten beyond it is the median itself
		{22, 12.0 / 22, 12}, // the first sample size with a percentile above the median
		{25, 0.6, 15},       // ten samples (16..25) lie beyond the 15th
		{200, 0.95, 190},    // ten beyond the 190th; p99 would leave two
		{1000, 0.99, 990},   // exactly ten beyond p99
		{100000, 0.99, 99000},
	} {
		q, v := tail(ramp(c.n))
		if q != c.wantQ || v != c.wantV {
			t.Errorf("tail of %d samples = p%g %v, want p%g %v", c.n, q*100, v, c.wantQ*100, c.wantV)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "rep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a: two clients under one phase
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 130}, // only the part inside the parent counts
		{ID: 6, Parent: 3, Name: "grandchild", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	// Covered: [10,50) + [60,70) + [90,100) = 60 of 100.
	for id, want := range map[int]int64{1: 40, 2: 20, 3: 10, 4: 10, 5: 40, 6: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 0)
	r.end(id)
	r.endAs(id, "y")
	if id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
}

// TestGeneratorDeterminism: the request bytes a client sends are a function
// of the seed and the client alone.
func TestGeneratorDeterminism(t *testing.T) {
	bodies, _, _, err := requestBodies([]*predtop.Model{gpt3(4), moe(4)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	sent := func(seed int64, client int) []byte {
		var b bytes.Buffer
		for _, k := range requestStream(seed, client, len(bodies), 500) {
			b.Write(bodies[k])
		}
		return b.Bytes()
	}
	if !bytes.Equal(sent(7, 0), sent(7, 0)) {
		t.Error("same seed and client produced different request bytes")
	}
	if bytes.Equal(sent(7, 0), sent(8, 0)) {
		t.Error("different seeds produced the same request stream")
	}
	if bytes.Equal(sent(7, 0), sent(7, 1)) {
		t.Error("the two clients of one seed send the same stream")
	}
	for _, body := range bodies {
		var req predtop.ServePredictRequest
		if err := json.Unmarshal(body, &req); err != nil || req.Hi <= req.Lo || req.Layers != 4 {
			t.Errorf("body %s does not decode to a stage request: %+v, %v", body, req, err)
		}
	}
}

// TestManifest holds BENCHMARK.json to the tables in metrics.go and the
// tables to the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	want, _ := json.MarshalIndent(buildManifest(), "", "  ")
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %+v is outside the contract", d)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestSmoke runs every workload untraced and traced at the smoke size: no
// operation may fail, every end-to-end metric must be positive, and every
// per-layer metric must be measured by at least one workload.
func TestSmoke(t *testing.T) {
	measured := map[string]bool{}
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			cfg := runCfg{seed: 3, seconds: 1, trace: trace, smoke: true, outDir: t.TempDir()}
			res, err := runWorkload(cfg, w.Name)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.Name, trace, res.failed, res.attempted)
			}
			var line struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.jsonLine(cfg)), &line); err != nil || !line.Correct {
				t.Errorf("%s trace=%v: result line %s: %v", w.Name, trace, res.jsonLine(cfg), err)
			}
			if !trace {
				for _, d := range endToEnd {
					if line.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: %s = %v", w.Name, d.Name, line.Metrics[d.Name].Value)
					}
				}
				continue
			}
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("%s: traced run printed %d of %d per-layer metrics", w.Name, len(line.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if res.metrics[d.Name].N > 0 {
					measured[d.Name] = true
				}
			}
			if _, err := os.Stat(cfg.outDir + "/trace-" + w.Name + ".json"); err != nil {
				t.Errorf("%s: no trace file: %v", w.Name, err)
			}
		}
	}
	for _, d := range perLayer {
		if !measured[d.Name] {
			t.Errorf("per-layer metric %s is measured on no workload", d.Name)
		}
	}
}
