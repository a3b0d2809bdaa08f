package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServerScrapeDuringUpdates: the daemon's /metrics serves consistently
// while the registry is being hammered (run under -race).
func TestServerScrapeDuringUpdates(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, nil)
	r := s.cfg.Metrics
	r.Counter("c").Inc()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				r.Counter("c").Inc()
				r.Histogram("h", nil).Observe(0.01)
				r.gauge("g").Set(1)
			}
		}
	}()
	for i := 0; i < 5; i++ {
		resp, err := http.Get(s.URL() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "# TYPE c counter") {
			t.Fatalf("scrape %d failed: %d", i, resp.StatusCode)
		}
	}
	close(stop)
	<-done
}

// TestServeWithoutMetrics: a daemon started without a registry (the
// benchmark's instrumentation-cost baseline) answers /predict through the
// same nil-safe instruments and has no /metrics page: an empty 200 would read
// as "nothing happened".
func TestServeWithoutMetrics(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, func(cfg *Config) { cfg.Metrics = nil })
	if _, code := postPredict(t, s.URL(), PredictRequest{Bench: "GPT-3", Layers: testLayers, Lo: 0, Hi: 2}); code != 200 {
		t.Fatalf("/predict without a registry: code %d", code)
	}
	resp, err := http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics without a registry: %d, want 404", resp.StatusCode)
	}
}

// TestWritePromGolden pins the text exposition byte-for-byte: deterministic
// name ordering, cumulative histogram buckets, the +Inf bucket equal to
// _count, and the built-in dropped-samples counter.
func TestWritePromGolden(t *testing.T) {
	r := NewMetrics()
	for i := 0; i < 12; i++ {
		r.Counter("train_batches_total").Inc()
	}
	r.gauge("runtime_goroutines").Set(9)
	h := r.Histogram("batch_seconds", []float64{0.5, 1, 2})
	for _, v := range []float64{0.1, 0.7, 0.7, 1.5, 100} {
		h.Observe(v) // 1 in ≤0.5, 2 in ≤1, 1 in ≤2, 1 overflow
	}
	var buf bytes.Buffer
	if err := r.writeProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE batch_seconds histogram",
		`batch_seconds_bucket{le="0.5"} 1`,
		`batch_seconds_bucket{le="1"} 3`,
		`batch_seconds_bucket{le="2"} 4`,
		`batch_seconds_bucket{le="+Inf"} 5`,
		"batch_seconds_sum 103",
		"batch_seconds_count 5",
		"# TYPE obs_dropped_samples_total counter",
		"obs_dropped_samples_total 0",
		"# TYPE runtime_goroutines gauge",
		"runtime_goroutines 9",
		"# TYPE train_batches_total counter",
		"train_batches_total 12",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWritePromSparseBuckets: Snapshot omits empty buckets; the cumulative
// exposition must still end with a +Inf bucket equal to _count.
func TestWritePromSparseBuckets(t *testing.T) {
	r := NewMetrics()
	h := r.Histogram("h", []float64{1, 10, 100})
	h.Observe(50) // only the ≤100 bucket is hit
	h.Observe(1e6)
	var buf bytes.Buffer
	if err := r.writeProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		`h_bucket{le="100"} 1`,
		`h_bucket{le="+Inf"} 2`,
		"h_count 2",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, out)
		}
	}
	if strings.Contains(out, `le="1"`) || strings.Contains(out, `le="10"`) {
		t.Fatalf("empty buckets leaked into exposition:\n%s", out)
	}
}

// TestWritePromDeterministic: two renders of the same registry are
// byte-identical (map iteration must never leak into the output).
func TestWritePromDeterministic(t *testing.T) {
	r := NewMetrics()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Inc()
	}
	r.Histogram("hist_b", nil).Observe(1)
	r.Histogram("hist_a", nil).Observe(2)
	var a, b bytes.Buffer
	if err := r.writeProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.writeProm(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("non-deterministic exposition:\n%s\nvs\n%s", a.String(), b.String())
	}
	idx := func(s string) int { return strings.Index(a.String(), s) }
	if !(idx("alpha") < idx("hist_a") && idx("hist_a") < idx("hist_b") && idx("hist_b") < idx("mid") && idx("mid") < idx("zeta")) {
		t.Fatalf("exposition not name-sorted:\n%s", a.String())
	}
}

// TestWritePromNilRegistry: a nil registry writes an empty (valid)
// exposition.
func TestWritePromNilRegistry(t *testing.T) {
	var r *Metrics
	var buf bytes.Buffer
	if err := r.writeProm(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q", buf.String())
	}
}

// TestWritePromHistogramEdgeCases pins the exposition invariants scrapers
// rely on: every histogram ends in a le="+Inf" bucket equal to _count, and
// cumulative bucket counts never decrease — including empty histograms and
// all-overflow populations.
func TestWritePromHistogramEdgeCases(t *testing.T) {
	r := NewMetrics()
	r.Histogram("empty", []float64{1, 2}) // registered, never observed
	over := r.Histogram("overflow", []float64{1, 2})
	over.Observe(100) // all samples beyond the last bound
	over.Observe(200)
	mid := r.Histogram("mid", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 3, 3, 7, 50} {
		mid.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.writeProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`empty_bucket{le="+Inf"} 0`, "empty_count 0", "empty_sum 0",
		`overflow_bucket{le="+Inf"} 2`, "overflow_count 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Every histogram's bucket series must be monotone non-decreasing and end
	// with +Inf == _count.
	checkMonotone := func(name string, count int64) {
		prev := int64(-1)
		sawInf := false
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, name+"_bucket{le=") {
				continue
			}
			var c int64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &c); err != nil {
				t.Fatalf("unparsable bucket line %q: %v", line, err)
			}
			if c < prev {
				t.Fatalf("%s cumulative counts not monotone at %q (prev %d)", name, line, prev)
			}
			prev = c
			if strings.Contains(line, `le="+Inf"`) {
				sawInf = true
				if c != count {
					t.Fatalf("%s +Inf bucket %d != count %d", name, c, count)
				}
			}
		}
		if !sawInf {
			t.Fatalf("%s has no +Inf bucket:\n%s", name, out)
		}
	}
	checkMonotone("empty", 0)
	checkMonotone("overflow", 2)
	checkMonotone("mid", 5)
}

// TestWritePromLabeledSeries: labeled counters/gauges render their series
// as named, grouped under one TYPE header per family.
func TestWritePromLabeledSeries(t *testing.T) {
	r := NewMetrics()
	r.Counter(`req_total{family="tran"}`).Inc()
	r.Counter(`req_total{family="gcn"}`).Inc()
	r.Counter(`req_total{family="gcn"}`).Inc()
	r.Counter("req_total").Inc() // unlabeled series of the same family
	r.gauge(`depth{a="1",b="2"}`).Set(3)
	var buf bytes.Buffer
	if err := r.writeProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"req_total 1",
		`req_total{family="gcn"} 2`,
		`req_total{family="tran"} 1`,
		`depth{a="1",b="2"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "# TYPE req_total counter"); got != 1 {
		t.Fatalf("%d TYPE headers for req_total:\n%s", got, out)
	}
}

// TestWritePromLabeledHistogram: labeled histograms render the label block
// inside every _bucket line (before le) and as a suffix on _sum/_count, with
// all series of one family sharing a single TYPE header.
func TestWritePromLabeledHistogram(t *testing.T) {
	r := NewMetrics()
	a := r.Histogram(`req_seconds{endpoint="/predict"}`, []float64{1, 2})
	a.Observe(0.5)
	a.Observe(1.5)
	a.Observe(9) // overflow
	r.Histogram(`req_seconds{endpoint="/reload"}`, []float64{1, 2}).Observe(0.5)
	r.Histogram("req_seconds", []float64{1, 2}).Observe(0.5) // unlabeled sibling
	var buf bytes.Buffer
	if err := r.writeProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`req_seconds_bucket{le="1"} 1`, // unlabeled series unchanged
		`req_seconds_bucket{le="+Inf"} 1`,
		"req_seconds_count 1",
		`req_seconds_bucket{endpoint="/predict",le="1"} 1`,
		`req_seconds_bucket{endpoint="/predict",le="2"} 2`,
		`req_seconds_bucket{endpoint="/predict",le="+Inf"} 3`,
		`req_seconds_sum{endpoint="/predict"} 11`,
		`req_seconds_count{endpoint="/predict"} 3`,
		`req_seconds_bucket{endpoint="/reload",le="+Inf"} 1`,
		`req_seconds_count{endpoint="/reload"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "# TYPE req_seconds histogram"); got != 1 {
		t.Fatalf("%d TYPE headers for req_seconds:\n%s", got, out)
	}
	// One series, one instrument.
	if r.Histogram(`req_seconds{endpoint="/predict"}`, nil) != a {
		t.Fatal("Histogram did not return the series' existing instrument")
	}
}
