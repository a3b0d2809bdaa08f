package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestWritePromGolden pins the text exposition byte-for-byte: deterministic
// name ordering, cumulative histogram buckets, the +Inf bucket equal to
// _count, and the built-in dropped-samples counter.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("train_batches_total").Add(12)
	r.Gauge("runtime_goroutines").Set(9)
	h := r.Histogram("batch_seconds", []float64{0.5, 1, 2})
	for _, v := range []float64{0.1, 0.7, 0.7, 1.5, 100} {
		h.Observe(v) // 1 in ≤0.5, 2 in ≤1, 1 in ≤2, 1 overflow
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
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
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	h.Observe(50) // only the ≤100 bucket is hit
	h.Observe(1e6)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
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
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Inc()
	}
	r.Histogram("hist_b", nil).Observe(1)
	r.Histogram("hist_a", nil).Observe(2)
	var a, b bytes.Buffer
	if err := r.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteProm(&b); err != nil {
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
	var r *Registry
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
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
	r := NewRegistry()
	r.Histogram("empty", []float64{1, 2}) // registered, never observed
	over := r.Histogram("overflow", []float64{1, 2})
	over.Observe(100) // all samples beyond the last bound
	over.Observe(200)
	mid := r.Histogram("mid", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 3, 3, 7, 50} {
		mid.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
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

// TestWritePromLabeledSeries: labeled counters/gauges render name{labels}
// sample lines grouped under one TYPE header, with label values escaped.
func TestWritePromLabeledSeries(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("req_total", Label{"family", "tran"}).Add(2)
	r.CounterWith("req_total", Label{"family", "gcn"}).Add(5)
	r.CounterWith("req_total").Inc() // unlabeled series of the same name
	r.GaugeWith("weird", Label{"v", "a\"b\\c\nd"}).Set(1)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"req_total 1",
		`req_total{family="gcn"} 5`,
		`req_total{family="tran"} 2`,
		`weird{v="a\"b\\c\nd"} 1`,
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
// all series of one name sharing a single TYPE header.
func TestWritePromLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	a := r.HistogramWith("req_seconds", []float64{1, 2}, Label{"endpoint", "/predict"})
	a.Observe(0.5)
	a.Observe(1.5)
	a.Observe(9) // overflow
	r.HistogramWith("req_seconds", []float64{1, 2}, Label{"endpoint", "/reload"}).Observe(0.5)
	r.Histogram("req_seconds", []float64{1, 2}).Observe(0.5) // unlabeled sibling
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
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
	// Same (name, labels) → same instrument, regardless of call order.
	if r.HistogramWith("req_seconds", nil, Label{"endpoint", "/predict"}) != a {
		t.Fatal("HistogramWith did not dedupe the labeled series")
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"train_batches_total": "train_batches_total",
		"ns:counter":          "ns:counter",
		"batch.seconds":       "batch_seconds",
		"grid cell/MRE%":      "grid_cell_MRE_",
		"9lives":              "_9lives",
		"":                    "_",
		"a-b-c":               "a_b_c",
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// validPromName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// FuzzSanitizeMetricName: for any input the output is a valid Prometheus
// metric name, already-valid names pass through unchanged, and the function
// is idempotent.
func FuzzSanitizeMetricName(f *testing.F) {
	for _, seed := range []string{
		"", "train_batches_total", "ns:counter", "9lives", "grid cell/MRE%",
		"a-b-c", "\x00\xff", "üñïçødé", "0", "_", ":", "a b", strings.Repeat("x", 300),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		got := SanitizeMetricName(name)
		if !validPromName(got) {
			t.Fatalf("SanitizeMetricName(%q) = %q is not a valid metric name", name, got)
		}
		if validPromName(name) && got != name {
			t.Fatalf("valid name %q rewritten to %q", name, got)
		}
		if again := SanitizeMetricName(got); again != got {
			t.Fatalf("not idempotent: %q -> %q -> %q", name, got, again)
		}
	})
}
