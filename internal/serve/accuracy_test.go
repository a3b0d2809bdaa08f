package serve

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestAccuracyWelfordMeanMatchesOffline: the running mean a population's gauge
// carries is the offline MRE (mean absolute relative error) of its residuals,
// the figure the paper's tables report.
func TestAccuracyWelfordMeanMatchesOffline(t *testing.T) {
	r := NewMetrics()
	a := newAccuracy(r)
	key := accuracyKey{"tran", "2x8", "GPT3"}
	preds := []float64{1.0, 2.2, 0.9, 4.0, 10.0, 0.33}
	acts := []float64{1.1, 2.0, 1.0, 4.4, 8.0, 0.30}
	sum := 0.0
	for i := range preds {
		a.observe(key, preds[i], acts[i])
		sum += math.Abs(preds[i]-acts[i]) / acts[i] * 100
	}
	want := sum / float64(len(preds))
	g := a.groups[key]
	if g.n != int64(len(preds)) || g.samples.Value() != g.n {
		t.Fatalf("n %d, counter %d, want %d", g.n, g.samples.Value(), len(preds))
	}
	if got := g.mre.Value(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("running mean %.12f, offline MRE %.12f", got, want)
	}
}

// TestAccuracyConcurrentObserve: handlers observe from many goroutines at
// once (run under -race); every pair is counted and the mean stays exact for
// identical residuals.
func TestAccuracyConcurrentObserve(t *testing.T) {
	a := newAccuracy(NewMetrics())
	key := accuracyKey{"tran", "2x2", "GPT-3"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a.observe(key, 125, 100)
			}
		}()
	}
	wg.Wait()
	if g := a.groups[key]; g.samples.Value() != 400 || g.mre.Value() != 25 {
		t.Fatalf("counter %d, gauge %v, want 400 and 25", g.samples.Value(), g.mre.Value())
	}
}

// TestAccuracyLabeledExport: gauges land in the registry under the group's
// family/mesh/op labels and survive into the Prometheus exposition.
func TestAccuracyLabeledExport(t *testing.T) {
	r := NewMetrics()
	a := newAccuracy(r)
	a.observe(accuracyKey{"tran", "2x8", "GPT3"}, 110, 100)
	a.observe(accuracyKey{"gcn", "2x8", "GPT3"}, 130, 100)
	var buf bytes.Buffer
	if err := r.writeProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		`predtop_accuracy_mre{family="tran",mesh="2x8",op="GPT3"} 10`,
		`predtop_accuracy_mre{family="gcn",mesh="2x8",op="GPT3"} 30`,
		`predtop_accuracy_samples_total{family="tran",mesh="2x8",op="GPT3"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("missing %q in exposition:\n%s", line, out)
		}
	}
	// One TYPE header per base name, even with two labeled series.
	if got := strings.Count(out, "# TYPE predtop_accuracy_mre gauge"); got != 1 {
		t.Fatalf("%d TYPE headers for predtop_accuracy_mre:\n%s", got, out)
	}
}

// TestAccuracyRejectsDegenerate: non-positive actuals and non-finite inputs
// never enter a population, and a daemon without a registry keeps none.
func TestAccuracyRejectsDegenerate(t *testing.T) {
	a := newAccuracy(NewMetrics())
	key := accuracyKey{}
	a.observe(key, 1, 0)
	a.observe(key, 1, -5)
	a.observe(key, math.NaN(), 1)
	a.observe(key, math.Inf(1), 1)
	a.observe(key, 1, math.Inf(1))
	if len(a.groups) != 0 {
		t.Fatal("degenerate observations created a population")
	}
	off := newAccuracy(nil)
	if off != nil {
		t.Fatal("an accuracy tracker without a registry")
	}
	off.observe(key, 1.1, 1)
}
