package serve

import (
	"math"
	"sync"

	"predtop/internal/obs"
)

// Metric names of the ground-truth accuracy series, labeled by family, mesh
// and op.
const (
	AccuracyMREMetric     = "predtop_accuracy_mre"
	AccuracySamplesMetric = "predtop_accuracy_samples_total"
)

// accuracyKey is one ground-truth population: the model's family, the
// request's free-form mesh label, and the benchmark.
type accuracyKey struct{ family, mesh, op string }

// accuracyGroup is one population's running mean of the absolute relative
// error in percent, its sample count, and its two series.
type accuracyGroup struct {
	mean    float64
	n       int64
	mre     *obs.Gauge
	samples *obs.Counter
}

// accuracy folds the residuals of /predict requests that attach a
// ground_truth into the predtop_accuracy_* series. A nil *accuracy (a daemon
// without a registry) drops them.
type accuracy struct {
	metrics *obs.Registry
	mu      sync.Mutex
	groups  map[accuracyKey]*accuracyGroup
}

func newAccuracy(metrics *obs.Registry) *accuracy {
	if metrics == nil {
		return nil
	}
	return &accuracy{metrics: metrics, groups: map[accuracyKey]*accuracyGroup{}}
}

// observe records one predicted-vs-actual pair: the key's gauge is set to the
// running mean, its counter counts the pair. Non-finite inputs and
// non-positive actuals are dropped (a relative error against them is
// meaningless).
func (a *accuracy) observe(key accuracyKey, predicted, actual float64) {
	if a == nil || !(actual > 0) || math.IsInf(actual, 0) || math.IsNaN(predicted) || math.IsInf(predicted, 0) {
		return
	}
	errPct := math.Abs(predicted-actual) / actual * 100
	a.mu.Lock()
	g := a.groups[key]
	if g == nil {
		labels := []obs.Label{{Key: "family", Value: key.family}, {Key: "mesh", Value: key.mesh}, {Key: "op", Value: key.op}}
		g = &accuracyGroup{
			mre:     a.metrics.GaugeWith(AccuracyMREMetric, labels...),
			samples: a.metrics.CounterWith(AccuracySamplesMetric, labels...),
		}
		a.groups[key] = g
	}
	g.n++
	g.mean += (errPct - g.mean) / float64(g.n)
	mean := g.mean
	a.mu.Unlock()
	g.mre.Set(mean)
	g.samples.Inc()
}
