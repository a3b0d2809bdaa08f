package obs

import (
	"sort"
	"testing"
)

// TestAccuracyQuantileSketchTolerance: the sketch's quantiles are accurate to
// one bucket width — on a ~21%-step ladder nearest-rank quantiles land within
// one step of the exact quantile — and the top rank is clamped to the largest
// value seen.
func TestAccuracyQuantileSketchTolerance(t *testing.T) {
	bounds := MustExpBuckets(0.01, 1.21, 74)
	sk := newSketch(bounds)
	for i := 1; i <= 100; i++ { // exact quantile q is 100·q
		sk.add(sort.SearchFloat64s(bounds, float64(i)))
	}
	for _, q := range []float64{0.50, 0.95} {
		exact := 100 * q
		if got := sk.quantile(bounds, q, 100); got < exact || got > exact*1.21 {
			t.Errorf("p%.0f = %.3f outside [%.0f, %.3f]", exact, got, exact, exact*1.21)
		}
	}
	if got := sk.quantile(bounds, 1, 100); got != 100 {
		t.Errorf("p100 = %v, want the largest value seen, 100", got)
	}
}
