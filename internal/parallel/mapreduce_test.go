package parallel

import (
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForLimitCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 257} {
		for _, workers := range []int{-1, 0, 1, 2, 7, 100} {
			var hits atomic.Int64
			ForLimit(n, workers, func(i int) {
				if i < 0 || i >= n {
					t.Errorf("index %d out of range", i)
				}
				hits.Add(1)
			})
			if int(hits.Load()) != n {
				t.Fatalf("n=%d workers=%d: %d iterations", n, workers, hits.Load())
			}
		}
	}
}

// mapReduce is the composition the training engine's evaluation uses: fill a
// slice with ForLimit at some worker count, then fold it with TreeReduce.
func mapReduce[T any](n, workers int, mapFn func(i int) T, reduceFn func(a, b T) T) T {
	vals := make([]T, n)
	ForLimit(n, workers, func(i int) { vals[i] = mapFn(i) })
	return TreeReduce(vals, reduceFn)
}

// TestMapReduceWorkerCountInvariant is the determinism property the training
// engine relies on: a floating-point sum mapped by ForLimit and folded by
// TreeReduce is bitwise identical for every worker count, because the
// reduction tree's shape is a function of n alone. The inputs are scaled to magnitudes where addition
// order genuinely changes the rounded result, so a schedule-dependent fold
// would fail this test.
func TestMapReduceWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(nRaw uint16) bool {
		n := int(nRaw)%200 + 1
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-10))
		}
		add := func(a, b float64) float64 { return a + b }
		want := mapReduce(n, 1, func(i int) float64 { return vals[i] }, add)
		for _, workers := range []int{2, 3, 8, 64} {
			got := mapReduce(n, workers, func(i int) float64 { return vals[i] }, add)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d workers=%d: %x != %x", n, workers, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeReduceFixedOrder proves the fold visits inputs in index order: a
// non-commutative reduction (string concatenation) over the pairwise tree
// must reproduce the exact left-to-right concatenation for every length and
// worker count.
func TestTreeReduceFixedOrder(t *testing.T) {
	for n := 1; n <= 33; n++ {
		var want strings.Builder
		for i := 0; i < n; i++ {
			want.WriteByte(byte('a' + i%26))
		}
		for _, workers := range []int{1, 4} {
			got := mapReduce(n, workers, func(i int) string {
				return string(byte('a' + i%26))
			}, func(a, b string) string { return a + b })
			if got != want.String() {
				t.Fatalf("n=%d workers=%d: %q != %q", n, workers, got, want.String())
			}
		}
	}
}

func TestTreeReduceInPlaceAccumulation(t *testing.T) {
	// Reductions that mutate their first argument (the per-panel gradient
	// fold) must see every input exactly once.
	bufs := make([]*[3]float64, 7)
	for i := range bufs {
		bufs[i] = &[3]float64{float64(i), 1, 0}
	}
	total := TreeReduce(bufs, func(a, b *[3]float64) *[3]float64 {
		a[0] += b[0]
		a[1] += b[1]
		return a
	})
	if total != bufs[0] {
		t.Fatal("in-place reduction should settle in the first slot")
	}
	if total[0] != 21 || total[1] != 7 {
		t.Fatalf("reduced to %v", *total)
	}
}
