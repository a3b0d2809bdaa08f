package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1023} {
		var hits atomic.Int64
		seen := make([]atomic.Bool, n+1)
		For(n, func(i int) {
			if i < 0 || i >= n {
				t.Errorf("index %d out of range", i)
				return
			}
			if seen[i].Swap(true) {
				t.Errorf("index %d visited twice", i)
			}
			hits.Add(1)
		})
		if int(hits.Load()) != n {
			t.Fatalf("n=%d: %d iterations", n, hits.Load())
		}
	}
}

func TestForBlockedCoversRange(t *testing.T) {
	f := func(nRaw, blockRaw uint8) bool {
		n := int(nRaw) % 200
		block := int(blockRaw)%16 + 1
		covered := make([]atomic.Int32, n)
		ForBlocked(n, block, func(lo, hi int) {
			if hi-lo > block || lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad block [%d,%d) for n=%d block=%d", lo, hi, n, block)
			}
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
			}
		})
		for i := range covered {
			if covered[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
