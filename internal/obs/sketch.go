package obs

import "math"

// sketch is the SLO tracker's bucket quantile sketch: observation counts over
// fixed ascending upper bounds, plus one overflow slot past the last bound.
// Callers find a value's bucket once (sort.SearchFloat64s over the bounds) and
// may add it to several sketches; sub retires one sketch's counts from an
// aggregate of it.
type sketch struct {
	counts []int64 // len(bounds)+1
	n      int64
}

func newSketch(bounds []float64) sketch {
	return sketch{counts: make([]int64, len(bounds)+1)}
}

func (s *sketch) add(bucket int) {
	s.counts[bucket]++
	s.n++
}

func (s *sketch) sub(o *sketch) {
	for i, c := range o.counts {
		s.counts[i] -= c
	}
	s.n -= o.n
}

func (s *sketch) reset() {
	clear(s.counts)
	s.n = 0
}

// quantile is the one quantile rule, nearest rank: the upper bound of the
// bucket holding the ceil(q·n)-th smallest observation, clamped to maxSeen —
// the largest value observed, always a valid and sometimes tighter upper
// bound, and the only one the overflow slot has. An empty sketch reads 0.
func (s *sketch) quantile(bounds []float64, q, maxSeen float64) float64 {
	if s.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, b := range bounds {
		if cum += s.counts[i]; cum >= rank {
			return min(b, maxSeen)
		}
	}
	return maxSeen
}
