package stage

import (
	"math/rand"
	"sort"
)

// Spec identifies a pipeline stage as a contiguous segment range [Lo, Hi) of
// a model.
type Spec struct {
	Lo, Hi int
}

// Len returns the number of segments in the stage.
func (s Spec) Len() int { return s.Hi - s.Lo }

// AllSpecs enumerates every contiguous stage of up to maxLen segments of a
// model with numSegments segments — the stage universe Alpa's inter-operator
// pass iterates over (maxLen ≤ 0 means unbounded).
func AllSpecs(numSegments, maxLen int) []Spec {
	if maxLen <= 0 || maxLen > numSegments {
		maxLen = numSegments
	}
	var out []Spec
	for lo := 0; lo < numSegments; lo++ {
		for hi := lo + 1; hi <= numSegments && hi-lo <= maxLen; hi++ {
			out = append(out, Spec{Lo: lo, Hi: hi})
		}
	}
	return out
}

// SampleSpecs draws count distinct stages of varied sizes (paper §IV-B1:
// "We include the stages of different sizes to make our model more
// general"). Short stages are favored — they dominate the stage universe —
// but every length up to maxLen is represented when count allows.
func SampleSpecs(rng *rand.Rand, numSegments, count, maxLen int) []Spec {
	universe := AllSpecs(numSegments, maxLen)
	if count >= len(universe) {
		return universe
	}
	// Group by length, then round-robin lengths drawing randomly within
	// each, guaranteeing size diversity.
	byLen := make(map[int][]Spec)
	maxL := 0
	for _, s := range universe {
		byLen[s.Len()] = append(byLen[s.Len()], s)
		if s.Len() > maxL {
			maxL = s.Len()
		}
	}
	// Shuffle groups in ascending-length order: ranging over the map here
	// would consume RNG draws in a run-dependent order, making the sampled
	// set irreproducible for a fixed seed.
	for l := 1; l <= maxL; l++ {
		specs := byLen[l]
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	}
	var out []Spec
	for len(out) < count {
		added := false
		for l := 1; l <= maxL && len(out) < count; l++ {
			if specs := byLen[l]; len(specs) > 0 {
				out = append(out, specs[len(specs)-1])
				byLen[l] = specs[:len(specs)-1]
				added = true
			}
		}
		if !added {
			break
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lo != out[j].Lo {
			return out[i].Lo < out[j].Lo
		}
		return out[i].Hi < out[j].Hi
	})
	return out
}

// Split partitions indices [0, n) into train, validation, and test index
// sets: trainFrac for training, valFrac for validation, the rest for testing
// (the paper uses a separate 10% validation split, §VIII). The training set
// is clamped to [1, n] indices and the validation set to what remains, so an
// out-of-range fraction yields a degenerate split, never a panic.
func Split(rng *rand.Rand, n int, trainFrac, valFrac float64) (train, val, test []int) {
	perm := rng.Perm(n)
	nTrain := min(max(int(float64(n)*trainFrac+0.5), 1), n)
	nVal := min(max(int(float64(n)*valFrac+0.5), 0), n-nTrain)
	train = perm[:nTrain]
	val = perm[nTrain : nTrain+nVal]
	test = perm[nTrain+nVal:]
	return train, val, test
}
