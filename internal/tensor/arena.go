package tensor

// Arena is a generation-based free-list allocator for Tensor buffers. The
// training and prediction hot paths allocate thousands of short-lived
// intermediates per forward+backward pass; drawing them from an arena and
// recycling the whole generation with one Reset per step removes that load
// from the garbage collector entirely — steady state is zero allocations.
//
// Contract:
//
//   - GetUninit hands out tensors owned by the arena. They remain valid
//     until the next Reset, at which point their buffers are recycled and
//     MUST NOT be referenced again.
//   - Anything that escapes the generation — trained weights, gradients
//     accumulated across steps, results returned to callers — must be
//     copied out with Clone (which always heap-allocates).
//   - A nil *Arena is valid and simply falls back to plain allocation, so
//     code paths can be written once and run with or without reuse.
//   - An Arena is not safe for concurrent use; give each worker goroutine
//     its own.
//
// Buffers are bucketed by power-of-two size class, so a recycled buffer
// serves any request up to its capacity and steady-state reuse is exact
// once the arena has seen its largest graph.
type Arena struct {
	free map[int][]*Tensor // size class (cap of Data) → recycled tensors
	used []*Tensor         // tensors handed out this generation
	hdrs []Tensor          // unused headers of the current header chunk
}

// arenaMinClass is the smallest bucket in float64s; tiny tensors (scalars,
// bias rows) round up to it so they all share one free list.
const arenaMinClass = 64

// arenaHdrChunk is how many tensor headers a warming arena allocates at
// once, so a new buffer costs one allocation rather than two.
const arenaHdrChunk = 64

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{free: make(map[int][]*Tensor)}
}

// sizeClass rounds n up to the next power-of-two bucket.
func sizeClass(n int) int {
	c := arenaMinClass
	for c < n {
		c <<= 1
	}
	return c
}

// GetUninit returns an r×c tensor drawn from the arena (or freshly allocated
// on a nil arena / empty free list). The contents of a recycled buffer are
// unspecified: callers overwrite every element.
func (a *Arena) GetUninit(r, c int) *Tensor {
	if a == nil {
		return New(r, c)
	}
	if r < 0 || c < 0 {
		panic("tensor: negative arena shape")
	}
	n := r * c
	cls := sizeClass(n)
	if l := a.free[cls]; len(l) > 0 {
		t := l[len(l)-1]
		l[len(l)-1] = nil
		a.free[cls] = l[:len(l)-1]
		t.R, t.C = r, c
		t.Data = t.Data[:n]
		a.used = append(a.used, t)
		return t
	}
	if len(a.hdrs) == 0 {
		a.hdrs = make([]Tensor, arenaHdrChunk)
	}
	t := &a.hdrs[0]
	a.hdrs = a.hdrs[1:]
	t.R, t.C, t.Data = r, c, make([]float64, n, cls)
	a.used = append(a.used, t)
	return t
}

// Reset recycles every tensor handed out since the previous Reset. All of
// them become invalid.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for i, t := range a.used {
		a.used[i] = nil
		cls := cap(t.Data)
		a.free[cls] = append(a.free[cls], t)
	}
	a.used = a.used[:0]
}
