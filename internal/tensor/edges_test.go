package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestNewNeighbours(t *testing.T) {
	// 0─1, 0─2 (listed twice), 1─2, and 3 isolated; node 2 also lists itself.
	nb := NewNeighbours([][]int{{}, {0}, {1, 0, 0, 2}, {}})
	if nb.N() != 4 || nb.Edges() != 10 {
		t.Fatalf("N=%d Edges=%d, want 4 and 10", nb.N(), nb.Edges())
	}
	third := 1 / math.Sqrt(3)
	for v, want := range [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {3}} {
		cols, vals := nb.Row(v)
		if !slices.Equal(cols, want) {
			t.Fatalf("row %d: %v, want %v", v, cols, want)
		}
		for k := range cols {
			w := third * third
			if v == 3 {
				w = 1
			}
			if vals[k] != w {
				t.Fatalf("row %d value %d: %v, want %v", v, k, vals[k], w)
			}
		}
	}
	if nb := NewNeighbours(nil); nb.N() != 0 || nb.Edges() != 0 {
		t.Fatalf("empty graph: N=%d Edges=%d", nb.N(), nb.Edges())
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestNeighboursRejectBadInput: an index outside the graph must stop at the
// constructor, and a list must not run against an operand of another node
// count — either would read past the graph's rows.
func TestNeighboursRejectBadInput(t *testing.T) {
	mustPanic(t, "neighbour past the end", func() { NewNeighbours([][]int{{}, {2}}) })
	mustPanic(t, "negative neighbour", func() { NewNeighbours([][]int{{-1}}) })
	three := NewNeighbours([][]int{{}, {0}, {1}})
	w := New(three.Edges(), 1)
	mustPanic(t, "list larger than its operand", func() {
		EdgeAggregateInto(New(2, 2), w, New(2, 2), three)
	})
	mustPanic(t, "edge vector of another list", func() {
		EdgeAggregateInto(New(3, 2), New(three.Edges()+1, 1), New(3, 2), three)
	})
	EdgeAggregateInto(New(3, 2), w, New(3, 2), three)
}

// randomNeighbours draws a sparse list on n nodes: every node past the first
// joins up to two earlier ones.
func randomNeighbours(rng *rand.Rand, n int) *Neighbours {
	preds := make([][]int, n)
	for v := 1; v < n; v++ {
		for k := rng.Intn(3); k > 0; k-- {
			preds[v] = append(preds[v], rng.Intn(v))
		}
	}
	return NewNeighbours(preds)
}

// TestEdgeKernelsDefinePadRows: destinations come uninitialized from an
// arena, so every row-space edge kernel must define each row of its
// destination whatever the buffer held — a NaN-filled buffer must end bitwise
// equal to a zeroed one.
func TestEdgeKernelsDefinePadRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 5} {
		nb := randomNeighbours(rng, n)
		w, x := randT(rng, nb.Edges(), 1), randT(rng, n, 3)
		for _, k := range []struct {
			name string
			cols int
			run  func(dst *Tensor)
		}{
			{"EdgeRowSums", 1, func(dst *Tensor) { EdgeRowSumsInto(dst, w, nb) }},
			{"EdgeColSums", 1, func(dst *Tensor) { EdgeColSumsInto(dst, w, nb) }},
			{"EdgeAggregate", 3, func(dst *Tensor) { EdgeAggregateInto(dst, w, x, nb) }},
			{"EdgeScatter", 3, func(dst *Tensor) { EdgeScatterInto(dst, w, x, nb) }},
		} {
			want, dirty := New(n, k.cols), Full(n, k.cols, math.NaN())
			k.run(want)
			k.run(dirty)
			wantBitwise(t, k.name, dirty, want)
		}
	}
}
