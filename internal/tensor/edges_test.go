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
// constructor, and a list must not run against a panel of another size — in
// a stacked tensor either would read a neighbouring graph's rows.
func TestNeighboursRejectBadInput(t *testing.T) {
	mustPanic(t, "neighbour past the end", func() { NewNeighbours([][]int{{}, {2}}) })
	mustPanic(t, "negative neighbour", func() { NewNeighbours([][]int{{-1}}) })
	l := BatchLayout{B: 2, Stride: 3, Counts: []int{3, 2}}
	three, two := NewNeighbours([][]int{{}, {0}, {1}}), NewNeighbours([][]int{{}, {0}})
	x := New(l.Rows(), 2)
	mustPanic(t, "list larger than its panel", func() {
		nbrs := []*Neighbours{three, three}
		EdgeAggregateInto(New(l.Rows(), 2), New(EdgeCount(nbrs), 1), x, nbrs, l)
	})
	mustPanic(t, "one list for two graphs", func() {
		nbrs := []*Neighbours{three}
		EdgeAggregateInto(New(l.Rows(), 2), New(EdgeCount(nbrs), 1), x, nbrs, l)
	})
	nbrs := []*Neighbours{three, two}
	EdgeAggregateInto(New(l.Rows(), 2), New(EdgeCount(nbrs), 1), x, nbrs, l)
}

// randomNeighbours draws one sparse list per panel of l: every node past the
// first joins up to two earlier ones.
func randomNeighbours(rng *rand.Rand, l BatchLayout) []*Neighbours {
	nbrs := make([]*Neighbours, l.B)
	for g, c := range l.Counts {
		preds := make([][]int, c)
		for v := 1; v < c; v++ {
			for k := rng.Intn(3); k > 0; k-- {
				preds[v] = append(preds[v], rng.Intn(v))
			}
		}
		nbrs[g] = NewNeighbours(preds)
	}
	return nbrs
}

// TestEdgeKernelsDefinePadRows: destinations come uninitialized from an
// arena, so every row-space edge kernel must write each real row and zero
// each pad row, whatever the buffer held.
func TestEdgeKernelsDefinePadRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := BatchLayout{B: 3, Stride: 5, Counts: []int{2, 5, 3}}
	nbrs := randomNeighbours(rng, l)
	w, x := randT(rng, EdgeCount(nbrs), 1), randT(rng, l.Rows(), 3)
	for _, k := range []struct {
		name string
		cols int
		run  func(dst *Tensor)
	}{
		{"EdgeRowSums", 1, func(dst *Tensor) { EdgeRowSumsInto(dst, w, nbrs, l) }},
		{"EdgeColSums", 1, func(dst *Tensor) { EdgeColSumsInto(dst, w, nbrs, l) }},
		{"EdgeAggregate", 3, func(dst *Tensor) { EdgeAggregateInto(dst, w, x, nbrs, l) }},
		{"EdgeScatter", 3, func(dst *Tensor) { EdgeScatterInto(dst, w, x, nbrs, l) }},
	} {
		dst := Full(l.Rows(), k.cols, math.NaN())
		k.run(dst)
		for g, c := range l.Counts {
			for i := 0; i < l.Stride; i++ {
				for _, v := range dst.Row(g*l.Stride + i) {
					if i < c && math.IsNaN(v) {
						t.Fatalf("%s left real row %d of panel %d unwritten", k.name, i, g)
					}
					if i >= c && math.Float64bits(v) != 0 {
						t.Fatalf("%s left %v in pad row %d of panel %d", k.name, v, i, g)
					}
				}
			}
		}
	}
}
