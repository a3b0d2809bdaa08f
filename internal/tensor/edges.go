// Edge kernels: 1-hop message passing (the GCN aggregation and the GAT
// attention) over each graph's neighbour list, at the cost of its edges
// rather than of n².
//
// Layout. An edge vector is an E×1 tensor, E = Σ_g len(col_g): graph g owns
// the contiguous range that follows the edges of graphs 0..g−1, holding its
// own list's edges in CSR order (rows ascending, columns ascending within a
// row). There is no padding, and a graph's range depends on that graph alone.
// Row-space operands and results are ordinary stacked panels (BatchLayout);
// every kernel clears the pad rows of a row-space destination.
//
// Bitwise contract. Each kernel is the dense panel kernel it replaced with
// the masked entries left out. There a non-neighbour carried an exact zero
// weight (or, after the softmax, an exact zero probability), so with finite
// operands it contributed a signed zero to every running sum it took part in;
// those sums start at +0, can never reach −0 (only −0 + −0 yields it), and
// s + ±0 is s bit for bit — the argument matmulRowKernel makes for its
// zero-quad skip. What is left is visited in the dense order: a row's edges in
// ascending column order, rows in ascending order in every scatter, through
// the same axpy / dot / softmaxRow bodies, so SIMD on equals SIMD off.
package tensor

import (
	"math"
	"slices"
)

// Neighbours is one graph's 1-hop structure: A+I (the undirected adjacency
// with self-loops) in CSR form, carrying the symmetric-normalized values
// D^{-1/2}(A+I)D^{-1/2} the GCN baseline aggregates with. NewNeighbours is
// the only constructor, so every list the kernels see has len(ptr) == N+1,
// column indices in [0, N) strictly ascending within a row, and a self-loop
// in every row — an out-of-range index in a stacked panel would read another
// graph's rows instead of panicking.
type Neighbours struct {
	ptr []int     // row v's edges are [ptr[v], ptr[v+1])
	col []int     // neighbour of each edge
	val []float64 // 1/√(deg(row)·deg(col)) of each edge
}

// NewNeighbours builds the list of the graph with len(preds) nodes in which
// every v is joined to each node of preds[v]. Duplicate entries collapse;
// an index outside [0, len(preds)) panics.
func NewNeighbours(preds [][]int) *Neighbours {
	n := len(preds)
	// Count both directions of every edge plus the self-loop, duplicates
	// included, then fill and sort each row in place and squeeze duplicates
	// out.
	ptr := make([]int, n+1)
	for v, ps := range preds {
		ptr[v+1]++
		for _, p := range ps {
			if p < 0 || p >= n {
				shapePanic("NewNeighbours: node %d lists neighbour %d outside [0, %d)", v, p, n)
			}
			ptr[v+1]++
			ptr[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		ptr[v+1] += ptr[v]
	}
	col := make([]int, ptr[n])
	next := make([]int, n)
	copy(next, ptr)
	put := func(v, u int) {
		col[next[v]] = u
		next[v]++
	}
	for v, ps := range preds {
		put(v, v)
		for _, p := range ps {
			put(v, p)
			put(p, v)
		}
	}
	e := 0
	for v := 0; v < n; v++ {
		row := col[ptr[v]:ptr[v+1]]
		slices.Sort(row)
		ptr[v] = e
		for i, u := range row {
			if i == 0 || u != row[i-1] {
				col[e] = u
				e++
			}
		}
	}
	ptr[n] = e
	col = col[:e]

	// deg[v] = 1/√(row count): the dense form summed a row of ones, which is
	// exact, so this is the same value.
	deg := make([]float64, n)
	for v := range deg {
		deg[v] = 1 / math.Sqrt(float64(ptr[v+1]-ptr[v]))
	}
	val := make([]float64, e)
	for v := 0; v < n; v++ {
		for k := ptr[v]; k < ptr[v+1]; k++ {
			val[k] = deg[v] * deg[col[k]]
		}
	}
	return &Neighbours{ptr: ptr, col: col, val: val}
}

// N returns the node count.
func (nb *Neighbours) N() int { return len(nb.ptr) - 1 }

// Edges returns the number of stored entries of A+I (each undirected edge
// twice, each self-loop once).
func (nb *Neighbours) Edges() int { return len(nb.col) }

// Row returns node v's neighbours in ascending order (v itself among them)
// and the normalized adjacency value of each. The slices alias the list and
// must not be written.
func (nb *Neighbours) Row(v int) (cols []int, vals []float64) {
	lo, hi := nb.ptr[v], nb.ptr[v+1]
	return nb.col[lo:hi], nb.val[lo:hi]
}

// EdgeCount returns the length of a batch's edge vectors.
func EdgeCount(nbrs []*Neighbours) int {
	e := 0
	for _, nb := range nbrs {
		e += len(nb.col)
	}
	return e
}

// checkEdges validates a batch's lists against its layout: one list per
// graph, each of its panel's node count.
func checkEdges(nbrs []*Neighbours, l BatchLayout, op string) {
	if len(nbrs) != l.B {
		shapePanic("%s has %d neighbour lists for %d graphs", op, len(nbrs), l.B)
	}
	for g, nb := range nbrs {
		if nb.N() != l.Counts[g] {
			shapePanic("%s neighbour list of %d nodes, panel wants %d", op, nb.N(), l.Counts[g])
		}
	}
}

// checkEdgeVec validates an edge-vector operand or destination.
func checkEdgeVec(t *Tensor, nbrs []*Neighbours, op string) {
	if e := EdgeCount(nbrs); t.R != e || t.C != 1 {
		shapePanic("%s edge vector is %dx%d, the lists hold %d edges", op, t.R, t.C, e)
	}
}

// EdgeValuesInto stacks every list's normalized adjacency values into the
// edge vector dst — the constant weights of the GCN aggregation.
func EdgeValuesInto(dst *Tensor, nbrs []*Neighbours) {
	checkEdgeVec(dst, nbrs, "EdgeValuesInto")
	eo := 0
	for _, nb := range nbrs {
		eo += copy(dst.Data[eo:], nb.val)
	}
}

// EdgeAddOuterInto computes the edge vector dst[e] = a[i] + b[j] for every
// edge e = (i, j), from stacked column vectors a, b (rows×1) — the GAT
// attention-logit outer sum on the entries the softmax keeps.
func EdgeAddOuterInto(dst, a, b *Tensor, nbrs []*Neighbours, l BatchLayout) {
	if a.C != 1 || b.C != 1 {
		shapePanic("EdgeAddOuter wants column vectors, got %dx%d and %dx%d", a.R, a.C, b.R, b.C)
	}
	checkEdges(nbrs, l, "EdgeAddOuterInto")
	checkEdgeVec(dst, nbrs, "EdgeAddOuterInto")
	checkSeg(a, l, "EdgeAddOuterInto")
	checkSeg(b, l, "EdgeAddOuterInto")
	eo := 0
	for g, nb := range nbrs {
		base := g * l.Stride
		bd := b.Data[base : base+nb.N()]
		out := dst.Data[eo : eo+len(nb.col)]
		for i, av := range a.Data[base : base+nb.N()] {
			for e := nb.ptr[i]; e < nb.ptr[i+1]; e++ {
				out[e] = av + bd[nb.col[e]]
			}
		}
		eo += len(nb.col)
	}
}

// EdgeRowSumsInto computes dst[i] = Σ t[e] over row i's edges in ascending
// column order — the da backward of EdgeAddOuter — clearing pad rows.
func EdgeRowSumsInto(dst, t *Tensor, nbrs []*Neighbours, l BatchLayout) {
	checkEdges(nbrs, l, "EdgeRowSumsInto")
	checkEdgeVec(t, nbrs, "EdgeRowSumsInto")
	checkInto(dst, l.Rows(), 1, "EdgeRowSumsInto")
	eo := 0
	for g, nb := range nbrs {
		base := g * l.Stride
		td := t.Data[eo : eo+len(nb.col)]
		for i := 0; i < nb.N(); i++ {
			sum := 0.0
			for _, v := range td[nb.ptr[i]:nb.ptr[i+1]] {
				sum += v
			}
			dst.Data[base+i] = sum
		}
		clear(dst.Data[base+nb.N() : base+l.Stride])
		eo += len(nb.col)
	}
}

// EdgeColSumsInto computes dst[j] = Σ t[e] over the edges that end in j,
// accumulating in ascending row order — the db backward of EdgeAddOuter —
// clearing pad rows.
func EdgeColSumsInto(dst, t *Tensor, nbrs []*Neighbours, l BatchLayout) {
	checkEdges(nbrs, l, "EdgeColSumsInto")
	checkEdgeVec(t, nbrs, "EdgeColSumsInto")
	checkInto(dst, l.Rows(), 1, "EdgeColSumsInto")
	eo := 0
	for g, nb := range nbrs {
		base := g * l.Stride
		dd := dst.Data[base : base+l.Stride]
		clear(dd)
		for e, v := range t.Data[eo : eo+len(nb.col)] {
			dd[nb.col[e]] += v
		}
		eo += len(nb.col)
	}
}

// EdgeSoftmaxInto normalizes each row's edges with one softmaxRow over the
// row's contiguous edge range: the 1-hop-masked row softmax without the
// mask, whose −Inf entries came out as exact zeros. dst may alias t (the
// in-place attention form).
func EdgeSoftmaxInto(dst, t *Tensor, nbrs []*Neighbours) {
	checkEdgeVec(t, nbrs, "EdgeSoftmaxInto")
	checkEdgeVec(dst, nbrs, "EdgeSoftmaxInto")
	eo := 0
	for _, nb := range nbrs {
		for i := 0; i < nb.N(); i++ {
			lo, hi := eo+nb.ptr[i], eo+nb.ptr[i+1]
			softmaxRow(dst.Data[lo:hi], t.Data[lo:hi], nil, 0)
		}
		eo += len(nb.col)
	}
}

// EdgeSoftmaxBackInto computes the softmax VJP per row of edges:
// dst[e] = y[e]·(g[e] − Σ g·y over the row), the row dot summed
// sequentially in ascending column order.
func EdgeSoftmaxBackInto(dst, g, y *Tensor, nbrs []*Neighbours) {
	checkEdgeVec(y, nbrs, "EdgeSoftmaxBackInto")
	checkEdgeVec(g, nbrs, "EdgeSoftmaxBackInto")
	checkEdgeVec(dst, nbrs, "EdgeSoftmaxBackInto")
	eo := 0
	for _, nb := range nbrs {
		for i := 0; i < nb.N(); i++ {
			lo, hi := eo+nb.ptr[i], eo+nb.ptr[i+1]
			grow, yrow := g.Data[lo:hi], y.Data[lo:hi]
			dotgy := 0.0
			for j := range grow {
				dotgy += grow[j] * yrow[j]
			}
			SoftmaxBackRow(dst.Data[lo:hi], grow, yrow, dotgy)
		}
		eo += len(nb.col)
	}
}

// EdgeAggregateInto computes dst row i = Σ w[e]·x row j over row i's edges
// e = (i, j) in ascending column order, x a stacked (rows×k) tensor and w an
// edge vector — Â·X with w the adjacency values, attention·V with w the
// attention weights. Pad rows are cleared. dst must not alias x.
func EdgeAggregateInto(dst, w, x *Tensor, nbrs []*Neighbours, l BatchLayout) {
	checkEdges(nbrs, l, "EdgeAggregateInto")
	checkEdgeVec(w, nbrs, "EdgeAggregateInto")
	checkInto(dst, x.R, x.C, "EdgeAggregateInto")
	checkSeg(x, l, "EdgeAggregateInto")
	k := x.C
	eo := 0
	for g, nb := range nbrs {
		base := g * l.Stride
		wd := w.Data[eo : eo+len(nb.col)]
		for i := 0; i < nb.N(); i++ {
			crow := dst.Data[(base+i)*k : (base+i+1)*k]
			clear(crow)
			for e := nb.ptr[i]; e < nb.ptr[i+1]; e++ {
				j := base + nb.col[e]
				axpy(wd[e], x.Data[j*k:(j+1)*k], crow)
			}
		}
		clearRows(dst, base+nb.N(), base+l.Stride)
		eo += len(nb.col)
	}
}

// EdgeScatterInto computes dst row j = Σ w[e]·g row i over the edges
// e = (i, j) that end in j, visiting rows i in ascending order — the dX
// backward of EdgeAggregate (the transposed aggregation). Pad rows are
// cleared. dst must not alias g.
func EdgeScatterInto(dst, w, g *Tensor, nbrs []*Neighbours, l BatchLayout) {
	checkEdges(nbrs, l, "EdgeScatterInto")
	checkEdgeVec(w, nbrs, "EdgeScatterInto")
	checkInto(dst, g.R, g.C, "EdgeScatterInto")
	checkSeg(g, l, "EdgeScatterInto")
	k := g.C
	eo := 0
	for gi, nb := range nbrs {
		base := gi * l.Stride
		clearRows(dst, base, base+l.Stride)
		wd := w.Data[eo : eo+len(nb.col)]
		for i := 0; i < nb.N(); i++ {
			grow := g.Data[(base+i)*k : (base+i+1)*k]
			for e := nb.ptr[i]; e < nb.ptr[i+1]; e++ {
				j := base + nb.col[e]
				axpy(wd[e], grow, dst.Data[j*k:(j+1)*k])
			}
		}
		eo += len(nb.col)
	}
}

// EdgeDotInto computes the edge vector dst[e] = g row i · x row j for every
// edge e = (i, j) — the dW backward of EdgeAggregate, one dot per kept entry
// of the dense g·xᵀ.
func EdgeDotInto(dst, g, x *Tensor, nbrs []*Neighbours, l BatchLayout) {
	if g.C != x.C {
		shapePanic("EdgeDot shape mismatch %dx%d vs %dx%d", g.R, g.C, x.R, x.C)
	}
	checkEdges(nbrs, l, "EdgeDotInto")
	checkEdgeVec(dst, nbrs, "EdgeDotInto")
	checkSeg(g, l, "EdgeDotInto")
	checkSeg(x, l, "EdgeDotInto")
	k := g.C
	eo := 0
	for gi, nb := range nbrs {
		base := gi * l.Stride
		out := dst.Data[eo : eo+len(nb.col)]
		for i := 0; i < nb.N(); i++ {
			grow := g.Data[(base+i)*k : (base+i+1)*k]
			for e := nb.ptr[i]; e < nb.ptr[i+1]; e++ {
				j := base + nb.col[e]
				out[e] = dot(grow, x.Data[j*k:(j+1)*k])
			}
		}
		eo += len(nb.col)
	}
}
