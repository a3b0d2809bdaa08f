// Edge kernels: 1-hop message passing (the GCN aggregation and the GAT
// attention) over one graph's neighbour list, at the cost of its edges rather
// than of n².
//
// Layout. An edge vector is an E×1 tensor, E = the list's Edges(), holding
// the edges in CSR order (rows ascending, columns ascending within a row).
// Row-space operands and results are the graph's N-row node tensors.
//
// Bitwise contract. Each kernel is the dense kernel it replaced with the
// masked entries left out. There a non-neighbour carried an exact zero
// weight (or, after the softmax, an exact zero probability), so with finite
// operands it contributed a signed zero to every running sum it took part in;
// those sums start at +0, can never reach −0 (only −0 + −0 yields it), and
// s + ±0 is s bit for bit. The contract is the finite one: a dense product
// adds every term, so there a zero weight times an Inf is NaN, which an edge
// kernel, having no such term, never forms. What is left is visited in the
// dense order: a row's edges in ascending column order, rows in ascending
// order in every scatter, through the same axpy / dot / softmaxRow bodies, so
// SIMD on equals SIMD off.
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
// in every row, so no kernel below needs a bounds check of its own.
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

// checkEdges validates a row-space operand or destination of rows rows
// against the list's node count.
func checkEdges(nb *Neighbours, rows int, op string) {
	if nb.N() != rows {
		shapePanic("%s neighbour list of %d nodes, operand has %d rows", op, nb.N(), rows)
	}
}

// checkEdgeVec validates an edge-vector operand or destination.
func checkEdgeVec(t *Tensor, nb *Neighbours, op string) {
	if e := len(nb.col); t.R != e || t.C != 1 {
		shapePanic("%s edge vector is %dx%d, the list holds %d edges", op, t.R, t.C, e)
	}
}

// EdgeValuesInto copies the list's normalized adjacency values into the edge
// vector dst — the constant weights of the GCN aggregation.
func EdgeValuesInto(dst *Tensor, nb *Neighbours) {
	checkEdgeVec(dst, nb, "EdgeValuesInto")
	copy(dst.Data, nb.val)
}

// EdgeAddOuterInto computes the edge vector dst[e] = a[i] + b[j] for every
// edge e = (i, j), from N×1 column vectors a, b — the GAT attention-logit
// outer sum on the entries the softmax keeps.
func EdgeAddOuterInto(dst, a, b *Tensor, nb *Neighbours) {
	if a.C != 1 || b.C != 1 {
		shapePanic("EdgeAddOuter wants column vectors, got %dx%d and %dx%d", a.R, a.C, b.R, b.C)
	}
	checkEdges(nb, a.R, "EdgeAddOuterInto")
	checkEdges(nb, b.R, "EdgeAddOuterInto")
	checkEdgeVec(dst, nb, "EdgeAddOuterInto")
	for i, av := range a.Data {
		for e := nb.ptr[i]; e < nb.ptr[i+1]; e++ {
			dst.Data[e] = av + b.Data[nb.col[e]]
		}
	}
}

// EdgeRowSumsInto computes dst[i] = Σ t[e] over row i's edges in ascending
// column order — the da backward of EdgeAddOuter.
func EdgeRowSumsInto(dst, t *Tensor, nb *Neighbours) {
	checkEdgeVec(t, nb, "EdgeRowSumsInto")
	checkInto(dst, nb.N(), 1, "EdgeRowSumsInto")
	for i := range dst.Data {
		sum := 0.0
		for _, v := range t.Data[nb.ptr[i]:nb.ptr[i+1]] {
			sum += v
		}
		dst.Data[i] = sum
	}
}

// EdgeColSumsInto computes dst[j] = Σ t[e] over the edges that end in j,
// accumulating in ascending row order — the db backward of EdgeAddOuter.
func EdgeColSumsInto(dst, t *Tensor, nb *Neighbours) {
	checkEdgeVec(t, nb, "EdgeColSumsInto")
	checkInto(dst, nb.N(), 1, "EdgeColSumsInto")
	clear(dst.Data)
	for e, v := range t.Data {
		dst.Data[nb.col[e]] += v
	}
}

// EdgeSoftmaxInto normalizes each row's edges with one softmaxRow over the
// row's contiguous edge range: the 1-hop-masked row softmax without the
// mask, whose −Inf entries came out as exact zeros. dst may alias t (the
// in-place attention form).
func EdgeSoftmaxInto(dst, t *Tensor, nb *Neighbours) {
	checkEdgeVec(t, nb, "EdgeSoftmaxInto")
	checkEdgeVec(dst, nb, "EdgeSoftmaxInto")
	for i := 0; i < nb.N(); i++ {
		lo, hi := nb.ptr[i], nb.ptr[i+1]
		softmaxRow(dst.Data[lo:hi], t.Data[lo:hi], nil, 0)
	}
}

// EdgeSoftmaxBackInto computes the softmax VJP per row of edges:
// dst[e] = y[e]·(g[e] − Σ g·y over the row), the row dot summed
// sequentially in ascending column order.
func EdgeSoftmaxBackInto(dst, g, y *Tensor, nb *Neighbours) {
	checkEdgeVec(y, nb, "EdgeSoftmaxBackInto")
	checkEdgeVec(g, nb, "EdgeSoftmaxBackInto")
	checkEdgeVec(dst, nb, "EdgeSoftmaxBackInto")
	for i := 0; i < nb.N(); i++ {
		lo, hi := nb.ptr[i], nb.ptr[i+1]
		grow, yrow := g.Data[lo:hi], y.Data[lo:hi]
		dotgy := 0.0
		for j := range grow {
			dotgy += grow[j] * yrow[j]
		}
		SoftmaxBackRow(dst.Data[lo:hi], grow, yrow, dotgy)
	}
}

// EdgeAggregateInto computes dst row i = Σ w[e]·x row j over row i's edges
// e = (i, j) in ascending column order, x an N×k tensor and w an edge vector
// — Â·X with w the adjacency values, attention·V with w the attention
// weights. dst must not alias x.
func EdgeAggregateInto(dst, w, x *Tensor, nb *Neighbours) {
	checkEdges(nb, x.R, "EdgeAggregateInto")
	checkEdgeVec(w, nb, "EdgeAggregateInto")
	checkInto(dst, x.R, x.C, "EdgeAggregateInto")
	k := x.C
	for i := 0; i < nb.N(); i++ {
		crow := dst.Data[i*k : (i+1)*k]
		clear(crow)
		for e := nb.ptr[i]; e < nb.ptr[i+1]; e++ {
			j := nb.col[e]
			axpy(w.Data[e], x.Data[j*k:(j+1)*k], crow)
		}
	}
}

// EdgeScatterInto computes dst row j = Σ w[e]·g row i over the edges
// e = (i, j) that end in j, visiting rows i in ascending order — the dX
// backward of EdgeAggregate (the transposed aggregation). dst must not
// alias g.
func EdgeScatterInto(dst, w, g *Tensor, nb *Neighbours) {
	checkEdges(nb, g.R, "EdgeScatterInto")
	checkEdgeVec(w, nb, "EdgeScatterInto")
	checkInto(dst, g.R, g.C, "EdgeScatterInto")
	k := g.C
	clear(dst.Data)
	for i := 0; i < nb.N(); i++ {
		grow := g.Data[i*k : (i+1)*k]
		for e := nb.ptr[i]; e < nb.ptr[i+1]; e++ {
			j := nb.col[e]
			axpy(w.Data[e], grow, dst.Data[j*k:(j+1)*k])
		}
	}
}

// EdgeDotInto computes the edge vector dst[e] = g row i · x row j for every
// edge e = (i, j) — the dW backward of EdgeAggregate, one dot per kept entry
// of the dense g·xᵀ.
func EdgeDotInto(dst, g, x *Tensor, nb *Neighbours) {
	if g.C != x.C {
		shapePanic("EdgeDot shape mismatch %dx%d vs %dx%d", g.R, g.C, x.R, x.C)
	}
	checkEdges(nb, g.R, "EdgeDotInto")
	checkEdges(nb, x.R, "EdgeDotInto")
	checkEdgeVec(dst, nb, "EdgeDotInto")
	k := g.C
	for i := 0; i < nb.N(); i++ {
		grow := g.Data[i*k : (i+1)*k]
		for e := nb.ptr[i]; e < nb.ptr[i+1]; e++ {
			j := nb.col[e]
			dst.Data[e] = dot(grow, x.Data[j*k:(j+1)*k])
		}
	}
}
