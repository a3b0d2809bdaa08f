package tensor

// Allocating conveniences for the tests in this package. The production API
// is destination-passing only; each helper below allocates a result and
// calls the surviving kernel it is named after.

// single is the layout of one unpadded n-row panel — a graph alone, B=1.
func single(n int) BatchLayout { return BatchLayout{B: 1, Stride: n, Counts: []int{n}} }

func matMul(a, b *Tensor) *Tensor {
	out := New(a.R, b.C)
	MatMulInto(out, a, b)
	return out
}

func matMulBT(a, b *Tensor) *Tensor {
	out := New(a.R, b.R)
	MatMulBTInto(out, a, b)
	return out
}

// matMulAT is aᵀ·b through the weight-gradient kernel over the full row range.
func matMulAT(a, b *Tensor) *Tensor {
	out := New(a.C, b.C)
	MatMulATRangeInto(out, a, b, 0, a.R)
	return out
}

func add(a, b *Tensor) *Tensor {
	out := New(a.R, a.C)
	AddInto(out, a, b)
	return out
}

func sub(a, b *Tensor) *Tensor {
	out := New(a.R, a.C)
	SubInto(out, a, b)
	return out
}

func mul(a, b *Tensor) *Tensor {
	out := New(a.R, a.C)
	MulInto(out, a, b)
	return out
}

func scale(t *Tensor, s float64) *Tensor {
	out := New(t.R, t.C)
	ScaleInto(out, t, s)
	return out
}

// sumRows is the 1×C vector of column sums over every row.
func sumRows(t *Tensor) *Tensor {
	out := New(1, t.C)
	SumRowsRangeInto(out, t, 0, t.R)
	return out
}

// complete is the one-graph batch whose neighbour list is the complete graph
// on n nodes: every row lists every node, so an edge vector is an n×n matrix
// in row-major order and the edge kernels compute their dense namesakes.
func complete(n int) []*Neighbours {
	preds := make([][]int, n)
	for v := range preds {
		for u := 0; u < v; u++ {
			preds[v] = append(preds[v], u)
		}
	}
	return []*Neighbours{NewNeighbours(preds)}
}

// edgeVec views a square tensor as the edge vector of complete(t.R).
func edgeVec(t *Tensor) *Tensor { return &Tensor{R: t.R * t.C, C: 1, Data: t.Data} }

// sumCols is the n×1 vector of row sums of a square tensor, through the edge
// kernel over the complete graph.
func sumCols(t *Tensor) *Tensor {
	out := New(t.R, 1)
	EdgeRowSumsInto(out, edgeVec(t), complete(t.R), single(t.R))
	return out
}

// addOuter is out[i][j] = a[i] + b[j] for equal-length column vectors,
// through the edge kernel over the complete graph.
func addOuter(a, b *Tensor) *Tensor {
	out := New(a.R, a.R)
	EdgeAddOuterInto(edgeVec(out), a, b, complete(a.R), single(a.R))
	return out
}

func softmaxRows(t, mask *Tensor) *Tensor {
	out := New(t.R, t.C)
	SoftmaxRowsInto(out, t, mask)
	return out
}

func concatCols(ts ...*Tensor) *Tensor {
	c := 0
	for _, t := range ts {
		c += t.C
	}
	out := New(ts[0].R, c)
	ConcatColsInto(out, ts...)
	return out
}

func sliceCols(t *Tensor, lo, hi int) *Tensor {
	out := New(t.R, hi-lo)
	SliceColsInto(out, t, lo, hi)
	return out
}

// zipWith is the closure-based elementwise reference the specialized loops
// are compared against.
func zipWith(a, b *Tensor, f func(x, y float64) float64) *Tensor {
	out := New(a.R, a.C)
	for i := range a.Data {
		out.Data[i] = f(a.Data[i], b.Data[i])
	}
	return out
}

// FromRows builds a tensor from a slice of equal-length rows.
func FromRows(rows [][]float64) *Tensor {
	if len(rows) == 0 {
		return New(0, 0)
	}
	t := New(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != t.C {
			panic("tensor: FromRows ragged input")
		}
		copy(t.Row(i), row)
	}
	return t
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Tensor {
	t := New(n, n)
	for i := 0; i < n; i++ {
		t.Data[i*n+i] = 1
	}
	return t
}
