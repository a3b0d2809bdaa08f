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

// sumCols is the n×1 vector of row sums of a square tensor, through the
// panel kernel at B=1.
func sumCols(t *Tensor) *Tensor {
	out := New(t.R, 1)
	PanelSumColsInto(out, t, single(t.R))
	return out
}

// addOuter is out[i][j] = a[i] + b[j] for equal-length column vectors,
// through the panel kernel at B=1.
func addOuter(a, b *Tensor) *Tensor {
	out := New(a.R, a.R)
	PanelAddOuterInto(out, a, b, single(a.R))
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
