// Segmented panel kernels: the only way a stage graph executes. B graphs
// (B may be 1) run as one blocked operation over a padded, stacked tensor.
//
// Layout. A batch of B graphs with node counts Counts[g] ≤ Stride is stacked
// into one row-major (B·Stride)×C tensor: graph g owns the row panel
// [g·Stride, g·Stride+Counts[g]) and the remaining Stride−Counts[g] rows are
// padding. Every kernel below computes only the real rows of each panel and
// fully defines (clears) the pad rows of its destination, so padding never
// feeds a reduction and uninitialized arena buffers never leak.
//
// Score-space ("panel-width") tensors hold each graph's node×node attention
// scores: panel g's row i uses only the first Counts[g] columns of its
// Stride-wide row; columns [Counts[g], Stride) are kept zero.
//
// Bitwise contract. Every real row is produced by one inner row kernel
// (matmulRowKernel, matmulBTRowKernel, atPanelAccum, softmaxRow) over that
// graph's own operand range, in an order that depends on the graph alone. A
// graph's values and gradients are therefore bitwise identical in any batch,
// at any position, next to any neighbours — batching is amortization, never
// a numerical change.
package tensor

import "math"

// BatchLayout describes how B ragged graphs are stacked into one padded
// tensor: graph g's rows occupy [g·Stride, g·Stride+Counts[g]).
type BatchLayout struct {
	B      int   // number of graphs
	Stride int   // rows reserved per graph (max node count in the batch)
	Counts []int // real rows per graph; len == B, each in [1, Stride]
}

// Rows returns the stacked row count B·Stride.
func (l BatchLayout) Rows() int { return l.B * l.Stride }

// Padded reports whether any panel has pad rows.
func (l BatchLayout) Padded() bool {
	for _, c := range l.Counts {
		if c != l.Stride {
			return true
		}
	}
	return false
}

func checkSeg(t *Tensor, l BatchLayout, op string) {
	if t.R != l.Rows() {
		shapePanic("%s stacked tensor has %d rows, layout wants %d", op, t.R, l.Rows())
	}
}

// clearRows zeroes rows [lo, hi) of t.
func clearRows(t *Tensor, lo, hi int) {
	clear(t.Data[lo*t.C : hi*t.C])
}

// SegLinearInto computes dst = x·w + bias (bias a 1×n row) on the real rows
// of every panel and clears pad rows. w and bias are shared across panels.
// dst must not alias x, w, or bias.
func SegLinearInto(dst, x, w, bias *Tensor, l BatchLayout) {
	if x.C != w.R {
		shapePanic("SegLinear shape mismatch %dx%d · %dx%d", x.R, x.C, w.R, w.C)
	}
	checkInto(dst, x.R, w.C, "SegLinearInto")
	checkSeg(x, l, "SegLinearInto")
	if !l.Padded() {
		linearRowRange(dst, x, w, bias, 0, x.R)
		return
	}
	for g := 0; g < l.B; g++ {
		lo := g * l.Stride
		hi := lo + l.Counts[g]
		linearRowRange(dst, x, w, bias, lo, hi)
		clearRows(dst, hi, lo+l.Stride)
	}
}

// SegMatMulInto computes dst = x·b on the real rows of every panel with b
// shared across panels, clearing pad rows. dst must not alias x or b.
func SegMatMulInto(dst, x, b *Tensor, l BatchLayout) {
	if x.C != b.R {
		shapePanic("SegMatMul shape mismatch %dx%d · %dx%d", x.R, x.C, b.R, b.C)
	}
	checkInto(dst, x.R, b.C, "SegMatMulInto")
	checkSeg(x, l, "SegMatMulInto")
	if !l.Padded() {
		matmulRowRange(dst, x, b, 0, x.R)
		return
	}
	for g := 0; g < l.B; g++ {
		lo := g * l.Stride
		hi := lo + l.Counts[g]
		matmulRowRange(dst, x, b, lo, hi)
		clearRows(dst, hi, lo+l.Stride)
	}
}

// SegMatMulBTInto computes dst = g·bᵀ on the real rows of every panel with b
// shared across panels (the dX kernel of the segmented linear backward),
// clearing pad rows. dst must not alias g or b.
func SegMatMulBTInto(dst, g, b *Tensor, l BatchLayout) {
	if g.C != b.C {
		shapePanic("SegMatMulBT shape mismatch %dx%d · (%dx%d)ᵀ", g.R, g.C, b.R, b.C)
	}
	checkInto(dst, g.R, b.R, "SegMatMulBTInto")
	checkSeg(g, l, "SegMatMulBTInto")
	if !l.Padded() {
		matmulBTRowRange(dst, g, b, 0, g.R)
		return
	}
	for p := 0; p < l.B; p++ {
		lo := p * l.Stride
		hi := lo + l.Counts[p]
		matmulBTRowRange(dst, g, b, lo, hi)
		clearRows(dst, hi, lo+l.Stride)
	}
}

// MatMulATRangeInto computes dst = a[i0:i1]ᵀ · b[i0:i1] — the weight
// gradient of one panel's rows, independent of the rows outside the range.
// dst must not alias a or b.
func MatMulATRangeInto(dst, a, b *Tensor, i0, i1 int) {
	if a.R != b.R {
		shapePanic("MatMulATRange shape mismatch (%dx%d)ᵀ · %dx%d", a.R, a.C, b.R, b.C)
	}
	checkInto(dst, a.C, b.C, "MatMulATRangeInto")
	clear(dst.Data)
	atPanelAccum(dst.Data, 0, b.C,
		func(i int) []float64 { return a.Row(i0 + i) },
		func(i int) []float64 { return b.Row(i0 + i) },
		i1-i0, a.C)
}

// SumRowsRangeInto computes the 1×C column sums of rows [i0, i1), in
// ascending row order — the bias gradient of one panel.
func SumRowsRangeInto(dst, t *Tensor, i0, i1 int) {
	checkInto(dst, 1, t.C, "SumRowsRangeInto")
	clear(dst.Data)
	for i := i0; i < i1; i++ {
		row := t.Row(i)
		for j, v := range row {
			dst.Data[j] += v
		}
	}
}

// SegSumRowsInto pools each panel's real rows, in ascending row order, into
// one row of dst (B×C) — the global add pool.
func SegSumRowsInto(dst, x *Tensor, l BatchLayout) {
	checkInto(dst, l.B, x.C, "SegSumRowsInto")
	checkSeg(x, l, "SegSumRowsInto")
	clear(dst.Data)
	for g := 0; g < l.B; g++ {
		lo := g * l.Stride
		hi := lo + l.Counts[g]
		drow := dst.Row(g)
		for i := lo; i < hi; i++ {
			row := x.Row(i)
			for j, v := range row {
				drow[j] += v
			}
		}
	}
}

// atPanelAccum is the one Aᵀ·B kernel: dst rows base+p (p < np) accumulate
// Σ_i arow(i)[p] · brow(i) for i < ni. Input rows are consumed four, then
// two, then one at a time; the contributions to each dst element are added in
// ascending i order whichever grouping carries them (axpy2 is the exact
// element-wise order of two axpy calls), so the grouping is bitwise-invisible.
// The `av != 0` skip is kept per row: adding 0·b costs a full row pass, and a
// one-hot heavy feature matrix makes the skip the common case.
func atPanelAccum(dd []float64, base, n int, arow, brow func(i int) []float64, ni, np int) {
	i := 0
	if simdKernels {
		for ; i+4 <= ni; i += 4 {
			matmulATQuadAVX2(dd, base, n,
				arow(i)[:np], arow(i + 1)[:np], arow(i + 2)[:np], arow(i + 3)[:np],
				brow(i), brow(i+1), brow(i+2), brow(i+3))
		}
		if i+2 <= ni {
			matmulATPairAVX2(dd, base, n, arow(i)[:np], arow(i + 1)[:np], brow(i), brow(i+1))
			i += 2
		}
		if i < ni {
			matmulATRowAVX2(dd, base, n, arow(i)[:np], brow(i))
		}
		return
	}
	for ; i+2 <= ni; i += 2 {
		a0, a1 := arow(i), arow(i+1)
		b0, b1 := brow(i), brow(i+1)
		for p := 0; p < np; p++ {
			av0, av1 := a0[p], a1[p]
			o := (base + p) * n
			if av0 != 0 {
				if av1 != 0 {
					axpy2(av0, av1, b0, b1, dd[o:o+n])
				} else {
					axpy(av0, b0, dd[o:o+n])
				}
			} else if av1 != 0 {
				axpy(av1, b1, dd[o:o+n])
			}
		}
	}
	for ; i < ni; i++ {
		a0, b0 := arow(i), brow(i)
		for p := 0; p < np; p++ {
			if av := a0[p]; av != 0 {
				o := (base + p) * n
				axpy(av, b0, dd[o:o+n])
			}
		}
	}
}

// PanelMatMulBTInto computes the score-space product dst_g = a_g·b_gᵀ per
// panel: a and b are stacked (rows×k) tensors, dst is panel-width
// (rows×Stride) with row i of panel g holding the c = Counts[g] products
// against b's panel rows in columns [0, c). Pad columns and pad rows are
// cleared. dst must not alias a or b.
func PanelMatMulBTInto(dst, a, b *Tensor, l BatchLayout) {
	if a.C != b.C {
		shapePanic("PanelMatMulBT shape mismatch %dx%d · (%dx%d)ᵀ", a.R, a.C, b.R, b.C)
	}
	checkInto(dst, a.R, l.Stride, "PanelMatMulBTInto")
	checkSeg(a, l, "PanelMatMulBTInto")
	k := a.C
	s := l.Stride
	for g := 0; g < l.B; g++ {
		c := l.Counts[g]
		base := g * s
		for i := base; i < base+c; i++ {
			crow := dst.Data[i*s : (i+1)*s]
			matmulBTRowKernel(crow, a.Data[i*k:(i+1)*k], b.Data, base, c, k)
			clear(crow[c:])
		}
		clearRows(dst, base+c, base+s)
	}
}

// PanelMatMulInto computes dst_g = a_g·b_g per panel, where a is panel-width
// (each real row uses columns [0, c)) and b is a stacked (rows×k) tensor —
// the attention·V product and the dQ backward. Pad rows are cleared. dst
// must not alias a or b.
func PanelMatMulInto(dst, a, b *Tensor, l BatchLayout) {
	if a.C != l.Stride {
		shapePanic("PanelMatMul wants panel-width %d input, got %d", l.Stride, a.C)
	}
	checkInto(dst, a.R, b.C, "PanelMatMulInto")
	checkSeg(b, l, "PanelMatMulInto")
	k := b.C
	s := l.Stride
	for g := 0; g < l.B; g++ {
		c := l.Counts[g]
		base := g * s
		for i := base; i < base+c; i++ {
			crow := dst.Data[i*k : (i+1)*k]
			clear(crow)
			matmulRowKernel(crow, a.Data[i*s:i*s+c], b.Data, base, k)
		}
		clearRows(dst, base+c, base+s)
	}
}

// PanelMatMulATInto computes dst_g = a_gᵀ·b_g per panel, where a is
// panel-width and b is stacked (rows×k) — the dK/dV backward of the score
// products. Pad rows are cleared. dst must not alias a or b.
func PanelMatMulATInto(dst, a, b *Tensor, l BatchLayout) {
	if a.C != l.Stride {
		shapePanic("PanelMatMulAT wants panel-width %d input, got %d", l.Stride, a.C)
	}
	checkInto(dst, b.R, b.C, "PanelMatMulATInto")
	checkSeg(b, l, "PanelMatMulATInto")
	n := b.C
	s := l.Stride
	for g := 0; g < l.B; g++ {
		c := l.Counts[g]
		base := g * s
		clearRows(dst, base, base+s)
		atPanelAccum(dst.Data, base, n,
			func(i int) []float64 { return a.Data[(base+i)*s : (base+i)*s+c] },
			func(i int) []float64 { return b.Data[(base+i)*n : (base+i+1)*n] },
			c, c)
	}
}

// PanelSoftmaxInto computes row-wise softmax over each panel's logical width
// c with the graph's own additive mask (masks[g] is c×c; −Inf disables, nil
// masks none), one softmaxRow per real row. Pad columns and rows are cleared. dst may alias t (the in-place attention form).
func PanelSoftmaxInto(dst, t *Tensor, masks []*Tensor, l BatchLayout) {
	if t.C != l.Stride {
		shapePanic("PanelSoftmax wants panel-width %d input, got %d", l.Stride, t.C)
	}
	checkInto(dst, t.R, t.C, "PanelSoftmaxInto")
	checkSeg(t, l, "PanelSoftmaxInto")
	s := l.Stride
	for g := 0; g < l.B; g++ {
		c := l.Counts[g]
		base := g * s
		var mask *Tensor
		if masks != nil {
			mask = masks[g]
			if mask != nil && (mask.R != c || mask.C != c) {
				shapePanic("PanelSoftmax mask %dx%d, panel wants %dx%d", mask.R, mask.C, c, c)
			}
		}
		for i := 0; i < c; i++ {
			row := t.Data[(base+i)*s : (base+i)*s+c]
			orow := dst.Data[(base+i)*s : (base+i)*s+c]
			softmaxRow(orow, row, mask, i)
			clear(dst.Data[(base+i)*s+c : (base+i+1)*s])
		}
		clearRows(dst, base+c, base+s)
	}
}

// softmaxRow is the one softmax row body, shared by SoftmaxRowsInto, the
// panel kernel and the edge kernel. mask may be nil; mi indexes the mask row.
func softmaxRow(orow, row []float64, mask *Tensor, mi int) {
	// The max pass vectorizes bitwise-safely: the running max under strict >
	// is order-independent in value, NaN candidates never win under either
	// order, and the one ambiguity — a row whose max appears as both −0 and
	// +0 — is erased by the exp pass (v∓0 differs only at v=±0, and
	// exp(±0) is exactly 1 either way). The exp-and-sum pass stays scalar:
	// its sequential sum order is pinned.
	var maxv float64
	switch {
	case simdKernels && mask != nil:
		maxv = softmaxFwdAVX2(orow, row, mask.Row(mi))
	case simdKernels:
		maxv = softmaxFwdNMAVX2(orow, row)
	case mask != nil:
		maxv = math.Inf(-1)
		mrow := mask.Row(mi)
		for j, v := range row {
			v += mrow[j]
			orow[j] = v
			if v > maxv {
				maxv = v
			}
		}
	default:
		maxv = math.Inf(-1)
		for j, v := range row {
			orow[j] = v
			if v > maxv {
				maxv = v
			}
		}
	}
	if math.IsInf(maxv, -1) {
		clear(orow)
		return
	}
	sum := 0.0
	for j, v := range orow {
		e := math.Exp(v - maxv)
		orow[j] = e
		sum += e
	}
	inv := 1 / sum
	if simdKernels {
		scaleIntoAVX2(orow, orow, inv)
		return
	}
	for j := range orow {
		orow[j] *= inv
	}
}
