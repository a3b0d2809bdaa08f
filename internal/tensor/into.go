// Destination-passing kernels: every operation writes a caller-provided
// destination, so hot paths (above all the autodiff tape in internal/ag) draw
// buffers from an Arena instead of the heap. Each kernel fully defines dst —
// callers never need to pre-zero.
//
// One graph runs on one tape, and one tape on one goroutine, so every kernel
// the model path calls runs on the calling goroutine. The exceptions are
// MatMulInto and MatMulBTInto, the whole-tensor yardsticks bench/ times:
// above parallelMinFlops they fan out through parallel.ForBlocked. Their
// serial forms, MatMulSerialInto and MatMulBTSerialInto, run the same
// kernels over the same rows — productRows' four-row blocks, laneBT over a
// bᵀ packed once per call — so the two never differ by a bit.
//
// Every product has one semantics: each element of an x·W or an Aᵀ·B is
// summed from +0 in ascending order with every term added, zero
// coefficients included, whichever kernel runs it — the four-row AVX2
// blocks where the width is a multiple of 4 (blockKernels), the Go row loops
// elsewhere. So SIMD on equals SIMD off bit for bit for any operands, and a
// ±Inf in a right operand meets a zero coefficient as NaN, as in IEEE.
package tensor

import (
	"fmt"
	"math"

	"predtop/internal/parallel"
	"predtop/internal/xmath"
)

// checkInto validates a destination shape. The comparison is inlined and
// the failure path split out so the passing case never boxes its arguments
// (an assert helper taking ...any costs one allocation per call even when
// the condition holds).
func checkInto(dst *Tensor, r, c int, op string) {
	if dst.R != r || dst.C != c {
		shapePanic("%s dst %dx%d, want %dx%d", op, dst.R, dst.C, r, c)
	}
}

// shapePanic reports a shape mismatch; only ever called on a cold path.
func shapePanic(format string, args ...any) {
	panic("tensor: " + fmt.Sprintf(format, args...))
}

// parallelMinFlops gates the goroutine fan-out of MatMulInto/MatMulBTInto:
// below this many multiply-adds fork/join overhead dominates, so the loop
// runs serially on the calling goroutine. parallelRowBlock is the number of
// output rows per parallel task, a multiple of blockRows. Every output row is
// computed independently by the same kernels, so the split never changes a
// result bit.
const (
	parallelMinFlops = 1 << 17
	parallelRowBlock = 16
)

// MatMulInto computes dst = a·b for a (m×k) and b (k×n). dst must not alias
// a or b.
func MatMulInto(dst, a, b *Tensor) {
	if a.C != b.R {
		shapePanic("MatMul shape mismatch %dx%d · %dx%d", a.R, a.C, b.R, b.C)
	}
	checkInto(dst, a.R, b.C, "MatMulInto")
	m, k, n := a.R, a.C, b.C
	// The serial path calls the row worker directly: a closure shared with
	// the parallel branch would escape to the heap on every call, costing
	// one allocation per matmul even for tiny kernels.
	if m*k*n < parallelMinFlops {
		productRows(dst, a, b, nil, 0, m)
		return
	}
	parallel.ForBlocked(m, parallelRowBlock, func(lo, hi int) {
		productRows(dst, a, b, nil, lo, hi)
	})
}

// MatMulSerialInto computes dst = a·b on the calling goroutine. dst must not
// alias a or b.
func MatMulSerialInto(dst, a, b *Tensor) {
	if a.C != b.R {
		shapePanic("MatMul shape mismatch %dx%d · %dx%d", a.R, a.C, b.R, b.C)
	}
	checkInto(dst, a.R, b.C, "MatMulSerialInto")
	productRows(dst, a, b, nil, 0, a.R)
}

// LinearInto computes the fused dense layer dst = x·w + bias (bias a 1×n row
// broadcast over rows): each block of rows is summed, then the bias added to
// each sum. dst must not alias x, w, or bias.
func LinearInto(dst, x, w, bias *Tensor) {
	if x.C != w.R {
		shapePanic("Linear shape mismatch %dx%d · %dx%d", x.R, x.C, w.R, w.C)
	}
	checkInto(dst, x.R, w.C, "LinearInto")
	productRows(dst, x, w, bias, 0, x.R)
}

// productRows writes rows [lo, hi) of dst = x·w + bias (no bias when nil),
// each product summed from +0 in ascending p, every term added, before the
// bias is added. Where the block kernel takes w's width (blockKernels) the
// rows go four at a time through pvBlockAVX2, and the last block is moved
// back to end at hi: the kernel overwrites its rows, so those computed twice
// get the same sums and one bias add. A range of fewer than four rows, and
// every row of a width the kernel does not take, runs matmulRowKernel, which
// adds the same terms in the same order.
func productRows(dst, x, w, bias *Tensor, lo, hi int) {
	k, n := x.C, w.C
	if blockKernels(n) && hi-lo >= blockRows {
		for i := lo; i < hi; i += blockRows {
			i = min(i, hi-blockRows)
			pvBlockAVX2(dst.Data[i*n:], n, x.Data[i*k:], k, w.Data, n)
			if bias != nil {
				for r := i; r < i+blockRows; r++ {
					addRow(dst.Data[r*n:(r+1)*n], bias.Data)
				}
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		crow := dst.Data[i*n : (i+1)*n]
		clear(crow)
		matmulRowKernel(crow, x.Data[i*k:(i+1)*k], w.Data)
		if bias != nil {
			addRow(crow, bias.Data)
		}
	}
}

// matmulRowKernel accumulates one output row: crow[j] += Σ_p arow[p] ·
// bd[p*n + j] with n = len(crow), every term added in ascending p — zero
// coefficients too, so 0·Inf is NaN here as in IEEE. Each element is its own
// chain held in a register across p; four columns run side by side, and the
// last n%4 (all of a width-1 product) one at a time.
func matmulRowKernel(crow, arow, bd []float64) {
	n := len(crow)
	j := 0
	for ; j+4 <= n; j += 4 {
		c := crow[j : j+4 : j+4]
		s0, s1, s2, s3 := c[0], c[1], c[2], c[3]
		for p, a := range arow {
			o := p*n + j
			b := bd[o : o+4 : o+4]
			s0 += a * b[0]
			s1 += a * b[1]
			s2 += a * b[2]
			s3 += a * b[3]
		}
		c[0], c[1], c[2], c[3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		s := crow[j]
		for p, a := range arow {
			s += a * bd[p*n+j]
		}
		crow[j] = s
	}
}

// MatMulBTInto computes dst = a·bᵀ for a (m×k) and b (n×k): bᵀ packed once,
// then the rows fanned out as in MatMulInto. dst must not alias a or b.
func MatMulBTInto(dst, a, b *Tensor) {
	if a.C != b.C {
		shapePanic("MatMulBT shape mismatch %dx%d · (%dx%d)ᵀ", a.R, a.C, b.R, b.C)
	}
	checkInto(dst, a.R, b.R, "MatMulBTInto")
	bt := packBT(b, nil)
	if a.R*a.C*b.R < parallelMinFlops {
		laneBTRows(dst, a, bt, 0, a.R)
		return
	}
	parallel.ForBlocked(a.R, parallelRowBlock, func(lo, hi int) {
		laneBTRows(dst, a, bt, lo, hi)
	})
}

// MatMulBTSerialInto computes dst = a·bᵀ on the calling goroutine — a dense
// layer's input gradient g·Wᵀ. The packed bᵀ comes from scratch (nil: the
// heap). dst must not alias a or b.
func MatMulBTSerialInto(dst, a, b *Tensor, scratch *Arena) {
	if a.C != b.C {
		shapePanic("MatMulBT shape mismatch %dx%d · (%dx%d)ᵀ", a.R, a.C, b.R, b.C)
	}
	checkInto(dst, a.R, b.R, "MatMulBTSerialInto")
	laneBTRows(dst, a, packBT(b, scratch), 0, a.R)
}

// packBT returns bᵀ packed for the lane kernel (packT), drawn from scratch.
func packBT(b *Tensor, scratch *Arena) *Tensor {
	bt := scratch.GetUninit(b.C, ldT(b.R))
	packT(bt, b, 0)
	return bt
}

// laneBTRows fills rows [lo, hi) of dst with a's rows times the packed bt:
// dst[i][j] = dot(a row i, column j of bt), dot's four-accumulator pattern
// per output (laneBT with s = 1).
func laneBTRows(dst, a, bt *Tensor, lo, hi int) {
	for i := lo; i < hi; i++ {
		laneBT(dst.Row(i), a.Row(i), bt, 1)
	}
}

// MatMulATInto computes dst = aᵀ·b for a (m×k) and b (m×n): the weight
// gradient of a dense layer. dst must not alias a or b.
func MatMulATInto(dst, a, b *Tensor) {
	if a.R != b.R {
		shapePanic("MatMulAT shape mismatch (%dx%d)ᵀ · %dx%d", a.R, a.C, b.R, b.C)
	}
	checkInto(dst, a.C, b.C, "MatMulATInto")
	clear(dst.Data)
	matmulATAccum(dst.Data, a, b)
}

// matmulATAccum is the one Aᵀ·B kernel: dd's row p accumulates
// Σ_i a[i][p] · b row i in ascending i, every term added. Where the block
// kernel takes b's width (blockKernels) each full block of four input rows
// runs atBlockAVX2; the last a.R%4 rows, and every row of a width it does
// not take, run atAccumRow, which adds the same terms in the same order.
func matmulATAccum(dd []float64, a, b *Tensor) {
	i := 0
	if blockKernels(b.C) {
		for ; i+blockRows <= a.R; i += blockRows {
			atBlockAVX2(dd, b.C, a.Data[i*a.C:], a.C, b.Data[i*b.C:], b.C)
		}
	}
	for ; i < a.R; i++ {
		atAccumRow(dd, b.C, a.Row(i), b.Row(i))
	}
}

// atAccumRow adds av·b into dd's row p (rows w wide) for each coefficient
// av = a[p]: one input row of an Aᵀ·B, zero coefficients included. The loop
// is inline rather than an axpy call per coefficient: its rows are the
// narrow ones (a width-1 product's are one element) and the few tail rows.
func atAccumRow(dd []float64, w int, a, b []float64) {
	b = b[:w]
	for p, av := range a {
		row := dd[p*w : (p+1)*w]
		for j, bv := range b {
			row[j] += av * bv
		}
	}
}

// SumRowsInto computes the 1×C column sums of t from +0 in ascending row
// order — a dense layer's bias gradient and the global add pool. Each column
// is its own chain, so adding a row at a time keeps every sum's order.
func SumRowsInto(dst, t *Tensor) {
	checkInto(dst, 1, t.C, "SumRowsInto")
	clear(dst.Data)
	for i := 0; i < t.R; i++ {
		addRow(dst.Data, t.Row(i))
	}
}

// AddInto computes dst = a + b elementwise. dst may alias a and/or b.
func AddInto(dst, a, b *Tensor) {
	if !a.SameShape(b) {
		shapePanic("elementwise shape mismatch %dx%d vs %dx%d", a.R, a.C, b.R, b.C)
	}
	checkInto(dst, a.R, a.C, "AddInto")
	if simdKernels {
		addIntoAVX2(dst.Data, a.Data, b.Data)
		return
	}
	bd := b.Data
	for i, v := range a.Data {
		dst.Data[i] = v + bd[i]
	}
}

// SubInto computes dst = a − b elementwise. dst may alias a and/or b.
func SubInto(dst, a, b *Tensor) {
	if !a.SameShape(b) {
		shapePanic("elementwise shape mismatch %dx%d vs %dx%d", a.R, a.C, b.R, b.C)
	}
	checkInto(dst, a.R, a.C, "SubInto")
	bd := b.Data
	for i, v := range a.Data {
		dst.Data[i] = v - bd[i]
	}
}

// MulInto computes dst = a ⊙ b elementwise. dst may alias a and/or b.
func MulInto(dst, a, b *Tensor) {
	if !a.SameShape(b) {
		shapePanic("elementwise shape mismatch %dx%d vs %dx%d", a.R, a.C, b.R, b.C)
	}
	checkInto(dst, a.R, a.C, "MulInto")
	bd := b.Data
	for i, v := range a.Data {
		dst.Data[i] = v * bd[i]
	}
}

// ScaleInto computes dst = s·t. dst may alias t.
func ScaleInto(dst, t *Tensor, s float64) {
	checkInto(dst, t.R, t.C, "ScaleInto")
	if simdKernels {
		scaleIntoAVX2(dst.Data, t.Data, s)
		return
	}
	for i, v := range t.Data {
		dst.Data[i] = s * v
	}
}

// ReLUInto computes dst = max(t, 0) elementwise with math.Max semantics:
// −0 maps to +0 and NaN stays NaN (canonicalized, as math.Max does). dst may
// alias t.
func ReLUInto(dst, t *Tensor) {
	checkInto(dst, t.R, t.C, "ReLUInto")
	if simdKernels {
		reluFwdAVX2(dst.Data, t.Data)
		return
	}
	for i, a := range t.Data {
		dst.Data[i] = math.Max(a, 0)
	}
}

// ReLUBackInto computes d[i] = g[i] where x[i] > 0 and 0 elsewhere — the
// ReLU gradient gate. d must not alias g or x.
func ReLUBackInto(d, g, x *Tensor) {
	checkInto(d, g.R, g.C, "ReLUBackInto")
	if simdKernels {
		reluBackAVX2(d.Data, g.Data, x.Data)
		return
	}
	for i, gv := range g.Data {
		if x.Data[i] > 0 {
			d.Data[i] = gv
		} else {
			d.Data[i] = 0
		}
	}
}

// LeakyReLUInto computes dst[i] = t[i] for t[i] > 0 and α·t[i] otherwise.
// dst may alias t.
func LeakyReLUInto(dst, t *Tensor, alpha float64) {
	checkInto(dst, t.R, t.C, "LeakyReLUInto")
	if simdKernels {
		leakyFwdAVX2(dst.Data, t.Data, alpha)
		return
	}
	for i, a := range t.Data {
		if a > 0 {
			dst.Data[i] = a
		} else {
			dst.Data[i] = alpha * a
		}
	}
}

// LeakyReLUBackInto computes d[i] = g[i] where x[i] > 0 and α·g[i]
// elsewhere. d must not alias g or x.
func LeakyReLUBackInto(d, g, x *Tensor, alpha float64) {
	checkInto(d, g.R, g.C, "LeakyReLUBackInto")
	if simdKernels {
		leakyBackAVX2(d.Data, g.Data, x.Data, alpha)
		return
	}
	for i, gv := range g.Data {
		if x.Data[i] > 0 {
			d.Data[i] = gv
		} else {
			d.Data[i] = alpha * gv
		}
	}
}

// SoftmaxBackRow computes drow[j] = yrow[j] · (grow[j] − dotgy), the
// elementwise half of the softmax VJP; the caller computes dotgy with the
// pinned sequential sum.
func SoftmaxBackRow(drow, grow, yrow []float64, dotgy float64) {
	if simdKernels {
		softmaxBackRowAVX2(drow, grow, yrow, dotgy)
		return
	}
	for j := range grow {
		drow[j] = yrow[j] * (grow[j] - dotgy)
	}
}

// SoftmaxRowsInto computes row-wise softmax of t into dst; mask (may be
// nil) is an additive logit mask with −Inf disabling positions, and rows
// whose every position is masked yield all-zero output rather than NaN.
// dst may alias t. Mask rows are sliced once per row, keeping the inner loop
// free of index arithmetic.
func SoftmaxRowsInto(dst, t, mask *Tensor) {
	if mask != nil {
		if !t.SameShape(mask) {
			shapePanic("SoftmaxRows mask shape mismatch")
		}
	}
	checkInto(dst, t.R, t.C, "SoftmaxRowsInto")
	for i := 0; i < t.R; i++ {
		softmaxRow(dst.Row(i), t.Row(i), mask, i)
	}
}

// softmaxRow is the one softmax row body, shared by SoftmaxRowsInto, the
// edge kernel and, phase by phase, the attention kernel. mask may be nil; mi
// indexes the mask row.
func softmaxRow(orow, row []float64, mask *Tensor, mi int) {
	if !softmaxExp(orow, row, mask, mi) {
		return
	}
	sum := 0.0
	for _, e := range orow {
		sum += e
	}
	softmaxNorm(orow, sum)
}

// softmaxExp runs softmaxRow's first two passes: orow[j] = exp(row[j] +
// mask[mi][j] − max). A row whose every position is masked is cleared and
// reports false; the caller then skips the sum and the normalization.
func softmaxExp(orow, row []float64, mask *Tensor, mi int) bool {
	// The max pass vectorizes bitwise-safely: the running max under strict >
	// is order-independent in value, NaN candidates never win under either
	// order, and the one ambiguity — a row whose max appears as both −0 and
	// +0 — is erased by the exp pass (v∓0 differs only at v=±0, and
	// exp(±0) is exactly 1 either way). The exp pass vectorizes as
	// xmath.Exp's fused sequence (expSubAVX2) over the leading blocks it can
	// take; xmath.Exp finishes the rest. The caller's sum stays scalar: its
	// sequential order is pinned.
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
		return false
	}
	done := 0
	if simdKernels {
		done = expSubAVX2(orow, orow, maxv)
	}
	for j := done; j < len(orow); j++ {
		orow[j] = xmath.Exp(orow[j] - maxv)
	}
	return true
}

// softmaxNorm runs softmaxRow's last pass, orow[j] ·= 1/sum, with sum the
// sequential sum of orow.
func softmaxNorm(orow []float64, sum float64) {
	inv := 1 / sum
	if simdKernels {
		scaleIntoAVX2(orow, orow, inv)
		return
	}
	for j := range orow {
		orow[j] *= inv
	}
}

// ConcatColsInto concatenates tensors with equal row counts along columns
// into dst. dst must not alias any input.
func ConcatColsInto(dst *Tensor, ts ...*Tensor) {
	if len(ts) == 0 {
		checkInto(dst, 0, 0, "ConcatColsInto")
		return
	}
	r := ts[0].R
	c := 0
	for _, t := range ts {
		if t.R != r {
			shapePanic("ConcatCols row mismatch %d vs %d", t.R, r)
		}
		c += t.C
	}
	checkInto(dst, r, c, "ConcatColsInto")
	for i := 0; i < r; i++ {
		orow := dst.Row(i)
		off := 0
		for _, t := range ts {
			copy(orow[off:off+t.C], t.Row(i))
			off += t.C
		}
	}
}

// SliceColsInto copies columns [lo, hi) of t into dst.
func SliceColsInto(dst, t *Tensor, lo, hi int) {
	if lo < 0 || hi < lo || hi > t.C {
		shapePanic("SliceCols bad range [%d,%d) of %d", lo, hi, t.C)
	}
	checkInto(dst, t.R, hi-lo, "SliceColsInto")
	for i := 0; i < t.R; i++ {
		copy(dst.Row(i), t.Row(i)[lo:hi])
	}
}
