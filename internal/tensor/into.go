// Destination-passing kernels: every operation writes a caller-provided
// destination, so hot paths (above all the autodiff tape in internal/ag) draw
// buffers from an Arena instead of the heap. Each kernel fully defines dst —
// callers never need to pre-zero.
//
// One graph runs on one tape, and one tape on one goroutine, so every kernel
// the model path calls runs on the calling goroutine. The exceptions are
// MatMulInto and MatMulBTInto, the whole-tensor yardsticks bench/ times:
// above parallelMinFlops they fan out through parallel.ForBlocked. Their
// serial forms, MatMulSerialInto and MatMulBTSerialInto, share the same row
// workers, so the two never differ by a bit.
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
// output rows per parallel task. Every output row is computed independently
// by the same row kernel, so the split never changes a result bit.
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
		matmulRowRange(dst, a, b, 0, m)
		return
	}
	parallel.ForBlocked(m, parallelRowBlock, func(lo, hi int) {
		matmulRowRange(dst, a, b, lo, hi)
	})
}

// MatMulSerialInto computes dst = a·b on the calling goroutine. dst must not
// alias a or b.
func MatMulSerialInto(dst, a, b *Tensor) {
	if a.C != b.R {
		shapePanic("MatMul shape mismatch %dx%d · %dx%d", a.R, a.C, b.R, b.C)
	}
	checkInto(dst, a.R, b.C, "MatMulSerialInto")
	matmulRowRange(dst, a, b, 0, a.R)
}

func matmulRowRange(dst, a, b *Tensor, lo, hi int) {
	k, n := a.C, b.C
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := dst.Data[i*n : (i+1)*n]
		clear(crow)
		matmulRowKernel(crow, arow, b.Data, 0, n)
	}
}

// matmulRowKernel accumulates one output row: crow += Σ_p arow[p] · brow_p,
// where brow_p is bd[(b0+p)*n : (b0+p+1)*n]. Operands are grouped four at a
// time through axpy4, which adds the four products per element in ascending
// p order — the same element-wise addition order as sequential axpy calls —
// so the fusion is bitwise-invisible. Shared by the plain matmul and the
// fused linear layer.
func matmulRowKernel(crow, arow []float64, bd []float64, b0, n int) {
	if simdKernels {
		matmulRowKernelAVX2(crow, arow, bd, b0, n)
		return
	}
	k := len(arow)
	p := 0
	for ; p+4 <= k; p += 4 {
		// Skip quads whose four coefficients are all (±)0: every product is
		// a signed zero and c += ±0 leaves c bitwise unchanged for any c
		// (+0 + −0 is +0, −0 + −0 is −0 — the accumulator keeps its own
		// sign either way), so with finite operands the skip is invisible.
		// One-hot-heavy embedding features make this the common case. The
		// AVX2 kernel applies the identical test.
		if arow[p] == 0 && arow[p+1] == 0 && arow[p+2] == 0 && arow[p+3] == 0 {
			continue
		}
		o := (b0 + p) * n
		axpy4(arow[p], arow[p+1], arow[p+2], arow[p+3],
			bd[o:o+n], bd[o+n:o+2*n], bd[o+2*n:o+3*n], bd[o+3*n:o+4*n], crow)
	}
	for ; p < k; p++ {
		if arow[p] == 0 {
			continue
		}
		o := (b0 + p) * n
		axpy(arow[p], bd[o:o+n], crow)
	}
}

// MatMulBTInto computes dst = a·bᵀ for a (m×k) and b (n×k). dst must not
// alias a or b.
func MatMulBTInto(dst, a, b *Tensor) {
	if a.C != b.C {
		shapePanic("MatMulBT shape mismatch %dx%d · (%dx%d)ᵀ", a.R, a.C, b.R, b.C)
	}
	checkInto(dst, a.R, b.R, "MatMulBTInto")
	if a.R*a.C*b.R < parallelMinFlops {
		matmulBTRowRange(dst, a, b, 0, a.R)
		return
	}
	parallel.ForBlocked(a.R, parallelRowBlock, func(lo, hi int) {
		matmulBTRowRange(dst, a, b, lo, hi)
	})
}

// MatMulBTSerialInto computes dst = a·bᵀ on the calling goroutine. dst must
// not alias a or b.
func MatMulBTSerialInto(dst, a, b *Tensor) {
	if a.C != b.C {
		shapePanic("MatMulBT shape mismatch %dx%d · (%dx%d)ᵀ", a.R, a.C, b.R, b.C)
	}
	checkInto(dst, a.R, b.R, "MatMulBTSerialInto")
	matmulBTRowRange(dst, a, b, 0, a.R)
}

func matmulBTRowRange(dst, a, b *Tensor, lo, hi int) {
	k := a.C
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := dst.Data[i*b.R : (i+1)*b.R]
		matmulBTRowKernel(crow, arow, b.Data, 0, b.R, k)
	}
}

// matmulBTRowKernel fills one output row of a·bᵀ: crow[j] = arow · brow_j
// for j in [0, m), where brow_j = bd[(b0+j)*k : (b0+j+1)*k]. Output columns
// are paired through dot2 so arow is streamed once per two products; each
// dot keeps dot's exact accumulator pattern, so results are bitwise equal to
// per-column dot calls.
func matmulBTRowKernel(crow, arow []float64, bd []float64, b0, m, k int) {
	if simdKernels {
		matmulBTRowKernelAVX2(crow, arow, bd, b0, m, k)
		return
	}
	j := 0
	for ; j+2 <= m; j += 2 {
		o := (b0 + j) * k
		crow[j], crow[j+1] = dot2(arow, bd[o:o+k], bd[o+k:o+2*k])
	}
	if j < m {
		o := (b0 + j) * k
		crow[j] = dot(arow, bd[o:o+k])
	}
}

// LinearInto computes the fused dense layer dst = x·w + bias (bias a 1×n row
// broadcast over rows): matmul and bias add in one pass over each output
// row. dst must not alias x, w, or bias.
func LinearInto(dst, x, w, bias *Tensor) {
	if x.C != w.R {
		shapePanic("Linear shape mismatch %dx%d · %dx%d", x.R, x.C, w.R, w.C)
	}
	checkInto(dst, x.R, w.C, "LinearInto")
	n := w.C
	k := x.C
	brow := bias.Data
	for i := 0; i < x.R; i++ {
		arow := x.Data[i*k : (i+1)*k]
		crow := dst.Data[i*n : (i+1)*n]
		clear(crow)
		matmulRowKernel(crow, arow, w.Data, 0, n)
		for j := range crow {
			crow[j] += brow[j]
		}
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
// Σ_i a[i][p] · b row i, four input rows at a time through atAccumBlock.
func matmulATAccum(dd []float64, a, b *Tensor) {
	var as, bs [blockRows][]float64
	for i0 := 0; i0 < a.R; i0 += blockRows {
		rows := min(blockRows, a.R-i0)
		for r := range rows {
			as[r], bs[r] = a.Row(i0+r), b.Row(i0+r)
		}
		atAccumBlock(dd, b.C, rows, &as, &bs)
	}
}

// atAccumBlock adds Σ_r a[r][p]·b[r] into dd's row p (rows w wide) for the
// block's first rows input rows. Rows are consumed four, then two, then one
// at a time; the contributions to each dd element are added in ascending r
// whichever grouping carries them (axpy2 is the exact element-wise order of
// two axpy calls), so the grouping is bitwise-invisible. The `av != 0` skip
// is kept per row: adding 0·b costs a full row pass, and a one-hot heavy
// feature matrix makes the skip the common case.
func atAccumBlock(dd []float64, w, rows int, a, b *[blockRows][]float64) {
	r := 0
	if simdKernels {
		if rows == 4 {
			matmulATQuadAVX2(dd, 0, w, a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
			return
		}
		if rows >= 2 {
			matmulATPairAVX2(dd, 0, w, a[0], a[1], b[0], b[1])
			r = 2
		}
		if r < rows {
			matmulATRowAVX2(dd, 0, w, a[r], b[r])
		}
		return
	}
	for ; r+2 <= rows; r += 2 {
		a0, a1, b0, b1 := a[r], a[r+1], b[r], b[r+1]
		for p, av0 := range a0 {
			av1 := a1[p]
			o := p * w
			if av0 != 0 {
				if av1 != 0 {
					axpy2(av0, av1, b0, b1, dd[o:o+w])
				} else {
					axpy(av0, b0, dd[o:o+w])
				}
			} else if av1 != 0 {
				axpy(av1, b1, dd[o:o+w])
			}
		}
	}
	if r < rows {
		for p, av := range a[r] {
			if av != 0 {
				axpy(av, b[r], dd[p*w:(p+1)*w])
			}
		}
	}
}

// SumRowsInto computes the 1×C column sums of t in ascending row order — a
// dense layer's bias gradient and the global add pool.
func SumRowsInto(dst, t *Tensor) {
	checkInto(dst, 1, t.C, "SumRowsInto")
	clear(dst.Data)
	for i := 0; i < t.R; i++ {
		row := t.Row(i)
		for j, v := range row {
			dst.Data[j] += v
		}
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
