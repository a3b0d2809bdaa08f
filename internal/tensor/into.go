// Destination-passing kernels: every operation writes a caller-provided
// destination, so hot paths (above all the autodiff tape in internal/ag) draw
// buffers from an Arena instead of the heap. Each kernel fully defines dst —
// callers never need to pre-zero. The row workers here (matmulRowRange,
// matmulBTRowRange, linearRowRange) are shared with the
// segmented panel kernels in batch.go, which is what makes a graph's result
// independent of the batch it rides in.
package tensor

import (
	"fmt"
	"math"

	"predtop/internal/parallel"
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
// by the same row kernel, so the split never changes a result bit. The model
// path never reaches either kernel (panels run the row workers directly);
// they and SoftmaxRowsInto are the whole-tensor yardsticks bench/ times.
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
// so the fusion is bitwise-invisible. Shared by the plain matmul, the fused
// linear layer, and the panel kernels.
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
// per-column dot calls. Shared with the batched score-panel kernels.
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

// linearRowRange computes rows [lo, hi) of the fused dense layer
// dst = x·w + bias (bias a 1×n row broadcast over rows): matmul and bias add
// in one pass over each output row.
func linearRowRange(dst, x, w, bias *Tensor, lo, hi int) {
	n := w.C
	k := x.C
	brow := bias.Data
	for i := lo; i < hi; i++ {
		arow := x.Data[i*k : (i+1)*k]
		crow := dst.Data[i*n : (i+1)*n]
		clear(crow)
		matmulRowKernel(crow, arow, w.Data, 0, n)
		for j := range crow {
			crow[j] += brow[j]
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
// dst may alias t (the in-place form used by attention). Mask rows are
// sliced once per row, keeping the inner loop free of index arithmetic.
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
