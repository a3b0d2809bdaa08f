// Attention kernels: multi-head scaled dot-product attention over one
// graph's N-row node tensors, as one forward and one backward.
//
// Layout. Q, K, V and the output are N×dim with dim = heads·dk; head h owns
// columns [h·dk, (h+1)·dk) of each, so heads are column views, never copies
// of whole operands. Per head the kernels pack what a product streams — Kᵀ
// and V forward, Vᵀ and K backward, O(N·dk) each — and keep only the
// attention probabilities P, one N×N block per head, for the backward. Both
// passes run in blocks of four rows: scores through the lane-per-column
// kernel (laneBTAVX2), the four softmax sums side by side, then the block's
// P·V, dS·K, dK and dV products with its outputs or right-hand rows held in
// registers (pvBlockAVX2, atBlockAVX2).
//
// Bitwise contract. Every output element runs the IEEE operations of the
// composed form it replaced, in the same order: S = Q_h·K_hᵀ with dot's
// four-accumulator pattern per score, scale·S, softmaxRow's per-row order,
// P·V and dS·K as productRows' sums from +0 in ascending p, dotgy as a
// sequential sum, dS = scale·(P ⊙ (dA − dotgy)), and dK, dV as
// matmulATAccum's sums in ascending row order. Every product adds every
// term, the four-row kernels and the row loops alike, so an exact zero
// probability times a ±Inf in V is NaN on both paths. dQ, dK and dV start at
// +0 and so are never −0, which makes writing each head's block straight
// into its columns equal to summing zero-padded per-head gradients.
package tensor

import "math"

// blockRows is the row block of both attention passes and of the dense
// products (productRows, matmulATAccum): the attention backward's scratch is
// blockRows rows of N, and each four-row kernel call takes one block.
const blockRows = 4

// checkAttention validates the operands and returns N and the head width.
func checkAttention(q, k, v, mask *Tensor, heads int) (n, dk int) {
	n, dim := q.R, q.C
	if heads <= 0 || dim%heads != 0 {
		shapePanic("Attention: dim %d not divisible by %d heads", dim, heads)
	}
	if !q.SameShape(k) || !q.SameShape(v) {
		shapePanic("Attention shape mismatch Q %dx%d, K %dx%d, V %dx%d", q.R, q.C, k.R, k.C, v.R, v.C)
	}
	if mask != nil && (mask.R != n || mask.C != n) {
		shapePanic("Attention mask %dx%d, want %dx%d", mask.R, mask.C, n, n)
	}
	return n, dim / heads
}

// attnScale is the score scale 1/√dk.
func attnScale(dk int) float64 { return 1 / math.Sqrt(float64(dk)) }

// packT writes columns [lo, lo+dst.R) of t transposed into dst, whose rows
// are t.R wide rounded up to a multiple of 4 (ldT) and zero past t.R, so the
// lane kernel takes the last columns as one more four-wide group.
func packT(dst, t *Tensor, lo int) {
	n := t.R
	for c := 0; c < dst.R; c++ {
		clear(dst.Row(c)[n:])
	}
	for i := 0; i < n; i++ {
		row := t.Data[i*t.C+lo : i*t.C+lo+dst.R]
		for c, x := range row {
			dst.Data[c*dst.C+i] = x
		}
	}
}

// ldT is the row width of packT's destination for n columns.
func ldT(n int) int { return (n + 3) &^ 3 }

// packCols writes columns [lo, lo+dst.C) of t into dst (t.R×dst.C).
func packCols(dst, t *Tensor, lo int) {
	for i := 0; i < t.R; i++ {
		copy(dst.Row(i), t.Data[i*t.C+lo:i*t.C+lo+dst.C])
	}
}

// unpackCols writes src (t.R×src.C) into columns [lo, lo+src.C) of t.
func unpackCols(t, src *Tensor, lo int) {
	for i := 0; i < t.R; i++ {
		copy(t.Data[i*t.C+lo:i*t.C+lo+src.C], src.Row(i))
	}
}

// AttentionInto computes multi-head attention: head h's columns of dst are
// softmax(scale·Q_h·K_hᵀ + mask)·V_h with scale = 1/√dk, and p's rows
// [h·N, (h+1)·N) receive that head's probabilities, which AttentionBackInto
// reads. mask is the additive N×N logit mask (−Inf disables; nil masks
// nothing); a row with every position masked gets all-zero probabilities.
// Packs come from scratch (nil: the heap). dst and p must not alias an
// operand.
func AttentionInto(dst, p, q, k, v, mask *Tensor, heads int, scratch *Arena) {
	n, dk := checkAttention(q, k, v, mask, heads)
	checkInto(dst, n, q.C, "AttentionInto")
	checkInto(p, heads*n, n, "AttentionInto")
	scale := attnScale(dk)
	kt := scratch.GetUninit(dk, ldT(n))
	vh := scratch.GetUninit(n, dk)
	blockPV := blockKernels(dk)
	for h := 0; h < heads; h++ {
		lo := h * dk
		packT(kt, k, lo)
		packCols(vh, v, lo)
		ph := p.Data[h*n*n : (h+1)*n*n]
		for i0 := 0; i0 < n; i0 += blockRows {
			i1 := min(i0+blockRows, n)
			var prows, qrows [blockRows][]float64
			for i := i0; i < i1; i++ {
				prows[i-i0] = ph[i*n : (i+1)*n]
				qrows[i-i0] = q.Data[i*q.C+lo : i*q.C+lo+dk]
			}
			laneBTBlock(&prows, &qrows, i1-i0, kt, scale)
			softmaxBlock(&prows, i1-i0, mask, i0)
			if blockPV && i1-i0 == blockRows {
				pvBlockAVX2(dst.Data[i0*dst.C+lo:], dst.C, ph[i0*n:], n, vh.Data, dk)
				continue
			}
			for i := i0; i < i1; i++ {
				crow := dst.Data[i*dst.C+lo : i*dst.C+lo+dk]
				clear(crow)
				matmulRowKernel(crow, ph[i*n:(i+1)*n], vh.Data)
			}
		}
	}
}

// AttentionBackInto computes the gradients of AttentionInto given the
// output gradient g and the probabilities p it saved: dq, dk and dv (each
// N×dim, fully defined; nil when not wanted). Scratch — per-head packs and a
// block of blockRows rows of N — comes from scratch (nil: the heap). No
// destination may alias an operand.
func AttentionBackInto(dq, dk, dv, g, p, q, k, v *Tensor, heads int, scratch *Arena) {
	n, w := checkAttention(q, k, v, nil, heads)
	checkInto(g, n, q.C, "AttentionBackInto")
	checkInto(p, heads*n, n, "AttentionBackInto")
	for _, d := range []*Tensor{dq, dk, dv} {
		if d != nil {
			checkInto(d, n, q.C, "AttentionBackInto")
		}
	}
	scale := attnScale(w)
	needS := dq != nil || dk != nil
	vt := scratch.GetUninit(w, ldT(n))
	kh := scratch.GetUninit(n, w)
	ds := scratch.GetUninit(blockRows, n)
	block := blockKernels(w)
	var dkh, dvh *Tensor
	if dk != nil {
		dkh = scratch.GetUninit(n, w)
	}
	if dv != nil {
		dvh = scratch.GetUninit(n, w)
	}
	// Row r of block i0 as a length-w column view of t.
	view := func(t *Tensor, i0, r, lo int) []float64 {
		if i0+r >= n {
			return nil
		}
		o := (i0+r)*t.C + lo
		return t.Data[o : o+w]
	}
	for h := 0; h < heads; h++ {
		lo := h * w
		ph := p.Data[h*n*n : (h+1)*n*n]
		if needS {
			packT(vt, v, lo)
			packCols(kh, k, lo)
		}
		if dkh != nil {
			clear(dkh.Data)
		}
		if dvh != nil {
			clear(dvh.Data)
		}
		for i0 := 0; i0 < n; i0 += blockRows {
			i1 := min(i0+blockRows, n)
			full := block && i1-i0 == blockRows
			var prows, srows, qrows, grows [blockRows][]float64
			for r := range blockRows {
				qrows[r], grows[r] = view(q, i0, r, lo), view(g, i0, r, lo)
				if i0+r < n {
					prows[r] = ph[(i0+r)*n : (i0+r+1)*n]
					srows[r] = ds.Data[r*n : (r+1)*n]
				}
			}
			switch {
			case dvh == nil:
			case full:
				atBlockAVX2(dvh.Data, w, ph[i0*n:], n, g.Data[i0*g.C+lo:], g.C)
			default:
				for r := 0; r < i1-i0; r++ {
					atAccumRow(dvh.Data, w, prows[r], grows[r])
				}
			}
			if !needS {
				continue
			}
			laneBTBlock(&srows, &grows, i1-i0, vt, 1) // dA = g·V_hᵀ
			dotgy := seqDots(&srows, &prows, i1-i0)
			for r := 0; r < i1-i0; r++ {
				SoftmaxBackRow(srows[r], srows[r], prows[r], dotgy[r])
				scaleRow(srows[r], scale)
			}
			switch {
			case dq == nil:
			case full:
				pvBlockAVX2(dq.Data[i0*dq.C+lo:], dq.C, ds.Data, n, kh.Data, w)
			default:
				for r := 0; r < i1-i0; r++ {
					crow := view(dq, i0, r, lo)
					clear(crow)
					matmulRowKernel(crow, srows[r], kh.Data)
				}
			}
			switch {
			case dkh == nil:
			case full:
				atBlockAVX2(dkh.Data, w, ds.Data, n, q.Data[i0*q.C+lo:], q.C)
			default:
				for r := 0; r < i1-i0; r++ {
					atAccumRow(dkh.Data, w, srows[r], qrows[r])
				}
			}
		}
		if dkh != nil {
			unpackCols(dk, dkh, lo)
		}
		if dvh != nil {
			unpackCols(dv, dvh, lo)
		}
	}
}

// blockKernels reports whether the four-row AVX2 kernels (pvBlockAVX2,
// atBlockAVX2) can take products w columns wide: they run whole ymm
// registers of columns. The shape is the only gate; no operand is scanned.
func blockKernels(w int) bool { return simdKernels && w%4 == 0 }

// scaleRow computes row[j] = s·row[j], ScaleInto's operation.
func scaleRow(row []float64, s float64) {
	if simdKernels {
		scaleIntoAVX2(row, row, s)
		return
	}
	for j, v := range row {
		row[j] = s * v
	}
}

// softmaxBlock runs softmaxRow over the block's first rows rows, mask rows
// from mi: the max and exp passes row by row, then the rows' sequential sums
// side by side (seqSums), then the normalization.
func softmaxBlock(rows *[blockRows][]float64, n int, mask *Tensor, mi int) {
	var live [blockRows]bool
	for r := 0; r < n; r++ {
		live[r] = softmaxExp(rows[r], rows[r], mask, mi+r)
	}
	sums := seqSums(rows, n)
	for r := 0; r < n; r++ {
		if live[r] {
			softmaxNorm(rows[r], sums[r])
		}
	}
}

// seqSums returns Σ_j a[r][j] for each of the block's first n rows, summed
// sequentially from +0 in ascending j. The rows' chains run side by side, so
// four adds are in flight instead of one; each row's own order is unchanged.
func seqSums(a *[blockRows][]float64, n int) (s [blockRows]float64) {
	if n < blockRows {
		for r := 0; r < n; r++ {
			for _, x := range a[r] {
				s[r] += x
			}
		}
		return s
	}
	// Locals, not s[r]: the array would live in memory, each add waiting on
	// a store.
	var s0, s1, s2, s3 float64
	a0 := a[0]
	a1, a2, a3 := a[1][:len(a0)], a[2][:len(a0)], a[3][:len(a0)]
	for j, x := range a0 {
		s0 += x
		s1 += a1[j]
		s2 += a2[j]
		s3 += a3[j]
	}
	return [blockRows]float64{s0, s1, s2, s3}
}

// seqDots is seqSums of the products a[r][j]·b[r][j].
func seqDots(a, b *[blockRows][]float64, n int) (s [blockRows]float64) {
	if n < blockRows {
		for r := 0; r < n; r++ {
			for j, x := range a[r] {
				s[r] += x * b[r][j]
			}
		}
		return s
	}
	a0 := a[0]
	a1, a2, a3 := a[1][:len(a0)], a[2][:len(a0)], a[3][:len(a0)]
	b0, b1, b2, b3 := b[0][:len(a0)], b[1][:len(a0)], b[2][:len(a0)], b[3][:len(a0)]
	var s0, s1, s2, s3 float64
	for j, x := range a0 {
		s0 += x * b0[j]
		s1 += a1[j] * b1[j]
		s2 += a2[j] * b2[j]
		s3 += a3[j] * b3[j]
	}
	return [blockRows]float64{s0, s1, s2, s3}
}

// laneBTBlock fills c[r][j] = s·(a[r] · column j of bt) for the block's
// first rows rows (laneBT).
func laneBTBlock(c, a *[blockRows][]float64, rows int, bt *Tensor, s float64) {
	for r := 0; r < rows; r++ {
		laneBT(c[r], a[r], bt, s)
	}
}

// laneBT fills crow[j] = s·(arow · column j of bt) for the first len(crow)
// columns of bt, a packT destination: dot's four-accumulator pattern per
// output, then the scale. s = 1 leaves the dot unchanged (x·1 is x for every
// x).
func laneBT(crow, arow []float64, bt *Tensor, s float64) {
	n, ld := len(crow), bt.C
	if !simdKernels || len(arow) == 0 { // an empty bt has no columns to slice
		for j := range crow {
			crow[j] = s * dotCol(arow, bt.Data, j, ld)
		}
		return
	}
	j := n &^ 3
	laneBTAVX2(crow[:j], arow, bt.Data, ld, s)
	if j < n {
		var tail [4]float64
		laneBTAVX2(tail[:], arow, bt.Data[j:], ld, s)
		copy(crow[j:], tail[:])
	}
}

// dotCol is dot(arow, column j of bt) with bt's rows ld wide: the same four
// accumulators over the leading multiple of four, combined left to right,
// then the sequential tail.
func dotCol(arow, bt []float64, j, ld int) float64 {
	k := len(arow)
	var s0, s1, s2, s3 float64
	t := 0
	for ; t+4 <= k; t += 4 {
		o := t*ld + j
		s0 += arow[t] * bt[o]
		s1 += arow[t+1] * bt[o+ld]
		s2 += arow[t+2] * bt[o+2*ld]
		s3 += arow[t+3] * bt[o+3*ld]
	}
	s := s0 + s1 + s2 + s3
	for ; t < k; t++ {
		s += arow[t] * bt[t*ld+j]
	}
	return s
}
