package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refAttention is the composed form AttentionInto and AttentionBackInto
// replaced, op for op: per head a sliced copy of Q, K and V, S = Q_h·K_hᵀ,
// scale·S, the masked row softmax in place and P·V_h, concatenated; then the
// tape's backward, last head first — dA = g_h·V_hᵀ and dV_h = Pᵀ·g_h, the
// softmax VJP with dotgy summed in ascending column order, scale·dS,
// dQ_h = dS·K_h and dK_h = dSᵀ·Q_h — each head's gradient zero-padded to
// N×dim and added into the operand's gradient as the slice backward did.
func refAttention(q, k, v, mask, g *Tensor, heads int) (out, dq, dk, dv *Tensor) {
	n, dim := q.R, q.C
	w := dim / heads
	s := 1 / math.Sqrt(float64(w))
	slice := func(t *Tensor, lo int) *Tensor {
		d := New(n, w)
		SliceColsInto(d, t, lo, lo+w)
		return d
	}
	pad := func(acc **Tensor, d *Tensor, lo int) {
		p := New(n, dim)
		for i := 0; i < n; i++ {
			copy(p.Row(i)[lo:lo+w], d.Row(i))
		}
		if *acc == nil {
			*acc = p
			return
		}
		AddInPlace(*acc, p)
	}
	ps := make([]*Tensor, heads)
	outs := make([]*Tensor, heads)
	for h := range heads {
		p := New(n, n)
		MatMulBTSerialInto(p, slice(q, h*w), slice(k, h*w), nil)
		ScaleInto(p, p, s)
		SoftmaxRowsInto(p, p, mask)
		outs[h] = New(n, w)
		MatMulSerialInto(outs[h], p, slice(v, h*w))
		ps[h] = p
	}
	out = New(n, dim)
	ConcatColsInto(out, outs...)
	for h := heads - 1; h >= 0; h-- {
		lo, p := h*w, ps[h]
		gh := slice(g, lo)
		da := New(n, n)
		MatMulBTSerialInto(da, gh, slice(v, lo), nil)
		dvh := New(n, w)
		MatMulATInto(dvh, p, gh)
		ds := New(n, n)
		for i := 0; i < n; i++ {
			dotgy := 0.0
			for j, a := range da.Row(i) {
				dotgy += a * p.At(i, j)
			}
			SoftmaxBackRow(ds.Row(i), da.Row(i), p.Row(i), dotgy)
		}
		ScaleInto(ds, ds, s)
		dqh, dkh := New(n, w), New(n, w)
		MatMulSerialInto(dqh, ds, slice(k, lo))
		MatMulATInto(dkh, ds, slice(q, lo))
		pad(&dv, dvh, lo)
		pad(&dk, dkh, lo)
		pad(&dq, dqh, lo)
	}
	return out, dq, dk, dv
}

// hwInf is read from memory by hwNaN so that the compiler cannot fold the
// subtraction into its own NaN constant.
var hwInf = []float64{math.Inf(1)}

// hwNaN returns Inf − Inf computed at run time: the NaN the hardware makes,
// the one every 0·Inf and Inf − Inf in a kernel yields. The tests inject no
// other NaN: when two NaNs of different payloads meet in an add, which one
// survives depends on the operand order the compiler picks for a commutative
// instruction, and that is not part of the contract.
func hwNaN() float64 { return hwInf[0] - hwInf[0] }

// fusedAttention runs the fused kernels on a fresh arena, the gradient
// destinations pre-filled with garbage to prove they are fully defined.
func fusedAttention(q, k, v, mask, g *Tensor, heads int) (out, dq, dk, dv *Tensor) {
	n := q.R
	a := NewArena()
	out, p := Full(n, q.C, math.NaN()), Full(heads*n, n, math.NaN())
	AttentionInto(out, p, q, k, v, mask, heads, a)
	dq, dk, dv = Full(n, q.C, 7), Full(n, q.C, 7), Full(n, q.C, 7)
	AttentionBackInto(dq, dk, dv, g, p, q, k, v, heads, a)
	return out, dq, dk, dv
}

// TestAttentionBitwise holds the fused attention kernels to the composed
// reference bit for bit — output, dQ, dK and dV — over node counts around
// and far past the four-row block, head widths with and without a k%4 tail,
// one to three heads, no mask, a DAG reachability mask and one with a fully
// masked row, and V finite or holding ±Inf and NaN, with the SIMD kernels on
// and off. A last case pins the product semantics: every term is added, so
// +Inf in V under an aligned group of four masked columns, whose
// probabilities are exact zeros in every row, makes its column NaN in every
// row of that head's output.
func TestAttentionBitwise(t *testing.T) {
	simdModes := []bool{SIMDEnabled()}
	if SIMDAvailable() {
		simdModes = []bool{true, false}
	}
	defer SetSIMD(SIMDEnabled())
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 64, 129, 307} {
		for _, w := range []int{4, 10, 12, 16} {
			heads := 1 + (n+w)%3
			dim := heads * w
			q, k, v, g := randT(rng, n, dim), randT(rng, n, dim), randT(rng, n, dim), randT(rng, n, dim)
			fillRandom(rng, q.Data)
			// V with ±Inf and NaN: the four-row kernels and the row loops
			// alike add every term, so each zero probability times an Inf
			// is NaN on both paths.
			vs := v.Clone()
			injectSpecials(rng, vs.Data[:max(len(vs.Data)/8, 1)], false)
			vs.Data[len(vs.Data)-1] = hwNaN()
			full := dagMask(rng, n)
			for j := range full.Row(n / 2) {
				full.Row(n / 2)[j] = math.Inf(-1)
			}
			for _, m := range []struct {
				name string
				mask *Tensor
			}{{"nil", nil}, {"dag", dagMask(rng, n)}, {"fullrow", full}} {
				for _, simd := range simdModes {
					for _, v := range []*Tensor{v, vs} {
						SetSIMD(simd)
						label := fmt.Sprintf("n=%d dk=%d heads=%d mask=%s simd=%v finiteV=%v",
							n, w, heads, m.name, simd, v != vs)
						ro, rq, rk, rv := refAttention(q, k, v, m.mask, g, heads)
						fo, fq, fk, fv := fusedAttention(q, k, v, m.mask, g, heads)
						wantBitwise(t, label+" out", fo, ro)
						wantBitwise(t, label+" dQ", fq, rq)
						wantBitwise(t, label+" dK", fk, rk)
						wantBitwise(t, label+" dV", fv, rv)
					}
				}
			}
		}
	}
	for _, n := range []int{8, 13, 64, 129} {
		for _, w := range []int{4, 10, 16} {
			heads := 2
			q, k, v, g := randT(rng, n, heads*w), randT(rng, n, heads*w), randT(rng, n, heads*w), randT(rng, n, heads*w)
			m, h, c := rng.Intn(n/4), rng.Intn(heads), rng.Intn(w)
			mask := New(n, n)
			for i := 0; i < n; i++ {
				for j := 4 * m; j < 4*m+4; j++ {
					mask.Set(i, j, math.Inf(-1))
				}
			}
			v.Set(4*m+rng.Intn(4), h*w+c, math.Inf(1))
			for _, simd := range simdModes {
				SetSIMD(simd)
				label := fmt.Sprintf("n=%d dk=%d masked quad %d, +Inf in head %d column %d, simd=%v", n, w, m, h, c, simd)
				ro, rq, rk, rv := refAttention(q, k, v, mask, g, heads)
				fo, fq, fk, fv := fusedAttention(q, k, v, mask, g, heads)
				wantBitwise(t, label+" out", fo, ro)
				wantBitwise(t, label+" dQ", fq, rq)
				wantBitwise(t, label+" dK", fk, rk)
				wantBitwise(t, label+" dV", fv, rv)
				for i := 0; i < n; i++ {
					if x := fo.At(i, h*w+c); !math.IsNaN(x) {
						t.Fatalf("%s: out[%d] = %v, want NaN (0·Inf)", label, i, x)
					}
				}
			}
		}
	}
}

// TestLaneBTBitwise holds the lane-per-column score kernel to dot, output by
// output, over every column count to 37 and two longer rows (the vector
// body, the four-column step and the last columns over the padding), inner
// lengths 1–24 (every k%4 tail) and one to four rows, with signed zeros, ±Inf
// and NaN among the operands and NaN in the padding, which no output may
// read.
func TestLaneBTBitwise(t *testing.T) {
	defer SetSIMD(SIMDEnabled())
	rng := rand.New(rand.NewSource(44))
	for _, n := range append([]int{64, 131}, seq(1, 37)...) {
		for k := 1; k <= 24; k++ {
			rows := 1 + (n+k)%blockRows
			var a, got [blockRows][]float64
			for r := range rows {
				a[r] = make([]float64, k)
				fillRandom(rng, a[r])
			}
			bt := Full(k, ldT(n), math.NaN())
			for c := 0; c < k; c++ {
				fillRandom(rng, bt.Row(c)[:n])
				injectSpecials(rng, bt.Row(c)[:n], false)
			}
			bt.Row(rng.Intn(k))[rng.Intn(n)] = hwNaN()
			for _, s := range []float64{1, 0.25} {
				for _, simd := range []bool{false, true} {
					SetSIMD(simd)
					for r := range rows {
						got[r] = make([]float64, n)
					}
					laneBTBlock(&got, &a, rows, bt, s)
					for r := range rows {
						want := make([]float64, n)
						for j := range want {
							col := make([]float64, k)
							for c := range col {
								col[c] = bt.At(c, j)
							}
							want[j] = s * dot(a[r], col)
						}
						requireBitwise(t, fmt.Sprintf("n=%d k=%d row %d s=%v simd=%v", n, k, r, s, SIMDEnabled()), want, got[r])
					}
				}
			}
		}
	}
}

// seq returns lo, lo+1, …, hi.
func seq(lo, hi int) []int {
	s := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		s = append(s, i)
	}
	return s
}
