package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refLinear is the dense layer's forward as a naive loop: each element
// summed from +0 in ascending p, every term added, then the bias added (none
// when nil).
func refLinear(x, w, bias *Tensor) *Tensor {
	out := New(x.R, w.C)
	for i := 0; i < x.R; i++ {
		for j := 0; j < w.C; j++ {
			s := 0.0
			for p := 0; p < x.C; p++ {
				s += x.At(i, p) * w.At(p, j)
			}
			if bias != nil {
				s += bias.Data[j]
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// refBT is g·Wᵀ as one dot per output.
func refBT(g, w *Tensor) *Tensor {
	out := New(g.R, w.R)
	for i := 0; i < g.R; i++ {
		for p := 0; p < w.R; p++ {
			out.Data[i*w.R+p] = dot(g.Row(i), w.Row(p))
		}
	}
	return out
}

// refAT is Xᵀ·g as a naive loop: each element summed from +0 in ascending
// row, every term added.
func refAT(x, g *Tensor) *Tensor {
	out := New(x.C, g.C)
	for p := 0; p < x.C; p++ {
		for j := 0; j < g.C; j++ {
			s := 0.0
			for i := 0; i < x.R; i++ {
				s += x.At(i, p) * g.At(i, j)
			}
			out.Set(p, j, s)
		}
	}
	return out
}

// refSumRows is the sequential column sum from +0.
func refSumRows(t *Tensor) *Tensor {
	out := New(1, t.C)
	for i := 0; i < t.R; i++ {
		for j, v := range t.Row(i) {
			out.Data[j] += v
		}
	}
	return out
}

// oneHot fills x like an input layer's encoded features: a few non-zero
// entries a row, the rest +0.
func oneHot(rng *rand.Rand, x *Tensor) {
	clear(x.Data)
	for i := 0; i < x.R; i++ {
		row := x.Row(i)
		for range 1 + rng.Intn(8) {
			row[rng.Intn(len(row))] = 1 + rng.Float64()
		}
	}
}

// withSpecials returns a copy of t with ±Inf among its first eighth and the
// hardware NaN in its last element.
func withSpecials(rng *rand.Rand, t *Tensor) *Tensor {
	s := t.Clone()
	injectSpecials(rng, s.Data[:max(len(s.Data)/8, 1)], false)
	s.Data[len(s.Data)-1] = hwNaN()
	return s
}

// TestDenseBitwise holds the dense layer's kernels to naive references bit
// for bit: the forward (LinearInto, and MatMulInto without the bias) to each
// element summed from +0 in ascending p then the bias, dX
// (MatMulBTSerialInto, MatMulBTInto) to dot per output, dW (MatMulATInto) to
// each element summed from +0 in ascending rows, and SumRowsInto to
// sequential column sums; the forward and dW references add every term, so
// a zero in x times an Inf in W or g is NaN. Node counts cover every
// remainder of the four-row block and two long graphs; widths cover n = 1,
// n = 8, a one-hot input of 48 and a k%4 tail; W and g are finite or hold
// ±Inf and NaN; the SIMD kernels are on and off. The references run with the
// SIMD kernels off, and every destination starts as NaN to prove it fully
// defined.
func TestDenseBitwise(t *testing.T) {
	simdModes := []bool{SIMDEnabled()}
	if SIMDAvailable() {
		simdModes = []bool{true, false}
	}
	defer SetSIMD(SIMDEnabled())
	rng := rand.New(rand.NewSource(45))
	shapes := []struct {
		k, n   int
		onehot bool
	}{{48, 32, true}, {32, 32, false}, {64, 32, false}, {32, 64, false}, {24, 8, false}, {13, 8, false}, {32, 1, false}, {10, 12, false}}
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 113, 401} {
		for _, sh := range shapes {
			x := New(rows, sh.k)
			if sh.onehot {
				oneHot(rng, x)
			} else {
				fillRandom(rng, x.Data)
			}
			w, bias, g := randT(rng, sh.k, sh.n), randT(rng, 1, sh.n), randT(rng, rows, sh.n)
			fillRandom(rng, w.Data)
			fillRandom(rng, g.Data)
			for _, c := range []struct {
				name string
				w, g *Tensor
			}{{"finite", w, g}, {"specials", withSpecials(rng, w), withSpecials(rng, g)}} {
				SetSIMD(false)
				wantY, wantXW := refLinear(x, c.w, bias), refLinear(x, c.w, nil)
				wantDX, wantDW := refBT(c.g, c.w), refAT(x, c.g)
				wantDB := refSumRows(c.g)
				for _, simd := range simdModes {
					SetSIMD(simd)
					label := fmt.Sprintf("N=%d k=%d n=%d %s simd=%v", rows, sh.k, sh.n, c.name, simd)
					y := Full(rows, sh.n, math.NaN())
					LinearInto(y, x, c.w, bias)
					wantBitwise(t, label+" LinearInto", y, wantY)
					y = Full(rows, sh.n, math.NaN())
					MatMulInto(y, x, c.w)
					wantBitwise(t, label+" MatMulInto", y, wantXW)

					dx := Full(rows, sh.k, math.NaN())
					MatMulBTSerialInto(dx, c.g, c.w, NewArena())
					wantBitwise(t, label+" MatMulBTSerialInto", dx, wantDX)
					dx = Full(rows, sh.k, math.NaN())
					MatMulBTInto(dx, c.g, c.w)
					wantBitwise(t, label+" MatMulBTInto", dx, wantDX)

					dw := Full(sh.k, sh.n, math.NaN())
					MatMulATInto(dw, x, c.g)
					wantBitwise(t, label+" MatMulATInto", dw, wantDW)

					db := Full(1, sh.n, math.NaN())
					SumRowsInto(db, c.g)
					wantBitwise(t, label+" SumRowsInto", db, wantDB)
				}
			}
		}
	}
}
