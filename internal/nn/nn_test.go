package nn

import (
	"math"
	"math/rand"
	"testing"

	"predtop/internal/ag"
	"predtop/internal/tensor"
)

// mse is mean (pred − target)² as a scalar node.
func mse(ctx *ag.Context, pred *ag.Node, target *tensor.Tensor) *ag.Node {
	return ctx.MeanAll(ctx.Square(ctx.Sub(pred, ctx.Const(target))))
}

func gradCheck(t *testing.T, params []*ag.Param, tol float64, build func(ctx *ag.Context) *ag.Node) {
	t.Helper()
	loss := func() float64 { return build(ag.NewContext()).V.At(0, 0) }
	grads := func() map[*ag.Param]*tensor.Tensor { return ag.CollectGrads(params, build) }
	if err := ag.GradCheck(params, loss, grads, 1e-6, tol); err != nil {
		t.Fatal(err)
	}
}

func TestLinearShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, "l", 5, 3)
	ctx := ag.NewContext()
	y := l.Forward(ctx, ctx.Const(tensor.Randn(rng, 7, 5, 1)))
	if y.V.R != 7 || y.V.C != 3 {
		t.Fatalf("linear output %dx%d", y.V.R, y.V.C)
	}
	if got := l.W.V.Size() + l.B.V.Size(); len(l.Params()) != 2 || got != 5*3+3 {
		t.Fatalf("%d params, %d scalars", len(l.Params()), got)
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, "l", 4, 2)
	for _, n := range []int{3, 1, 4} {
		x := tensor.Randn(rng, n, 4, 1)
		y := tensor.Randn(rng, n, 2, 1)
		gradCheck(t, l.Params(), 1e-5, func(ctx *ag.Context) *ag.Node {
			return mse(ctx, l.Forward(ctx, ctx.Const(x)), y)
		})
	}
}

func TestLayerNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ln := NewLayerNorm("ln", 8)
	ctx := ag.NewContext()
	x := tensor.Randn(rng, 4, 8, 3)
	y := ln.Forward(ctx, ctx.Const(x))
	for i := 0; i < y.V.R; i++ {
		mean, varr := 0.0, 0.0
		for _, v := range y.V.Row(i) {
			mean += v
		}
		mean /= 8
		for _, v := range y.V.Row(i) {
			varr += (v - mean) * (v - mean)
		}
		varr /= 8
		if math.Abs(mean) > 1e-9 || math.Abs(varr-1) > 1e-3 {
			t.Fatalf("row %d mean=%g var=%g", i, mean, varr)
		}
	}
}

func TestMHAShapesAndMask(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMultiHeadAttention(rng, "mha", 16, 4)
	ctx := ag.NewContext()
	x := tensor.Randn(rng, 6, 16, 1)
	y := m.Forward(ctx, ctx.Const(x), nil)
	if y.V.R != 6 || y.V.C != 16 {
		t.Fatalf("MHA output %dx%d", y.V.R, y.V.C)
	}
	// With a mask allowing only self-attention every output row i must be
	// independent of other rows: perturbing row j≠i must not change row i.
	inf := math.Inf(-1)
	mask := tensor.Full(6, 6, inf)
	for i := 0; i < 6; i++ {
		mask.Set(i, i, 0)
	}
	ctx2 := ag.NewContext()
	base := m.Forward(ctx2, ctx2.Const(x), mask).V.Clone()
	x2 := x.Clone()
	for j := 0; j < 16; j++ {
		x2.Set(3, j, x2.At(3, j)+5)
	}
	ctx3 := ag.NewContext()
	pert := m.Forward(ctx3, ctx3.Const(x2), mask).V
	for i := 0; i < 6; i++ {
		if i == 3 {
			continue
		}
		for j := 0; j < 16; j++ {
			if math.Abs(base.At(i, j)-pert.At(i, j)) > 1e-9 {
				t.Fatalf("row %d leaked attention to masked row 3", i)
			}
		}
	}
}

func TestMHAGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMultiHeadAttention(rng, "mha", 8, 2)
	inf := math.Inf(-1)
	// Graphs of several sizes, each mask with a pair of mutually disabled
	// positions.
	for _, n := range []int{4, 2, 3} {
		mask := tensor.New(n, n)
		mask.Set(0, n-1, inf)
		mask.Set(n-1, 0, inf)
		x := tensor.Randn(rng, n, 8, 1)
		y := tensor.Randn(rng, n, 8, 1)
		gradCheck(t, m.Params(), 1e-4, func(ctx *ag.Context) *ag.Node {
			return mse(ctx, m.Forward(ctx, ctx.Const(x), mask), y)
		})
	}
}

func TestMLPHeadAndFFN(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := NewFeedForward(rng, "ffn", 8, 16)
	h := NewMLPHead(rng, "head", 8, 4, 4)
	ctx := ag.NewContext()
	x := tensor.Randn(rng, 5, 8, 1)
	y := f.Forward(ctx, ctx.Const(x))
	if y.V.R != 5 || y.V.C != 8 {
		t.Fatalf("FFN output %dx%d", y.V.R, y.V.C)
	}
	p := h.Forward(ctx, ctx.Const(tensor.Randn(rng, 1, 8, 1)))
	if p.V.R != 1 || p.V.C != 1 {
		t.Fatalf("head output %dx%d", p.V.R, p.V.C)
	}
}

func TestSinusoidalPE(t *testing.T) {
	pe := SinusoidalPE(10, 8)
	if pe.R != 10 || pe.C != 8 {
		t.Fatalf("PE shape %dx%d", pe.R, pe.C)
	}
	// Position 0 is sin(0)=0 / cos(0)=1 alternating.
	for j := 0; j < 8; j += 2 {
		if pe.At(0, j) != 0 || pe.At(0, j+1) != 1 {
			t.Fatalf("PE row 0 wrong at col %d", j)
		}
	}
	// Different positions must differ.
	if tensor.AllClose(tensor.FromSlice(1, 8, pe.Row(1)), tensor.FromSlice(1, 8, pe.Row(5)), 1e-9) {
		t.Fatal("PE rows 1 and 5 identical")
	}
	for _, v := range pe.Data {
		if v < -1-1e-12 || v > 1+1e-12 {
			t.Fatalf("PE value out of range: %v", v)
		}
	}
}
