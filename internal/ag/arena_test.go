package ag

import (
	"math"
	"math/rand"
	"testing"

	"predtop/internal/tensor"
)

// lossGraph is the fixed input of buildLossGraph: stacked graphs under
// their panel layout, the per-graph attention masks (nil: unmasked), and the
// scalar target. Built once so the steady-state allocation test measures the
// tape alone.
type lossGraph struct {
	x      *tensor.Tensor
	masks  []*tensor.Tensor
	target *tensor.Tensor
	l, hl  tensor.BatchLayout
}

func newLossGraph(x *tensor.Tensor, masks []*tensor.Tensor, l tensor.BatchLayout) *lossGraph {
	ones := make([]int, l.B)
	for i := range ones {
		ones[i] = 1
	}
	return &lossGraph{
		x:      x,
		masks:  masks,
		target: tensor.Full(1, 1, 0.75),
		l:      l,
		hl:     tensor.BatchLayout{B: l.B, Stride: 1, Counts: ones},
	}
}

// buildLossGraph runs a forward pass exercising every tape op that the
// models use — fused linear, in-place scale/softmax, layer norm, attention
// glue, pooling, the stride-1 head — and returns the scalar loss node.
func buildLossGraph(ctx *Context, ps []*Param, g *lossGraph) *Node {
	w1, b1, w2, b2, gamma, beta := ps[0], ps[1], ps[2], ps[3], ps[4], ps[5]
	h := ctx.SegLinear(ctx.Const(g.x), w1, b1, g.l)
	h = ctx.SegLayerNorm(h, gamma, beta, 1e-5, g.l)
	scores := ctx.ScaleInPlace(ctx.PanelMatMulBT(h, h, g.l), 0.5)
	attn := ctx.PanelSoftmaxInPlace(scores, g.masks, g.l)
	h = ctx.PanelMatMul(attn, h, g.l)
	h = ctx.Add(h, ctx.Tanh(h))
	pooled := ctx.Scale(ctx.SegSumRows(h, g.l), 1/float64(g.x.R))
	pred := ctx.ReLU(ctx.SegLinear(pooled, w2, b2, g.hl))
	return ctx.MeanAll(ctx.Abs(ctx.Sub(ctx.MeanAll(pred), ctx.Const(g.target))))
}

func testParams(seed int64) []*Param {
	rng := rand.New(rand.NewSource(seed))
	return []*Param{
		NewParam("w1", tensor.Randn(rng, 6, 8, 0.3)),
		NewParam("b1", tensor.Randn(rng, 1, 8, 0.3)),
		NewParam("w2", tensor.Randn(rng, 8, 4, 0.3)),
		NewParam("b2", tensor.Randn(rng, 1, 4, 0.3)),
		NewParam("gamma", tensor.Full(1, 8, 1)),
		NewParam("beta", tensor.New(1, 8)),
	}
}

// TestArenaOnOffBitwiseIdentical: the arena is a pure allocation strategy —
// loss values and parameter gradients must be bitwise identical with it on
// (default), off (a nil arena: plain heap allocation), and on across several
// Reset generations
// (recycled buffers must never leak stale state into results).
func TestArenaOnOffBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	x := tensor.Randn(rng, 5, 6, 1)
	mask := tensor.New(5, 5)
	ninf := math.Inf(-1)
	mask.Set(0, 3, ninf)
	mask.Set(2, 1, ninf)

	g := newLossGraph(x, []*tensor.Tensor{mask}, tensor.BatchLayout{B: 1, Stride: 5, Counts: []int{5}})

	type result struct {
		loss  float64
		grads []*tensor.Tensor
	}
	runOnce := func(ctx *Context, ps []*Param) result {
		for _, p := range ps {
			p.ZeroGrad()
		}
		loss := buildLossGraph(ctx, ps, g)
		ctx.Backward(loss)
		r := result{loss: loss.Value().At(0, 0)}
		for _, p := range ps {
			r.grads = append(r.grads, p.Grad.Clone())
		}
		return r
	}

	refCtx := NewContext()
	refCtx.arena = nil
	ref := runOnce(refCtx, testParams(7))

	arenaCtx := NewContext()
	ps := testParams(7)
	for gen := 0; gen < 4; gen++ {
		got := runOnce(arenaCtx, ps)
		if math.Float64bits(got.loss) != math.Float64bits(ref.loss) {
			t.Fatalf("gen %d: arena loss %x != no-arena %x",
				gen, math.Float64bits(got.loss), math.Float64bits(ref.loss))
		}
		for i := range ref.grads {
			for j := range ref.grads[i].Data {
				a, b := got.grads[i].Data[j], ref.grads[i].Data[j]
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("gen %d: grad %d[%d] %x != %x", gen, i, j,
						math.Float64bits(a), math.Float64bits(b))
				}
			}
		}
		arenaCtx.Reset()
	}
}

// TestContextSteadyStateZeroAlloc pins the tape-level allocation target:
// once a pooled context has seen its graph, a full forward+backward+Reset
// step performs zero heap allocations — at one panel, and at three ragged
// panels, where the per-panel parameter gradient fold runs on the context's
// own slots; and on a tape routed to a shared PanelGrads at a non-zero panel
// offset, whose Fold allocates nothing either.
func TestContextSteadyStateZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		l      tensor.BatchLayout
		offset int // global panel of the tape's first; -1: unrouted
	}{
		{tensor.BatchLayout{B: 1, Stride: 5, Counts: []int{5}}, -1},
		{tensor.BatchLayout{B: 3, Stride: 5, Counts: []int{2, 5, 3}}, -1},
		{tensor.BatchLayout{B: 1, Stride: 5, Counts: []int{5}}, 3},
		{tensor.BatchLayout{B: 3, Stride: 5, Counts: []int{2, 5, 3}}, 2},
	} {
		l := c.l
		rng := rand.New(rand.NewSource(3))
		x := tensor.Randn(rng, l.Rows(), 6, 1)
		ps := testParams(11)
		g := newLossGraph(x, nil, l)
		ctx := NewContext()
		var pg *PanelGrads
		if c.offset >= 0 {
			pg = NewPanelGrads(ps, c.offset+l.B)
			ctx.RouteGrads(pg, c.offset)
		}
		step := func() {
			loss := buildLossGraph(ctx, ps, g)
			ctx.Backward(loss)
			ctx.Reset()
		}
		step() // warm the arena, node chunks, params map, and fold slots
		step()
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Fatalf("B=%d offset=%d: steady-state forward+backward allocated %.1f per step, want 0", l.B, c.offset, allocs)
		}
		if pg == nil {
			continue
		}
		if allocs := testing.AllocsPerRun(100, func() { pg.Fold(c.offset + l.B) }); allocs != 0 {
			t.Fatalf("B=%d offset=%d: Fold allocated %.1f, want 0", l.B, c.offset, allocs)
		}
	}
}

// TestContextResetReproducesGradients checks that a Reset tape (the pooled
// reuse path of the training loop) reproduces bitwise-identical gradients
// into the re-zeroed Param.Grad, at one panel and at three.
func TestContextResetReproducesGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := newRandParam(rng, "w", 3, 2)
	b := newRandParam(rng, "b", 1, 2)
	for _, c := range gcLayouts {
		x, target := tensor.Randn(rng, c.l.Rows(), 3, 1), tensor.Randn(rng, c.l.Rows(), 2, 1)
		ctx := NewContext()
		run := func() []float64 {
			w.ZeroGrad()
			b.ZeroGrad()
			ctx.Backward(mse(ctx, ctx.SegLinear(ctx.Const(x), w, b, c.l), target))
			return append(w.Grad.Clone().Data, b.Grad.Data...)
		}
		first := run()
		ctx.Reset()
		second := run()
		for i := range first {
			if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
				t.Fatalf("%s: grad %d drifted after Reset: %v vs %v", c.name, i, first[i], second[i])
			}
		}
	}
}

// TestArenaIntermediatesRecycled: a value read off the tape before Reset is
// valid; after Reset the arena may hand its buffer to the next pass. This
// documents (and checks) the escape contract — anything kept across Reset
// must be Cloned.
func TestArenaIntermediatesRecycled(t *testing.T) {
	ctx := NewContext()
	a := ctx.Const(tensor.Full(2, 2, 1))
	sum := ctx.Add(a, a)
	kept := sum.Value()     // arena-owned
	escaped := kept.Clone() // heap copy survives Reset
	ctx.Reset()

	// Drive several passes; the recycled buffer will be overwritten.
	for i := 0; i < 4; i++ {
		b := ctx.Const(tensor.Full(2, 2, float64(i)))
		ctx.Mul(b, b)
		ctx.Reset()
	}
	for i, v := range escaped.Data {
		if v != 2 {
			t.Fatalf("cloned escape corrupted at %d: %v", i, v)
		}
	}
}
