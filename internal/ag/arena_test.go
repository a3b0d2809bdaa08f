package ag

import (
	"math"
	"math/rand"
	"testing"

	"predtop/internal/tensor"
)

// lossGraph is the fixed input of buildLossGraph: one graph's rows, its
// attention mask (nil: unmasked), and the scalar target. Built once so the
// steady-state allocation test measures the tape alone.
type lossGraph struct {
	x, mask, target *tensor.Tensor
}

func newLossGraph(x, mask *tensor.Tensor) *lossGraph {
	return &lossGraph{x: x, mask: mask, target: tensor.Full(1, 1, 0.75)}
}

// buildLossGraph runs a forward pass exercising every tape op that the
// models use — fused linear, layer norm, masked multi-head attention,
// pooling, the 1-row head — and returns the scalar loss node.
func buildLossGraph(ctx *Context, ps []*Param, g *lossGraph) *Node {
	w1, b1, w2, b2, gamma, beta := ps[0], ps[1], ps[2], ps[3], ps[4], ps[5]
	h := ctx.Linear(ctx.Const(g.x), w1, b1)
	h = ctx.LayerNorm(h, gamma, beta, 1e-5)
	h = ctx.Attention(h, h, h, 2, g.mask)
	h = ctx.Add(h, ctx.LeakyReLU(h, 0.1))
	pooled := ctx.Scale(ctx.SumRows(h), 1/float64(g.x.R))
	pred := ctx.ReLU(ctx.Linear(pooled, w2, b2))
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

	g := newLossGraph(x, mask)

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
// step performs zero heap allocations — on a standalone tape, whose own
// gradient slots are folded by BackwardVec, and on a tape routed to a shared
// PanelGrads at a non-zero graph index, whose Fold allocates nothing either.
func TestContextSteadyStateZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		n     int // graph nodes
		graph int // the tape's graph index in the shared store; -1: unrouted
	}{
		{5, -1},
		{2, -1},
		{5, 3},
		{2, 1},
	} {
		rng := rand.New(rand.NewSource(3))
		x := tensor.Randn(rng, c.n, 6, 1)
		ps := testParams(11)
		g := newLossGraph(x, nil)
		ctx := NewContext()
		var pg *PanelGrads
		if c.graph >= 0 {
			pg = NewPanelGrads(ps, c.graph+1)
			ctx.RouteGrads(pg, c.graph)
		}
		step := func() {
			loss := buildLossGraph(ctx, ps, g)
			ctx.Backward(loss)
			ctx.Reset()
		}
		step() // warm the arena, node chunks, params map, and fold slots
		step()
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Fatalf("n=%d graph=%d: steady-state forward+backward allocated %.1f per step, want 0", c.n, c.graph, allocs)
		}
		if pg == nil {
			continue
		}
		if allocs := testing.AllocsPerRun(100, func() { pg.Fold(c.graph + 1) }); allocs != 0 {
			t.Fatalf("n=%d graph=%d: Fold allocated %.1f, want 0", c.n, c.graph, allocs)
		}
	}
}

// TestContextResetReproducesGradients checks that a Reset tape (the pooled
// reuse path of the training loop) reproduces bitwise-identical gradients
// into the re-zeroed Param.Grad, for graphs of several sizes.
func TestContextResetReproducesGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := newRandParam(rng, "w", 3, 2)
	b := newRandParam(rng, "b", 1, 2)
	for _, n := range []int{4, 2, 7} {
		x, target := tensor.Randn(rng, n, 3, 1), tensor.Randn(rng, n, 2, 1)
		ctx := NewContext()
		run := func() []float64 {
			w.ZeroGrad()
			b.ZeroGrad()
			ctx.Backward(mse(ctx, ctx.Linear(ctx.Const(x), w, b), target))
			return append(w.Grad.Clone().Data, b.Grad.Data...)
		}
		first := run()
		ctx.Reset()
		second := run()
		for i := range first {
			if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
				t.Fatalf("n=%d: grad %d drifted after Reset: %v vs %v", n, i, first[i], second[i])
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
