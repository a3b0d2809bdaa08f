package ag

import (
	"math"
	"math/rand"
	"testing"

	"predtop/internal/tensor"
)

// buildLoss records pred = x·W + b over one unpadded panel and
// loss = MSE(pred, target) on ctx.
func buildLoss(ctx *Context, w, b *Param, x, target *tensor.Tensor) *Node {
	l := tensor.BatchLayout{B: 1, Stride: x.R, Counts: []int{x.R}}
	return mse(ctx, ctx.SegLinear(ctx.Const(x), w, b, l), target)
}

func randT(rng *rand.Rand, r, c int) *tensor.Tensor {
	out := tensor.New(r, c)
	for i := range out.Data {
		out.Data[i] = rng.NormFloat64()
	}
	return out
}

// TestContextIntoIsolatesParamGrad checks that a tape bound to a GradBuffer
// (SetShards with one shard for its one panel) leaves the shared Param.Grad
// untouched — the property that keeps per-slot backward passes from writing
// shared state.
func TestContextIntoIsolatesParamGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewParam("w", randT(rng, 2, 3))
	b := NewParam("b", randT(rng, 1, 3))
	params := []*Param{w, b}
	buf := NewGradBuffer(params)

	ctx := NewContext()
	ctx.SetShards([]*GradBuffer{buf})
	ctx.Backward(buildLoss(ctx, w, b, randT(rng, 4, 2), randT(rng, 4, 3)))

	for _, p := range params {
		if p.Grad.MaxAbs() != 0 {
			t.Fatalf("%s.Grad touched by buffered tape", p.Name)
		}
		if buf.Grad(p).MaxAbs() == 0 {
			t.Fatalf("no gradient accumulated into buffer for %s", p.Name)
		}
	}
}

// TestContextResetReproducesGradients checks that a Reset tape (the pooled
// reuse path of the training loop) reproduces bitwise-identical gradients
// into its re-zeroed buffer.
func TestContextResetReproducesGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewParam("w", randT(rng, 3, 2))
	b := NewParam("b", randT(rng, 1, 2))
	buf := NewGradBuffer([]*Param{w, b})
	x, target := randT(rng, 5, 3), randT(rng, 5, 2)

	ctx := NewContext()
	ctx.SetShards([]*GradBuffer{buf})
	ctx.Backward(buildLoss(ctx, w, b, x, target))
	first := append(buf.Grad(w).Clone().Data, buf.Grad(b).Clone().Data...)

	ctx.Reset()
	buf.Zero()
	ctx.Backward(buildLoss(ctx, w, b, x, target))
	second := append(buf.Grad(w).Clone().Data, buf.Grad(b).Clone().Data...)

	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			t.Fatalf("grad %d drifted after Reset: %v vs %v", i, first[i], second[i])
		}
	}
}

func TestGradBufferUnknownParamPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewParam("w", randT(rng, 2, 2))
	stranger := NewParam("stranger", randT(rng, 2, 2))
	buf := NewGradBuffer([]*Param{w})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for uncovered parameter")
		}
	}()
	buf.Grad(stranger)
}
