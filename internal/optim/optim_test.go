package optim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"predtop/internal/ag"
	"predtop/internal/parallel"
	"predtop/internal/tensor"
)

// mse is mean (pred − target)² as a scalar node.
func mse(ctx *ag.Context, pred *ag.Node, target *tensor.Tensor) *ag.Node {
	return ctx.MeanAll(ctx.Square(ctx.Sub(pred, ctx.Const(target))))
}

// minibatchProblem is a small regression laid out the way Train lays out a
// minibatch: ragged samples, each on its own tape routed to one
// ag.PanelGrads slot, folded once.
type minibatchProblem struct {
	w, b   *ag.Param
	xs, ys []*tensor.Tensor // per sample
}

func newMinibatchProblem(seed int64, samples int) *minibatchProblem {
	rng := rand.New(rand.NewSource(seed))
	p := &minibatchProblem{
		w: ag.NewParam("w", tensor.Randn(rng, 2, 3, 1)),
		b: ag.NewParam("b", tensor.Randn(rng, 1, 3, 1)),
	}
	for k := 0; k < samples; k++ {
		n := 4 - k%4
		p.xs = append(p.xs, tensor.Randn(rng, n, 2, 1))
		p.ys = append(p.ys, tensor.Randn(rng, n, 3, 1))
	}
	return p
}

// loss records sample k's per-element squared error (x·W + b − y)², whose
// sum BackwardVec differentiates.
func (p *minibatchProblem) loss(ctx *ag.Context, k int) *ag.Node {
	return ctx.Square(ctx.Sub(ctx.Linear(ctx.Const(p.xs[k]), p.w, p.b), ctx.Const(p.ys[k])))
}

// grads runs every sample's backward pass on a tape routed to one
// PanelGrads, folds once into the zeroed Param.Grad, and returns copies.
func (p *minibatchProblem) grads() []*tensor.Tensor {
	p.w.ZeroGrad()
	p.b.ZeroGrad()
	pg := ag.NewPanelGrads([]*ag.Param{p.w, p.b}, len(p.xs))
	for k := range p.xs {
		ctx := ag.NewContext()
		ctx.RouteGrads(pg, k)
		ctx.BackwardVec(p.loss(ctx, k))
	}
	pg.Fold(len(p.xs))
	return []*tensor.Tensor{p.w.Grad.Clone(), p.b.Grad.Clone()}
}

// alone runs sample k's backward pass on a standalone tape into the zeroed
// Param.Grad and returns copies.
func (p *minibatchProblem) alone(k int) []*tensor.Tensor {
	p.w.ZeroGrad()
	p.b.ZeroGrad()
	ctx := ag.NewContext()
	ctx.BackwardVec(p.loss(ctx, k))
	return []*tensor.Tensor{p.w.Grad.Clone(), p.b.Grad.Clone()}
}

// TestPanelGradsMatchPerSampleTapes: the folded Param.Grad — what the
// optimizer steps on — equals, bit for bit, the fixed-shape tree over
// standalone per-sample tapes, at every batch size.
func TestPanelGradsMatchPerSampleTapes(t *testing.T) {
	for _, samples := range []int{1, 2, 5, 8} {
		p := newMinibatchProblem(11, samples)
		got := p.grads()
		alone := make([][]*tensor.Tensor, len(got))
		for k := range p.xs {
			for i, g := range p.alone(k) {
				alone[i] = append(alone[i], g)
			}
		}
		for i := range got {
			want := parallel.TreeReduce(alone[i], func(a, b *tensor.Tensor) *tensor.Tensor {
				tensor.AddInPlace(a, b)
				return a
			})
			for j, g := range got[i].Data {
				if math.Float64bits(g) != math.Float64bits(want.Data[j]) {
					t.Fatalf("samples=%d param %d[%d]: folded %v != per-sample tree %v",
						samples, i, j, g, want.Data[j])
				}
			}
		}
	}
}

// TestPanelGradsAgainstFiniteDifferences validates the folded gradients end
// to end against numeric gradients of the summed loss.
func TestPanelGradsAgainstFiniteDifferences(t *testing.T) {
	p := newMinibatchProblem(3, 4)
	params := []*ag.Param{p.w, p.b}
	lossValue := func() float64 {
		sum := 0.0
		for k := range p.xs {
			sum += p.loss(ag.NewContext(), k).Value().Sum()
		}
		return sum
	}
	snapshot := func() map[*ag.Param]*tensor.Tensor {
		g := p.grads()
		return map[*ag.Param]*tensor.Tensor{p.w: g[0], p.b: g[1]}
	}
	if err := ag.GradCheck(params, lossValue, snapshot, 1e-6, 1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestAdamConvergesOnQuadratic checks Adam minimizes ‖w − target‖².
func TestAdamConvergesOnQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := ag.NewParam("w", tensor.Randn(rng, 3, 3, 1))
	target := tensor.Randn(rng, 3, 3, 1)
	opt := NewAdam([]*ag.Param{w})
	for step := 0; step < 800; step++ {
		ctx := ag.NewContext()
		loss := mse(ctx, ctx.Param(w), target)
		ctx.Backward(loss)
		opt.Step(0.05)
	}
	if !tensor.AllClose(w.V, target, 1e-2) {
		t.Fatalf("Adam did not converge: w=%v target=%v", w.V, target)
	}
}

// TestAdamLearnsLinearRegression fits y = X·w* from noisy-free samples.
func TestAdamLearnsLinearRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	wTrue := tensor.Randn(rng, 4, 1, 1)
	x := tensor.Randn(rng, 32, 4, 1)
	y := tensor.New(32, 1)
	tensor.MatMulInto(y, x, wTrue)
	w := ag.NewParam("w", tensor.New(4, 1))
	opt := NewAdam([]*ag.Param{w})
	for epoch := 0; epoch < 400; epoch++ {
		ctx := ag.NewContext()
		ctx.Backward(mse(ctx, ctx.MatMulParam(ctx.Const(x), w), y))
		opt.Step(CosineDecay(0.05, epoch, 400))
	}
	if !tensor.AllClose(w.V, wTrue, 5e-2) {
		t.Fatalf("regression failed: w=%v wTrue=%v", w.V, wTrue)
	}
}

func TestCosineDecaySchedule(t *testing.T) {
	base := 0.001
	if got := CosineDecay(base, 0, 500); math.Abs(got-base) > 1e-15 {
		t.Fatalf("epoch 0: %g", got)
	}
	if got := CosineDecay(base, 499, 500); math.Abs(got) > 1e-12 {
		t.Fatalf("last epoch should be ~0: %g", got)
	}
	if got := CosineDecay(base, 600, 500); got != 0 {
		t.Fatalf("past-end should be 0: %g", got)
	}
	// Monotone non-increasing.
	prev := math.Inf(1)
	for e := 0; e < 500; e++ {
		v := CosineDecay(base, e, 500)
		if v > prev+1e-15 {
			t.Fatalf("decay not monotone at epoch %d", e)
		}
		prev = v
	}
}

func TestCosineDecayProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	f := func(e uint8, n uint8) bool {
		total := int(n)%100 + 2
		epoch := int(e) % total
		v := CosineDecay(0.001, epoch, total)
		return v >= 0 && v <= 0.001
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestClipGradNorm(t *testing.T) {
	w := ag.NewParam("w", tensor.New(1, 4))
	copy(w.Grad.Data, []float64{3, 4, 0, 0}) // norm 5
	norm := ClipGradNorm([]*ag.Param{w}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %g", norm)
	}
	post := 0.0
	for _, g := range w.Grad.Data {
		post += g * g
	}
	if math.Abs(math.Sqrt(post)-1) > 1e-12 {
		t.Fatalf("post-clip norm %g", math.Sqrt(post))
	}
	// Under the limit: unchanged.
	copy(w.Grad.Data, []float64{0.1, 0, 0, 0})
	ClipGradNorm([]*ag.Param{w}, 1)
	if w.Grad.Data[0] != 0.1 {
		t.Fatal("clip changed an in-bounds gradient")
	}
}

func TestScaleGrads(t *testing.T) {
	w := ag.NewParam("w", tensor.New(1, 2))
	copy(w.Grad.Data, []float64{2, 4})
	ScaleGrads([]*ag.Param{w}, 0.5)
	if w.Grad.Data[0] != 1 || w.Grad.Data[1] != 2 {
		t.Fatalf("scaled grads %v", w.Grad.Data)
	}
}
