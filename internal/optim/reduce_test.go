package optim

import (
	"math"
	"math/rand"
	"testing"

	"predtop/internal/ag"
	"predtop/internal/parallel"
	"predtop/internal/tensor"
)

// linearProblem is a tiny two-parameter regression used to exercise the
// sharded-gradient path: loss_k = MSE(x_k·W + b, y_k) per sample.
type linearProblem struct {
	w, b   *ag.Param
	xs, ys []*tensor.Tensor
}

func newLinearProblem(seed int64, samples int) *linearProblem {
	rng := rand.New(rand.NewSource(seed))
	randT := func(r, c int) *tensor.Tensor {
		out := tensor.New(r, c)
		for i := range out.Data {
			out.Data[i] = rng.NormFloat64()
		}
		return out
	}
	p := &linearProblem{
		w: ag.NewParam("w", randT(2, 3)),
		b: ag.NewParam("b", randT(1, 3)),
	}
	for k := 0; k < samples; k++ {
		p.xs = append(p.xs, randT(4, 2))
		p.ys = append(p.ys, randT(4, 3))
	}
	return p
}

func (p *linearProblem) params() []*ag.Param { return []*ag.Param{p.w, p.b} }

func (p *linearProblem) sampleLoss(ctx *ag.Context, k int) *ag.Node {
	x := p.xs[k]
	pred := ctx.SegLinear(ctx.Const(x), p.w, p.b, tensor.BatchLayout{B: 1, Stride: x.R, Counts: []int{x.R}})
	return mse(ctx, pred, p.ys[k])
}

// mse is mean (pred − target)² as a scalar node.
func mse(ctx *ag.Context, pred *ag.Node, target *tensor.Tensor) *ag.Node {
	return ctx.MeanAll(ctx.Square(ctx.Sub(pred, ctx.Const(target))))
}

func (p *linearProblem) totalLoss(ctx *ag.Context) *ag.Node {
	var sum *ag.Node
	for k := range p.xs {
		l := p.sampleLoss(ctx, k)
		if sum == nil {
			sum = l
		} else {
			sum = ctx.Add(sum, l)
		}
	}
	return sum
}

// shardedGrads runs one backward pass per sample on its own buffered tape
// (concurrently, like the training loop) and reduces into Param.Grad.
func (p *linearProblem) shardedGrads(workers int) {
	params := p.params()
	zeroGrads(params)
	bufs := make([]*ag.GradBuffer, len(p.xs))
	for k := range bufs {
		bufs[k] = ag.NewGradBuffer(params)
	}
	parallel.ForLimit(len(p.xs), workers, func(k int) {
		ctx := ag.NewContext()
		ctx.SetShards(bufs[k : k+1])
		ctx.Backward(p.sampleLoss(ctx, k))
	})
	ReduceGrads(params, bufs)
}

// TestReduceGradsMatchesSingleTape compares the sharded accumulation path
// (per-sample buffered tapes + ReduceGrads) against one monolithic tape
// summing all sample losses. The per-sample loss graphs are identical in
// both schemes, so the only float-ordering freedom is the reduction tree;
// the comparison tolerance is a few ULP.
func TestReduceGradsMatchesSingleTape(t *testing.T) {
	for _, samples := range []int{1, 2, 5, 8} {
		p := newLinearProblem(11, samples)
		params := p.params()

		zeroGrads(params)
		ctx := ag.NewContext()
		ctx.Backward(p.totalLoss(ctx))
		want := make([][]float64, len(params))
		for i, pr := range params {
			want[i] = pr.Grad.Clone().Data
		}

		for _, workers := range []int{1, 4} {
			p.shardedGrads(workers)
			for i, pr := range params {
				for j, g := range pr.Grad.Data {
					if diff := math.Abs(g - want[i][j]); diff > 1e-12*(1+math.Abs(want[i][j])) {
						t.Fatalf("samples=%d workers=%d %s[%d]: sharded %v single %v",
							samples, workers, pr.Name, j, g, want[i][j])
					}
				}
			}
		}
	}
}

// TestShardedGradsDeterministicAcrossWorkers demands bitwise identity, not
// tolerance: the same shard set reduced under different worker counts must
// produce the exact same bits in Param.Grad.
func TestShardedGradsDeterministicAcrossWorkers(t *testing.T) {
	p := newLinearProblem(7, 6)
	params := p.params()

	p.shardedGrads(1)
	want := make([][]float64, len(params))
	for i, pr := range params {
		want[i] = pr.Grad.Clone().Data
	}
	for _, workers := range []int{2, 3, 8} {
		p.shardedGrads(workers)
		for i, pr := range params {
			for j, g := range pr.Grad.Data {
				if math.Float64bits(g) != math.Float64bits(want[i][j]) {
					t.Fatalf("workers=%d %s[%d]: %x != %x", workers, pr.Name, j,
						math.Float64bits(g), math.Float64bits(want[i][j]))
				}
			}
		}
	}
}

// TestShardedGradsAgainstFiniteDifferences validates the sharded path end to
// end against numeric gradients of the summed loss.
func TestShardedGradsAgainstFiniteDifferences(t *testing.T) {
	p := newLinearProblem(3, 4)
	params := p.params()

	lossValue := func() float64 {
		ctx := ag.NewContext()
		return p.totalLoss(ctx).Value().At(0, 0)
	}
	shardedSnapshot := func() map[*ag.Param]*tensor.Tensor {
		p.shardedGrads(4)
		out := make(map[*ag.Param]*tensor.Tensor, len(params))
		for _, pr := range params {
			out[pr] = pr.Grad.Clone()
		}
		return out
	}
	if err := ag.GradCheck(params, lossValue, shardedSnapshot, 1e-6, 1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestReduceGradsAccumulates checks ReduceGrads adds on top of existing
// Param.Grad contents instead of overwriting them (gradient accumulation
// across micro-batches).
func TestReduceGradsAccumulates(t *testing.T) {
	p := newLinearProblem(5, 2)
	params := p.params()
	zeroGrads(params)
	for _, pr := range params {
		for j := range pr.Grad.Data {
			pr.Grad.Data[j] = 1
		}
	}
	bufs := []*ag.GradBuffer{ag.NewGradBuffer(params)}
	ctx := ag.NewContext()
	ctx.SetShards(bufs)
	ctx.Backward(p.sampleLoss(ctx, 0))
	ReduceGrads(params, bufs)

	p2 := newLinearProblem(5, 2) // identical seed → identical problem
	params2 := p2.params()
	zeroGrads(params2)
	ctx2 := ag.NewContext()
	ctx2.Backward(p2.sampleLoss(ctx2, 0))

	for i, pr := range params {
		for j, g := range pr.Grad.Data {
			want := params2[i].Grad.Data[j] + 1
			if math.Abs(g-want) > 1e-15*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: got %v want %v", pr.Name, j, g, want)
			}
		}
	}
}

func zeroGrads(params []*ag.Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}
