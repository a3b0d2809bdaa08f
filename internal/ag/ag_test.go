package ag

import (
	"math"
	"math/rand"
	"testing"

	"predtop/internal/parallel"
	"predtop/internal/tensor"
)

const (
	gcEps = 1e-6
	gcTol = 1e-5
)

// gcGraphs are the graph sets every graph op is gradient-checked on: one
// graph alone on a standalone tape, and three ragged graphs, each on its own
// tape routed to one PanelGrads and folded once — the training step's shape.
// The checked loss is the sum of the graphs' losses.
var gcGraphs = []struct {
	name   string
	counts []int
}{
	{"B1", []int{4}},
	{"raggedB3", []int{2, 4, 3}},
}

func newRandParam(rng *rand.Rand, name string, r, c int) *Param {
	return NewParam(name, tensor.Randn(rng, r, c, 0.7))
}

// mse is the scalar loss of the gradient checks: mean (pred − target)².
func mse(ctx *Context, pred *Node, target *tensor.Tensor) *Node {
	return ctx.MeanAll(ctx.Square(ctx.Sub(pred, ctx.Const(target))))
}

// checkOp grad-checks a scalar loss built from the given params.
func checkOp(t *testing.T, params []*Param, build func(ctx *Context) *Node) {
	t.Helper()
	lossVal := func() float64 {
		ctx := NewContext()
		return build(ctx).V.At(0, 0)
	}
	grads := func() map[*Param]*tensor.Tensor {
		return CollectGrads(params, build)
	}
	if err := GradCheck(params, lossVal, grads, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

// checkGraphs runs a gradient check once per graph set in gcGraphs.
func checkGraphs(t *testing.T, run func(t *testing.T, rng *rand.Rand, counts []int)) {
	t.Helper()
	for i, c := range gcGraphs {
		t.Run(c.name, func(t *testing.T) { run(t, rand.New(rand.NewSource(int64(i+1))), c.counts) })
	}
}

// perGraph draws one random leaf parameter per graph, shaped by the graph's
// node count n.
func perGraph(rng *rand.Rand, name string, counts []int, shape func(g, n int) (int, int)) []*Param {
	ps := make([]*Param, len(counts))
	for g, n := range counts {
		r, c := shape(g, n)
		ps[g] = newRandParam(rng, name, r, c)
	}
	return ps
}

// checkTapes grad-checks Σ_g build(ctx, g), each graph g on a tape of its
// own. routed are the parameters of the parameter-carrying ops, shared by
// every graph; leaves are the rest (per-graph inputs through Context.Param).
// A single graph runs on a standalone tape that folds its own parts; several
// run on tapes routed to one PanelGrads, folded once.
func checkTapes(t *testing.T, counts []int, routed []*Param, leaves [][]*Param, build func(ctx *Context, g int) *Node) {
	t.Helper()
	params := append([]*Param(nil), routed...)
	for _, ls := range leaves {
		params = append(params, ls...)
	}
	lossVal := func() float64 {
		sum := 0.0
		for g := range counts {
			sum += build(NewContext(), g).V.At(0, 0)
		}
		return sum
	}
	grads := func() map[*Param]*tensor.Tensor {
		if len(counts) == 1 {
			return CollectGrads(params, func(ctx *Context) *Node { return build(ctx, 0) })
		}
		for _, p := range params {
			p.ZeroGrad()
		}
		pg := NewPanelGrads(routed, len(counts))
		for g := range counts {
			ctx := NewContext()
			ctx.RouteGrads(pg, g)
			ctx.Backward(build(ctx, g))
		}
		pg.Fold(len(counts))
		out := make(map[*Param]*tensor.Tensor, len(params))
		for _, p := range params {
			out[p] = p.Grad.Clone()
		}
		return out
	}
	if err := GradCheck(params, lossVal, grads, gcEps, gcTol); err != nil {
		t.Fatal(err)
	}
}

// cols returns the (n, c) shape of a graph's node tensors of width c.
func cols(c int) func(g, n int) (int, int) { return func(_, n int) (int, int) { return n, c } }

func TestMatMulGrad(t *testing.T) {
	checkGraphs(t, func(t *testing.T, rng *rand.Rand, counts []int) {
		// MatMulParam: node rows times a shared parameter matrix.
		xs := perGraph(rng, "x", counts, cols(3))
		p := newRandParam(rng, "p", 3, 2)
		checkTapes(t, counts, []*Param{p}, [][]*Param{xs}, func(ctx *Context, g int) *Node {
			return ctx.MeanAll(ctx.Square(ctx.MatMulParam(ctx.Param(xs[g]), p)))
		})
	})
}

func TestAddSubMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := newRandParam(rng, "a", 2, 3)
	b := newRandParam(rng, "b", 2, 3)
	checkOp(t, []*Param{a, b}, func(ctx *Context) *Node {
		na, nb := ctx.Param(a), ctx.Param(b)
		sum := ctx.Add(na, nb)
		dif := ctx.Sub(na, nb)
		prod := ctx.Mul(sum, dif)
		return ctx.MeanAll(ctx.Square(prod))
	})
	checkOp(t, []*Param{a}, func(ctx *Context) *Node {
		return ctx.MeanAll(ctx.Square(ctx.Scale(ctx.Scale(ctx.Param(a), -1.5), 0.3)))
	})
}

// TestAddBiasGrad checks the fused dense layer x·W + b: the input, the
// weights, and the bias row broadcast over every row.
func TestAddBiasGrad(t *testing.T) {
	checkGraphs(t, func(t *testing.T, rng *rand.Rand, counts []int) {
		xs := perGraph(rng, "x", counts, cols(3))
		w := newRandParam(rng, "w", 3, 2)
		b := newRandParam(rng, "b", 1, 2)
		checkTapes(t, counts, []*Param{w, b}, [][]*Param{xs}, func(ctx *Context, g int) *Node {
			return ctx.MeanAll(ctx.Square(ctx.Linear(ctx.Param(xs[g]), w, b)))
		})
	})
}

// TestAddOuterGrad checks the GAT logit sum a[i] + b[j] over every edge.
func TestAddOuterGrad(t *testing.T) {
	checkGraphs(t, func(t *testing.T, rng *rand.Rand, counts []int) {
		nbs := randomNeighbours(rng, counts)
		as := perGraph(rng, "a", counts, cols(1))
		bs := perGraph(rng, "b", counts, cols(1))
		checkTapes(t, counts, nil, [][]*Param{as, bs}, func(ctx *Context, g int) *Node {
			return ctx.MeanAll(ctx.Square(ctx.EdgeAddOuter(ctx.Param(as[g]), ctx.Param(bs[g]), nbs[g])))
		})
	})
}

func TestActivationGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := newRandParam(rng, "x", 3, 4)
	// Nudge values away from the ReLU kink to keep finite differences exact.
	for i := range x.V.Data {
		if math.Abs(x.V.Data[i]) < 1e-3 {
			x.V.Data[i] = 0.1
		}
	}
	checkOp(t, []*Param{x}, func(ctx *Context) *Node {
		return ctx.MeanAll(ctx.Square(ctx.ReLU(ctx.Param(x))))
	})
	checkOp(t, []*Param{x}, func(ctx *Context) *Node {
		return ctx.MeanAll(ctx.Square(ctx.LeakyReLU(ctx.Param(x), 0.2)))
	})
	checkOp(t, []*Param{x}, func(ctx *Context) *Node {
		return ctx.MeanAll(ctx.Abs(ctx.Param(x)))
	})
}

// TestAttentionGrad checks the fused attention op in q, k and v: two heads
// of width 3 (a k%4 tail in every product), unmasked and under each graph's
// own mask — the diagonal open, a third of the rest disabled, and the last
// graph's first row masked entirely, whose output and gradient must be zero,
// not NaN — and once as self-attention, q, k and v one node.
func TestAttentionGrad(t *testing.T) {
	for _, c := range []struct {
		name         string
		masked, self bool
	}{{"nomask", false, false}, {"masked", true, false}, {"self", true, true}} {
		t.Run(c.name, func(t *testing.T) {
			checkGraphs(t, func(t *testing.T, rng *rand.Rand, counts []int) {
				qs := perGraph(rng, "q", counts, cols(6))
				ks := perGraph(rng, "k", counts, cols(6))
				vs := perGraph(rng, "v", counts, cols(6))
				masks := make([]*tensor.Tensor, len(counts))
				for g, n := range counts {
					if !c.masked {
						break
					}
					m := tensor.New(n, n)
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							if i != j && rng.Intn(3) == 0 {
								m.Set(i, j, math.Inf(-1))
							}
						}
					}
					masks[g] = m
				}
				if c.masked {
					last := masks[len(masks)-1]
					for j := 0; j < last.C; j++ {
						last.Set(0, j, math.Inf(-1))
					}
				}
				leaves := [][]*Param{qs, ks, vs}
				if c.self {
					leaves = leaves[:1]
				}
				checkTapes(t, counts, nil, leaves, func(ctx *Context, g int) *Node {
					q, k, v := ctx.Param(qs[g]), ctx.Param(ks[g]), ctx.Param(vs[g])
					if c.self {
						k, v = q, q
					}
					return ctx.MeanAll(ctx.Square(ctx.Attention(q, k, v, 2, masks[g])))
				})
			})
		})
	}
}

// TestEdgeSoftmaxGrad checks the in-place softmax over each node's edges,
// run on a copy of x (the op overwrites its operand) and weighted by w as the
// attention·V aggregation does.
func TestEdgeSoftmaxGrad(t *testing.T) {
	checkGraphs(t, func(t *testing.T, rng *rand.Rand, counts []int) {
		nbs := randomNeighbours(rng, counts)
		xs := perGraph(rng, "x", counts, func(g, _ int) (int, int) { return nbs[g].Edges(), 1 })
		ws := perGraph(rng, "w", counts, cols(1))
		checkTapes(t, counts, nil, [][]*Param{xs, ws}, func(ctx *Context, g int) *Node {
			s := ctx.EdgeSoftmaxInPlace(ctx.Scale(ctx.Param(xs[g]), 1), nbs[g])
			return ctx.MeanAll(ctx.Square(ctx.EdgeAggregate(s, ctx.Param(ws[g]), nbs[g])))
		})
	})
}

func TestLayerNormGrad(t *testing.T) {
	checkGraphs(t, func(t *testing.T, rng *rand.Rand, counts []int) {
		xs := perGraph(rng, "x", counts, cols(6))
		g := NewParam("gamma", tensor.RandUniform(rng, 1, 6, 0.5, 1.5))
		b := newRandParam(rng, "beta", 1, 6)
		checkTapes(t, counts, []*Param{g, b}, [][]*Param{xs}, func(ctx *Context, k int) *Node {
			return ctx.MeanAll(ctx.Square(ctx.LayerNorm(ctx.Param(xs[k]), g, b, 1e-5)))
		})
	})
}

// TestConcatSliceGrad checks ConcatCols, whose backward slices each
// operand's columns out of the gradient; the weights make every column's
// gradient distinct.
func TestConcatSliceGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := newRandParam(rng, "a", 3, 2)
	b := newRandParam(rng, "b", 3, 4)
	w := tensor.Randn(rng, 3, 6, 1)
	checkOp(t, []*Param{a, b}, func(ctx *Context) *Node {
		cat := ctx.ConcatCols(ctx.Param(a), ctx.Param(b))
		return ctx.MeanAll(ctx.Square(ctx.Mul(cat, ctx.Const(w))))
	})
}

// TestSumMeanRowsGrad checks the global add pool, as a sum and scaled to a
// mean the way the models scale it by poolScale.
func TestSumMeanRowsGrad(t *testing.T) {
	checkGraphs(t, func(t *testing.T, rng *rand.Rand, counts []int) {
		xs := perGraph(rng, "x", counts, cols(3))
		checkTapes(t, counts, nil, [][]*Param{xs}, func(ctx *Context, g int) *Node {
			return ctx.MeanAll(ctx.Square(ctx.SumRows(ctx.Param(xs[g]))))
		})
		checkTapes(t, counts, nil, [][]*Param{xs}, func(ctx *Context, g int) *Node {
			return ctx.MeanAll(ctx.Square(ctx.Scale(ctx.SumRows(ctx.Param(xs[g])), 1.0/64)))
		})
	})
}

// TestAdjMatMulGrad checks the edge-weighted aggregation in both its uses:
// the GCN's Â·X with the graph's own constant edge weights, and the GAT's
// attention·V, whose weights take gradient too.
func TestAdjMatMulGrad(t *testing.T) {
	checkGraphs(t, func(t *testing.T, rng *rand.Rand, counts []int) {
		nbs := randomNeighbours(rng, counts)
		xs := perGraph(rng, "x", counts, cols(3))
		ws := perGraph(rng, "w", counts, func(g, _ int) (int, int) { return nbs[g].Edges(), 1 })
		checkTapes(t, counts, nil, [][]*Param{xs}, func(ctx *Context, g int) *Node {
			return ctx.MeanAll(ctx.Square(ctx.EdgeAggregate(ctx.Const(ws[g].V), ctx.Param(xs[g]), nbs[g])))
		})
		checkTapes(t, counts, nil, [][]*Param{ws, xs}, func(ctx *Context, g int) *Node {
			return ctx.MeanAll(ctx.Square(ctx.EdgeAggregate(ctx.Param(ws[g]), ctx.Param(xs[g]), nbs[g])))
		})
	})
}

// TestLossGrads checks the per-graph training losses exactly as Train
// composes them — |pred − target| and (pred − target)² of each graph's 1×1
// head output, with no mean reduction, each graph on a tape routed to one
// PanelGrads — against finite differences of their sum.
func TestLossGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := newRandParam(rng, "w", 4, 1)
	b := newRandParam(rng, "b", 1, 1)
	counts := []int{1, 1, 1}
	xs := []*tensor.Tensor{tensor.Randn(rng, 1, 4, 1), tensor.Randn(rng, 1, 4, 1), tensor.Randn(rng, 1, 4, 1)}
	ys := []*tensor.Tensor{tensor.Randn(rng, 1, 1, 1), tensor.Randn(rng, 1, 1, 1), tensor.Randn(rng, 1, 1, 1)}
	for _, sq := range []bool{false, true} {
		t.Run(map[bool]string{false: "MAE", true: "MSE"}[sq], func(t *testing.T) {
			checkTapes(t, counts, []*Param{w, b}, nil, func(ctx *Context, g int) *Node {
				diff := ctx.Sub(ctx.Linear(ctx.Const(xs[g]), w, b), ctx.Const(ys[g]))
				if sq {
					return ctx.Square(diff)
				}
				return ctx.Abs(diff)
			})
		})
	}
}

// TestParamGradPanelFoldBitwise pins the one-accumulator contract: five
// ragged graphs, each on a tape routed to one PanelGrads and folded once,
// leave Param.Grad equal, bit for bit, to parallel.TreeReduce over the
// Param.Grad each graph produces on a standalone tape, for every parameter of
// the three parameter-carrying ops. Five graphs make the tree differ from a
// serial fold.
func TestParamGradPanelFoldBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	counts := []int{2, 4, 3, 1, 4}
	w := newRandParam(rng, "w", 3, 2)
	b := newRandParam(rng, "b", 1, 2)
	gamma := NewParam("gamma", tensor.RandUniform(rng, 1, 2, 0.5, 1.5))
	beta := newRandParam(rng, "beta", 1, 2)
	p := newRandParam(rng, "p", 2, 2)
	params := []*Param{w, b, gamma, beta, p}
	xs := make([]*tensor.Tensor, len(counts))
	for g, n := range counts {
		xs[g] = tensor.Randn(rng, n, 3, 1)
	}
	run := func(ctx *Context, g int) {
		h := ctx.LayerNorm(ctx.Linear(ctx.Const(xs[g]), w, b), gamma, beta, 1e-5)
		ctx.BackwardVec(ctx.Square(ctx.SumRows(ctx.MatMulParam(h, p))))
	}
	zero := func() {
		for _, p := range params {
			p.ZeroGrad()
		}
	}

	zero()
	pg := NewPanelGrads(params, len(counts))
	for g := range counts {
		ctx := NewContext()
		ctx.RouteGrads(pg, g)
		run(ctx, g)
	}
	pg.Fold(len(counts))
	got := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		got[i] = p.Grad.Clone()
	}

	alone := make([][]*tensor.Tensor, len(params))
	for g := range counts {
		zero()
		run(NewContext(), g)
		for i, p := range params {
			if p.Grad.MaxAbs() == 0 {
				t.Fatalf("graph %d: no gradient for %s", g, p.Name)
			}
			alone[i] = append(alone[i], p.Grad.Clone())
		}
	}
	for i, p := range params {
		want := parallel.TreeReduce(alone[i], func(a, b *tensor.Tensor) *tensor.Tensor {
			tensor.AddInPlace(a, b)
			return a
		})
		for j := range want.Data {
			if math.Float64bits(got[i].Data[j]) != math.Float64bits(want.Data[j]) {
				t.Fatalf("%s[%d]: routed fold %v != tree over standalone tapes %v", p.Name, j, got[i].Data[j], want.Data[j])
			}
		}
	}
}

func TestParamReuseAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	w := newRandParam(rng, "w", 2, 2)
	// Using the same parameter twice must accumulate both gradient paths.
	checkOp(t, []*Param{w}, func(ctx *Context) *Node {
		n := ctx.Param(w)
		return ctx.MeanAll(ctx.Square(ctx.Mul(n, n)))
	})
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar loss")
		}
	}()
	ctx := NewContext()
	n := ctx.Const(tensor.New(2, 2))
	ctx.Backward(n)
}

func TestConstHasNoGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ctx := NewContext()
	cst := ctx.Const(tensor.Randn(rng, 2, 2, 1))
	w := newRandParam(rng, "w", 2, 2)
	loss := ctx.MeanAll(ctx.Square(ctx.Mul(cst, ctx.Param(w))))
	ctx.Backward(loss)
	if cst.grad != nil && cst.grad.MaxAbs() != 0 {
		t.Fatal("constant should not receive gradient")
	}
	if w.Grad.MaxAbs() == 0 {
		t.Fatal("parameter gradient should be nonzero")
	}
}

// splitGraphs is the fixed input of TestPanelGradsRoutedTapesBitwise: five
// ragged graphs with their own rows, attention masks and scalar targets.
type splitGraphs struct {
	xs, masks, targets []*tensor.Tensor
}

// graphRun records graph g of sg on ctx and runs its loss |pred − target|
// through BackwardVec — the training step's shape.
func graphRun(ctx *Context, ps []*Param, sg *splitGraphs, g int) {
	w1, b1, gamma, beta, p, w2, b2 := ps[0], ps[1], ps[2], ps[3], ps[4], ps[5], ps[6]
	h := ctx.LayerNorm(ctx.Linear(ctx.Const(sg.xs[g]), w1, b1), gamma, beta, 1e-5)
	h = ctx.MatMulParam(ctx.Attention(h, h, h, 2, sg.masks[g]), p)
	pred := ctx.Linear(ctx.LeakyReLU(ctx.SumRows(h), 0.1), w2, b2)
	ctx.BackwardVec(ctx.Abs(ctx.Sub(pred, ctx.Const(sg.targets[g]))))
}

// TestPanelGradsRoutedTapesBitwise pins the fan-out contract the trainer
// relies on: five ragged graphs on tapes routed to one PanelGrads and folded
// once end with the same Param.Grad bits whatever the worker count, the
// order graphs are claimed in and the tape each lands on — serially in
// position order, largest first or reversed on two and five workers sharing
// recycled tapes — SIMD kernels on and off. The reference is the tree over
// standalone tapes.
func TestPanelGradsRoutedTapesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	sg := &splitGraphs{}
	counts := []int{2, 4, 3, 1, 4}
	for _, n := range counts {
		sg.xs = append(sg.xs, tensor.Randn(rng, n, 3, 1))
		mask := tensor.New(n, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				mask.Set(i, j, math.Inf(-1)) // causal, like a DAG reachability mask
			}
		}
		sg.masks = append(sg.masks, mask)
		sg.targets = append(sg.targets, tensor.Full(1, 1, rng.Float64()))
	}
	ps := []*Param{
		newRandParam(rng, "w1", 3, 4),
		newRandParam(rng, "b1", 1, 4),
		NewParam("gamma", tensor.RandUniform(rng, 1, 4, 0.5, 1.5)),
		newRandParam(rng, "beta", 1, 4),
		newRandParam(rng, "p", 4, 3),
		newRandParam(rng, "w2", 3, 1),
		newRandParam(rng, "b2", 1, 1),
	}
	grads := func(run func()) []*tensor.Tensor {
		for _, p := range ps {
			p.ZeroGrad()
		}
		run()
		out := make([]*tensor.Tensor, len(ps))
		for i, p := range ps {
			if p.Grad.MaxAbs() == 0 {
				t.Fatalf("no gradient for %s", p.Name)
			}
			out[i] = p.Grad.Clone()
		}
		return out
	}
	standalone := func() {
		parts := make([][]*tensor.Tensor, len(ps))
		for g := range counts {
			for _, p := range ps {
				p.ZeroGrad()
			}
			graphRun(NewContext(), ps, sg, g)
			for i, p := range ps {
				parts[i] = append(parts[i], p.Grad.Clone())
			}
		}
		for i, p := range ps {
			copy(p.Grad.Data, parallel.TreeReduce(parts[i], func(a, b *tensor.Tensor) *tensor.Tensor {
				tensor.AddInPlace(a, b)
				return a
			}).Data)
		}
	}
	routed := func(order []int, workers int) func() {
		return func() {
			pg := NewPanelGrads(ps, len(counts))
			tapes := make(chan *Context, workers)
			for range workers {
				tapes <- NewContext()
			}
			parallel.ForLimit(len(order), workers, func(j int) {
				ctx := <-tapes
				ctx.Reset()
				ctx.RouteGrads(pg, order[j])
				graphRun(ctx, ps, sg, order[j])
				tapes <- ctx
			})
			pg.Fold(len(counts))
		}
	}
	defer tensor.SetSIMD(tensor.SIMDEnabled())
	simdModes := []bool{tensor.SIMDEnabled()}
	if tensor.SIMDAvailable() {
		simdModes = []bool{true, false}
	}
	for _, simd := range simdModes {
		tensor.SetSIMD(simd)
		want := grads(standalone)
		for name, run := range map[string]func(){
			"serial":          routed([]int{0, 1, 2, 3, 4}, 1),
			"largest-first×2": routed([]int{1, 4, 2, 0, 3}, 2),
			"reversed×5":      routed([]int{4, 3, 2, 1, 0}, 5),
		} {
			got := grads(run)
			for i, p := range ps {
				for j := range want[i].Data {
					if math.Float64bits(got[i].Data[j]) != math.Float64bits(want[i].Data[j]) {
						t.Fatalf("simd=%v %s: %s[%d] %v != standalone tree %v", simd, name, p.Name, j, got[i].Data[j], want[i].Data[j])
					}
				}
			}
		}
	}
}

// TestParamInTwoSegmentedOpsPanics: a standalone tape keeps one part per
// parameter, so a parameter entering a second parameter-carrying op would
// overwrite its first part; the tape refuses instead of dropping a gradient.
func TestParamInTwoSegmentedOpsPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	w := newRandParam(rng, "w", 2, 2)
	ctx := NewContext()
	h := ctx.MatMulParam(ctx.MatMulParam(ctx.Const(tensor.Randn(rng, 3, 2, 1)), w), w)
	defer func() {
		if recover() == nil {
			t.Fatal("a parameter in two parameter-carrying ops did not panic")
		}
	}()
	ctx.BackwardVec(h)
}

// TestRoutedParamInTwoSegmentedOpsPanics: a routed tape has one PanelGrads
// slot per (parameter, graph), so the same double entry would overwrite the
// slot's first part; it refuses too.
func TestRoutedParamInTwoSegmentedOpsPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	w := newRandParam(rng, "w", 2, 2)
	ctx := NewContext()
	ctx.RouteGrads(NewPanelGrads([]*Param{w}, 2), 1)
	h := ctx.MatMulParam(ctx.MatMulParam(ctx.Const(tensor.Randn(rng, 3, 2, 1)), w), w)
	defer func() {
		if recover() == nil {
			t.Fatal("a parameter in two parameter-carrying ops on a routed tape did not panic")
		}
	}()
	ctx.BackwardVec(h)
}
