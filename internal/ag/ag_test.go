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

// gcLayouts are the panel layouts every segmented/panel op is
// gradient-checked under: one graph alone (B=1, no padding) and a ragged
// batch of three whose panels pad to the widest. Stacked inputs carry random
// values in their pad rows and columns too, so the check also proves padding
// reaches neither a value nor a gradient: the finite difference of a pad
// entry is exactly zero and so must the analytic gradient be.
var gcLayouts = []struct {
	name string
	l    tensor.BatchLayout
}{
	{"B1", tensor.BatchLayout{B: 1, Stride: 4, Counts: []int{4}}},
	{"raggedB3", tensor.BatchLayout{B: 3, Stride: 4, Counts: []int{2, 4, 3}}},
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

// checkPanelOp runs checkOp once per layout in gcLayouts.
func checkPanelOp(t *testing.T, run func(t *testing.T, rng *rand.Rand, l tensor.BatchLayout)) {
	t.Helper()
	for i, c := range gcLayouts {
		t.Run(c.name, func(t *testing.T) { run(t, rand.New(rand.NewSource(int64(i+1))), c.l) })
	}
}

// graphTensors returns one c×c constant per panel (c the panel's own node
// count): the shape of a per-graph mask.
func graphTensors(l tensor.BatchLayout, fill func(c int) *tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, l.B)
	for g, c := range l.Counts {
		out[g] = fill(c)
	}
	return out
}

func TestMatMulGrad(t *testing.T) {
	checkPanelOp(t, func(t *testing.T, rng *rand.Rand, l tensor.BatchLayout) {
		// SegMatMul: stacked rows times a shared parameter matrix.
		x := newRandParam(rng, "x", l.Rows(), 3)
		p := newRandParam(rng, "p", 3, 2)
		checkOp(t, []*Param{x, p}, func(ctx *Context) *Node {
			return ctx.MeanAll(ctx.Square(ctx.SegMatMul(ctx.Param(x), p, l)))
		})
		// PanelMatMul: panel-width weights times the panel's own stacked rows.
		a := newRandParam(rng, "a", l.Rows(), l.Stride)
		v := newRandParam(rng, "v", l.Rows(), 3)
		checkOp(t, []*Param{a, v}, func(ctx *Context) *Node {
			return ctx.MeanAll(ctx.Square(ctx.PanelMatMul(ctx.Param(a), ctx.Param(v), l)))
		})
	})
}

func TestMatMulBTGrad(t *testing.T) {
	checkPanelOp(t, func(t *testing.T, rng *rand.Rand, l tensor.BatchLayout) {
		a := newRandParam(rng, "a", l.Rows(), 5)
		b := newRandParam(rng, "b", l.Rows(), 5)
		checkOp(t, []*Param{a, b}, func(ctx *Context) *Node {
			return ctx.MeanAll(ctx.Square(ctx.PanelMatMulBT(ctx.Param(a), ctx.Param(b), l)))
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
		// ScaleInPlace overwrites its operand's buffer, so it scales a copy.
		return ctx.MeanAll(ctx.Square(ctx.ScaleInPlace(ctx.Scale(ctx.Param(a), -1.5), 0.3)))
	})
}

// TestAddBiasGrad checks the fused dense layer x·W + b: the input, the
// weights, and the bias row broadcast over every real row.
func TestAddBiasGrad(t *testing.T) {
	checkPanelOp(t, func(t *testing.T, rng *rand.Rand, l tensor.BatchLayout) {
		x := newRandParam(rng, "x", l.Rows(), 3)
		w := newRandParam(rng, "w", 3, 2)
		b := newRandParam(rng, "b", 1, 2)
		checkOp(t, []*Param{x, w, b}, func(ctx *Context) *Node {
			return ctx.MeanAll(ctx.Square(ctx.SegLinear(ctx.Param(x), w, b, l)))
		})
	})
}

// TestAddOuterGrad checks the GAT logit sum a[i] + b[j] over every edge.
func TestAddOuterGrad(t *testing.T) {
	checkPanelOp(t, func(t *testing.T, rng *rand.Rand, l tensor.BatchLayout) {
		nbrs := randomNeighbours(rng, l)
		a := newRandParam(rng, "a", l.Rows(), 1)
		b := newRandParam(rng, "b", l.Rows(), 1)
		checkOp(t, []*Param{a, b}, func(ctx *Context) *Node {
			return ctx.MeanAll(ctx.Square(ctx.EdgeAddOuter(ctx.Param(a), ctx.Param(b), nbrs, l)))
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
		return ctx.MeanAll(ctx.Square(ctx.Tanh(ctx.Param(x))))
	})
	checkOp(t, []*Param{x}, func(ctx *Context) *Node {
		return ctx.MeanAll(ctx.Abs(ctx.Param(x)))
	})
}

// softmaxLoss runs the in-place panel softmax over a copy of x (the op
// overwrites its operand) and weights the attention rows by w, as the
// attention·V product does.
func softmaxLoss(ctx *Context, x, w *Param, masks []*tensor.Tensor, l tensor.BatchLayout) *Node {
	s := ctx.PanelSoftmaxInPlace(ctx.Scale(ctx.Param(x), 1), masks, l)
	return ctx.MeanAll(ctx.Square(ctx.PanelMatMul(s, ctx.Param(w), l)))
}

func TestSoftmaxGrad(t *testing.T) {
	checkPanelOp(t, func(t *testing.T, rng *rand.Rand, l tensor.BatchLayout) {
		x := newRandParam(rng, "x", l.Rows(), l.Stride)
		w := newRandParam(rng, "w", l.Rows(), 1)
		checkOp(t, []*Param{x, w}, func(ctx *Context) *Node {
			return softmaxLoss(ctx, x, w, nil, l)
		})
	})
}

func TestSoftmaxMaskedGrad(t *testing.T) {
	checkPanelOp(t, func(t *testing.T, rng *rand.Rand, l tensor.BatchLayout) {
		x := newRandParam(rng, "x", l.Rows(), l.Stride)
		w := newRandParam(rng, "w", l.Rows(), 1)
		// Each graph's own c×c mask: the diagonal stays open, a third of the
		// rest is disabled, and the last graph's first row is masked entirely
		// (its output and gradient must be zero, not NaN).
		masks := graphTensors(l, func(c int) *tensor.Tensor {
			m := tensor.New(c, c)
			for i := 0; i < c; i++ {
				for j := 0; j < c; j++ {
					if i != j && rng.Intn(3) == 0 {
						m.Set(i, j, math.Inf(-1))
					}
				}
			}
			return m
		})
		last := masks[l.B-1]
		for j := 0; j < last.C; j++ {
			last.Set(0, j, math.Inf(-1))
		}
		checkOp(t, []*Param{x, w}, func(ctx *Context) *Node {
			return softmaxLoss(ctx, x, w, masks, l)
		})
	})
}

// TestEdgeSoftmaxGrad checks the in-place softmax over each node's edges,
// run on a copy of x (the op overwrites its operand) and weighted by w as the
// attention·V aggregation does.
func TestEdgeSoftmaxGrad(t *testing.T) {
	checkPanelOp(t, func(t *testing.T, rng *rand.Rand, l tensor.BatchLayout) {
		nbrs := randomNeighbours(rng, l)
		x := newRandParam(rng, "x", tensor.EdgeCount(nbrs), 1)
		w := newRandParam(rng, "w", l.Rows(), 1)
		checkOp(t, []*Param{x, w}, func(ctx *Context) *Node {
			s := ctx.EdgeSoftmaxInPlace(ctx.Scale(ctx.Param(x), 1), nbrs)
			return ctx.MeanAll(ctx.Square(ctx.EdgeAggregate(s, ctx.Param(w), nbrs, l)))
		})
	})
}

func TestLayerNormGrad(t *testing.T) {
	checkPanelOp(t, func(t *testing.T, rng *rand.Rand, l tensor.BatchLayout) {
		x := newRandParam(rng, "x", l.Rows(), 6)
		g := NewParam("gamma", tensor.RandUniform(rng, 1, 6, 0.5, 1.5))
		b := newRandParam(rng, "beta", 1, 6)
		checkOp(t, []*Param{x, g, b}, func(ctx *Context) *Node {
			return ctx.MeanAll(ctx.Square(ctx.SegLayerNorm(ctx.Param(x), g, b, 1e-5, l)))
		})
	})
}

func TestConcatSliceGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := newRandParam(rng, "a", 3, 2)
	b := newRandParam(rng, "b", 3, 4)
	checkOp(t, []*Param{a, b}, func(ctx *Context) *Node {
		cat := ctx.ConcatCols(ctx.Param(a), ctx.Param(b))
		left := ctx.SliceCols(cat, 0, 3)
		return ctx.MeanAll(ctx.Square(left))
	})
}

// TestSumMeanRowsGrad checks the per-panel pooling, as a sum and scaled to a
// mean the way the models scale it by poolScale.
func TestSumMeanRowsGrad(t *testing.T) {
	checkPanelOp(t, func(t *testing.T, rng *rand.Rand, l tensor.BatchLayout) {
		x := newRandParam(rng, "x", l.Rows(), 3)
		checkOp(t, []*Param{x}, func(ctx *Context) *Node {
			return ctx.MeanAll(ctx.Square(ctx.SegSumRows(ctx.Param(x), l)))
		})
		checkOp(t, []*Param{x}, func(ctx *Context) *Node {
			return ctx.MeanAll(ctx.Square(ctx.Scale(ctx.SegSumRows(ctx.Param(x), l), 1.0/64)))
		})
	})
}

// TestAdjMatMulGrad checks the edge-weighted aggregation in both its uses:
// the GCN's Â_g·X_g with each graph's own constant edge weights, and the
// GAT's attention·V, whose weights take gradient too.
func TestAdjMatMulGrad(t *testing.T) {
	checkPanelOp(t, func(t *testing.T, rng *rand.Rand, l tensor.BatchLayout) {
		nbrs := randomNeighbours(rng, l)
		x := newRandParam(rng, "x", l.Rows(), 3)
		w := newRandParam(rng, "w", tensor.EdgeCount(nbrs), 1)
		checkOp(t, []*Param{x}, func(ctx *Context) *Node {
			return ctx.MeanAll(ctx.Square(ctx.EdgeAggregate(ctx.Const(w.V), ctx.Param(x), nbrs, l)))
		})
		checkOp(t, []*Param{w, x}, func(ctx *Context) *Node {
			return ctx.MeanAll(ctx.Square(ctx.EdgeAggregate(ctx.Param(w), ctx.Param(x), nbrs, l)))
		})
	})
}

// TestLossGrads checks the per-row training losses exactly as Train composes
// them — |pred − target| and (pred − target)² with no mean reduction, seeded
// row by row through BackwardVec — against finite differences of their sum.
func TestLossGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := newRandParam(rng, "w", 4, 1)
	b := newRandParam(rng, "b", 1, 1)
	l := tensor.BatchLayout{B: 3, Stride: 1, Counts: []int{1, 1, 1}} // stride-1 head layout
	x := tensor.Randn(rng, 3, 4, 1)
	y := tensor.Randn(rng, 3, 1, 1)
	params := []*Param{w, b}
	for _, square := range []bool{false, true} {
		build := func(ctx *Context) *Node {
			diff := ctx.Sub(ctx.SegLinear(ctx.Const(x), w, b, l), ctx.Const(y))
			if square {
				return ctx.Square(diff)
			}
			return ctx.Abs(diff)
		}
		lossVal := func() float64 { return build(NewContext()).V.Sum() }
		grads := func() map[*Param]*tensor.Tensor {
			for _, p := range params {
				p.ZeroGrad()
			}
			ctx := NewContext()
			ctx.BackwardVec(build(ctx))
			return map[*Param]*tensor.Tensor{w: w.Grad.Clone(), b: b.Grad.Clone()}
		}
		if err := GradCheck(params, lossVal, grads, gcEps, gcTol); err != nil {
			t.Fatalf("square=%v: %v", square, err)
		}
	}
}

// TestParamGradPanelFoldBitwise pins the one-accumulator contract: a
// B-graph tape's Param.Grad equals, bit for bit, parallel.TreeReduce over
// the Param.Grad each graph produces alone at B=1, for every parameter of the
// three segmented ops that carry them. Five panels make the tree differ from
// a serial fold.
func TestParamGradPanelFoldBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := tensor.BatchLayout{B: 5, Stride: 4, Counts: []int{2, 4, 3, 1, 4}}
	w := newRandParam(rng, "w", 3, 2)
	b := newRandParam(rng, "b", 1, 2)
	gamma := NewParam("gamma", tensor.RandUniform(rng, 1, 2, 0.5, 1.5))
	beta := newRandParam(rng, "beta", 1, 2)
	p := newRandParam(rng, "p", 2, 2)
	params := []*Param{w, b, gamma, beta, p}
	x := tensor.Randn(rng, l.Rows(), 3, 1)
	grads := func(x *tensor.Tensor, l tensor.BatchLayout) []*tensor.Tensor {
		for _, p := range params {
			p.ZeroGrad()
		}
		ctx := NewContext()
		h := ctx.SegLayerNorm(ctx.SegLinear(ctx.Const(x), w, b, l), gamma, beta, 1e-5, l)
		ctx.BackwardVec(ctx.Square(ctx.SegSumRows(ctx.SegMatMul(h, p, l), l)))
		out := make([]*tensor.Tensor, len(params))
		for i, p := range params {
			out[i] = p.Grad.Clone()
		}
		return out
	}

	got := grads(x, l)
	alone := make([][]*tensor.Tensor, len(params))
	for g, c := range l.Counts {
		xg := tensor.New(c, 3)
		copy(xg.Data, x.Data[g*l.Stride*3:(g*l.Stride+c)*3])
		for i, gr := range grads(xg, tensor.BatchLayout{B: 1, Stride: c, Counts: []int{c}}) {
			if gr.MaxAbs() == 0 {
				t.Fatalf("panel %d: no gradient for %s", g, params[i].Name)
			}
			alone[i] = append(alone[i], gr)
		}
	}
	for i, p := range params {
		want := parallel.TreeReduce(alone[i], func(a, b *tensor.Tensor) *tensor.Tensor {
			tensor.AddInPlace(a, b)
			return a
		})
		for j := range want.Data {
			if math.Float64bits(got[i].Data[j]) != math.Float64bits(want.Data[j]) {
				t.Fatalf("%s[%d]: B=%d tape %v != tree over B=1 tapes %v", p.Name, j, l.B, got[i].Data[j], want.Data[j])
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
	if cst.Grad() != nil && cst.Grad().MaxAbs() != 0 {
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

// stackRun records graphs [lo, hi) of sg on ctx as one padded tape whose
// stride is pad rows wider than its largest graph, and runs the per-graph
// loss |pred − target| through BackwardVec — the training step's shape.
func stackRun(ctx *Context, ps []*Param, sg *splitGraphs, lo, hi, pad int) {
	w1, b1, gamma, beta, p, w2, b2 := ps[0], ps[1], ps[2], ps[3], ps[4], ps[5], ps[6]
	l := tensor.BatchLayout{B: hi - lo}
	for _, x := range sg.xs[lo:hi] {
		l.Counts = append(l.Counts, x.R)
		l.Stride = max(l.Stride, x.R+pad)
	}
	x := tensor.New(l.Rows(), sg.xs[0].C)
	targets := tensor.New(l.B, 1)
	for g, xg := range sg.xs[lo:hi] {
		copy(x.Data[g*l.Stride*x.C:], xg.Data)
		targets.Data[g] = sg.targets[lo+g].Data[0]
	}
	ones := make([]int, l.B)
	for i := range ones {
		ones[i] = 1
	}
	hl := tensor.BatchLayout{B: l.B, Stride: 1, Counts: ones}
	h := ctx.SegLayerNorm(ctx.SegLinear(ctx.Const(x), w1, b1, l), gamma, beta, 1e-5, l)
	attn := ctx.PanelSoftmaxInPlace(ctx.ScaleInPlace(ctx.PanelMatMulBT(h, h, l), 0.5), sg.masks[lo:hi], l)
	h = ctx.SegMatMul(ctx.PanelMatMul(attn, h, l), p, l)
	pred := ctx.SegLinear(ctx.Tanh(ctx.SegSumRows(h, l)), w2, b2, hl)
	ctx.BackwardVec(ctx.Abs(ctx.Sub(pred, ctx.Const(targets))))
}

// TestPanelGradsRoutedTapesBitwise pins the split-tape contract the trainer
// relies on: five ragged graphs run as one standalone tape, as a 2+3 pair of
// tapes and as five B=1 tapes (concurrently, on goroutines of their own),
// the split tapes routed to one PanelGrads at their global panel offsets and
// folded once, end with bit-equal Param.Grad — SIMD kernels on and off. Five
// panels make the fold's tree differ from a serial sum, so a tape that folded
// its own parts would break the equality.
func TestPanelGradsRoutedTapesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	sg := &splitGraphs{}
	for _, n := range []int{2, 4, 3, 1, 4} {
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
	routed := func(splits [][2]int) func() {
		return func() {
			pg := NewPanelGrads(ps, len(sg.xs))
			parallel.ForLimit(len(splits), len(splits), func(i int) {
				ctx := NewContext()
				ctx.RouteGrads(pg, splits[i][0])
				stackRun(ctx, ps, sg, splits[i][0], splits[i][1], i%2)
			})
			pg.Fold(len(sg.xs))
		}
	}
	defer tensor.SetSIMD(tensor.SIMDEnabled())
	simdModes := []bool{tensor.SIMDEnabled()}
	if tensor.SIMDAvailable() {
		simdModes = []bool{true, false}
	}
	for _, simd := range simdModes {
		tensor.SetSIMD(simd)
		want := grads(func() { stackRun(NewContext(), ps, sg, 0, len(sg.xs), 0) })
		for name, run := range map[string]func(){
			"2+3":   routed([][2]int{{0, 2}, {2, 5}}),
			"5xB=1": routed([][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}),
		} {
			got := grads(run)
			for i, p := range ps {
				for j := range want[i].Data {
					if math.Float64bits(got[i].Data[j]) != math.Float64bits(want[i].Data[j]) {
						t.Fatalf("simd=%v %s: %s[%d] %v != one tape %v", simd, name, p.Name, j, got[i].Data[j], want[i].Data[j])
					}
				}
			}
		}
	}
}

// TestParamInTwoSegmentedOpsPanics: a standalone tape keeps one part per
// (parameter, panel), so a parameter entering a second segmented op would
// overwrite its first part; the tape refuses instead of dropping a gradient.
func TestParamInTwoSegmentedOpsPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	w := newRandParam(rng, "w", 2, 2)
	l := tensor.BatchLayout{B: 1, Stride: 3, Counts: []int{3}}
	ctx := NewContext()
	h := ctx.SegMatMul(ctx.SegMatMul(ctx.Const(tensor.Randn(rng, 3, 2, 1)), w, l), w, l)
	defer func() {
		if recover() == nil {
			t.Fatal("a parameter in two segmented ops did not panic")
		}
	}()
	ctx.BackwardVec(h)
}
