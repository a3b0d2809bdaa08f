package ag

import (
	"math"
	"math/rand"
	"testing"

	"predtop/internal/tensor"
)

// randomNeighbours draws one sparse neighbour list per panel of l: every node
// past the first joins up to two earlier ones, so some stay isolated and some
// edges repeat.
func randomNeighbours(rng *rand.Rand, l tensor.BatchLayout) []*tensor.Neighbours {
	nbrs := make([]*tensor.Neighbours, l.B)
	for g, c := range l.Counts {
		preds := make([][]int, c)
		for v := 1; v < c; v++ {
			for k := rng.Intn(3); k > 0; k-- {
				preds[v] = append(preds[v], rng.Intn(v))
			}
		}
		nbrs[g] = tensor.NewNeighbours(preds)
	}
	return nbrs
}

// The dense oracle: the n×n forms the edge ops replaced, rebuilt from the
// lists and evaluated by the panel ops the Transformer still runs, so every
// masked entry is computed and contributes its exact zero.

// denseMasks returns each graph's additive 1-hop mask: 0 on an edge, −Inf
// elsewhere.
func denseMasks(nbrs []*tensor.Neighbours) []*tensor.Tensor {
	masks := make([]*tensor.Tensor, len(nbrs))
	for g, nb := range nbrs {
		m := tensor.Full(nb.N(), nb.N(), math.Inf(-1))
		for v := 0; v < nb.N(); v++ {
			cols, _ := nb.Row(v)
			for _, u := range cols {
				m.Set(v, u, 0)
			}
		}
		masks[g] = m
	}
	return masks
}

// denseAdj returns the panel-width tensor holding each graph's normalized
// adjacency, zero off the edges.
func denseAdj(nbrs []*tensor.Neighbours, l tensor.BatchLayout) *tensor.Tensor {
	adj := tensor.New(l.Rows(), l.Stride)
	for g, nb := range nbrs {
		for v := 0; v < nb.N(); v++ {
			cols, vals := nb.Row(v)
			for k, u := range cols {
				adj.Set(g*l.Stride+v, u, vals[k])
			}
		}
	}
	return adj
}

// denseAddOuter is a[i] + b[j] over each whole panel, as the two rank-one
// score products a·1ᵀ + 1·bᵀ: x·1 is x exactly, and the products' backward
// sums a row (a column) of the gradient in ascending order, as the outer sum's
// did.
func denseAddOuter(ctx *Context, a, b *Node, l tensor.BatchLayout) *Node {
	ones := ctx.Const(tensor.Full(l.Rows(), 1, 1))
	return ctx.Add(ctx.PanelMatMulBT(a, ones, l), ctx.PanelMatMulBT(ones, b, l))
}

// runTape backpropagates Σ out⊙seed through build's tape and returns the
// forward value with the gradient of each parameter. seed is random in pad
// rows too, so a gradient arriving there must be ignored by every op.
func runTape(params []*Param, seed *tensor.Tensor, build func(ctx *Context) *Node) (*tensor.Tensor, []*tensor.Tensor) {
	for _, p := range params {
		p.ZeroGrad()
	}
	ctx := NewContext()
	out := build(ctx)
	ctx.BackwardVec(ctx.Mul(out, ctx.Const(seed)))
	grads := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		grads[i] = p.Grad.Clone()
	}
	return out.V.Clone(), grads
}

func wantSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, dense %dx%d", what, got.R, got.C, want.R, want.C)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s[%d]: edge %x != dense %x", what, i,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

// TestEdgeOpsMatchDenseOracle holds the edge ops to the dense forms they
// replaced, bit for bit, in value and in every gradient: the GAT head (outer
// sum, LeakyReLU, softmax, aggregate) and the GCN aggregation, on random
// sparse graphs alone and in ragged batches with pad rows, with the SIMD
// kernels on and off.
func TestEdgeOpsMatchDenseOracle(t *testing.T) {
	simdModes := []bool{tensor.SIMDEnabled()}
	if tensor.SIMDAvailable() {
		simdModes = []bool{true, false}
	}
	defer tensor.SetSIMD(tensor.SIMDEnabled())
	rng := rand.New(rand.NewSource(31))
	layouts := []tensor.BatchLayout{
		{B: 1, Stride: 1, Counts: []int{1}},
		{B: 1, Stride: 23, Counts: []int{23}},
		{B: 3, Stride: 19, Counts: []int{7, 19, 12}},
		{B: 3, Stride: 40, Counts: []int{40, 1, 33}},
	}
	for _, l := range layouts {
		for _, k := range []int{1, 8, 13} {
			nbrs := randomNeighbours(rng, l)
			masks, adj := denseMasks(nbrs), denseAdj(nbrs, l)
			vals := tensor.New(tensor.EdgeCount(nbrs), 1)
			tensor.EdgeValuesInto(vals, nbrs)
			a := newRandParam(rng, "a", l.Rows(), 1)
			b := newRandParam(rng, "b", l.Rows(), 1)
			x := newRandParam(rng, "x", l.Rows(), k)
			params := []*Param{a, b, x}
			seed := tensor.Randn(rng, l.Rows(), k, 1)
			for _, simd := range simdModes {
				tensor.SetSIMD(simd)

				gotV, gotG := runTape(params, seed, func(ctx *Context) *Node {
					logits := ctx.LeakyReLU(ctx.EdgeAddOuter(ctx.Param(a), ctx.Param(b), nbrs, l), 0.2)
					return ctx.EdgeAggregate(ctx.EdgeSoftmaxInPlace(logits, nbrs), ctx.Param(x), nbrs, l)
				})
				wantV, wantG := runTape(params, seed, func(ctx *Context) *Node {
					logits := ctx.LeakyReLU(denseAddOuter(ctx, ctx.Param(a), ctx.Param(b), l), 0.2)
					return ctx.PanelMatMul(ctx.PanelSoftmaxInPlace(logits, masks, l), ctx.Param(x), l)
				})
				wantSameBits(t, "GAT head value", gotV, wantV)
				for i, p := range params {
					wantSameBits(t, "GAT head d"+p.Name, gotG[i], wantG[i])
				}

				gotV, gotG = runTape(params[2:], seed, func(ctx *Context) *Node {
					return ctx.EdgeAggregate(ctx.Const(vals), ctx.Param(x), nbrs, l)
				})
				wantV, wantG = runTape(params[2:], seed, func(ctx *Context) *Node {
					return ctx.PanelMatMul(ctx.Const(adj), ctx.Param(x), l)
				})
				wantSameBits(t, "GCN aggregate value", gotV, wantV)
				wantSameBits(t, "GCN aggregate dx", gotG[0], wantG[0])
			}
		}
	}
}
