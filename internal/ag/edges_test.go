package ag

import (
	"math"
	"math/rand"
	"testing"

	"predtop/internal/tensor"
)

// randomNeighbours draws one sparse neighbour list per graph of counts:
// every node past the first joins up to two earlier ones, so some stay
// isolated and some edges repeat.
func randomNeighbours(rng *rand.Rand, counts []int) []*tensor.Neighbours {
	nbs := make([]*tensor.Neighbours, len(counts))
	for g, n := range counts {
		preds := make([][]int, n)
		for v := 1; v < n; v++ {
			for k := rng.Intn(3); k > 0; k-- {
				preds[v] = append(preds[v], rng.Intn(v))
			}
		}
		nbs[g] = tensor.NewNeighbours(preds)
	}
	return nbs
}

// The dense oracle: the n×n forms the edge ops replaced, rebuilt from the
// list and evaluated by the dense tensor kernels, op for op as the tape ran
// them, so every masked entry is computed and contributes its exact zero.

// denseMask returns the graph's additive 1-hop mask: 0 on an edge, −Inf
// elsewhere.
func denseMask(nb *tensor.Neighbours) *tensor.Tensor {
	m := tensor.Full(nb.N(), nb.N(), math.Inf(-1))
	for v := 0; v < nb.N(); v++ {
		cols, _ := nb.Row(v)
		for _, u := range cols {
			m.Set(v, u, 0)
		}
	}
	return m
}

// denseAdj returns the graph's n×n normalized adjacency, zero off the edges.
func denseAdj(nb *tensor.Neighbours) *tensor.Tensor {
	adj := tensor.New(nb.N(), nb.N())
	for v := 0; v < nb.N(); v++ {
		cols, vals := nb.Row(v)
		for k, u := range cols {
			adj.Set(v, u, vals[k])
		}
	}
	return adj
}

// leafGrad is the gradient a Param leaf ends with: g added into a zeroed
// Param.Grad.
func leafGrad(g *tensor.Tensor) *tensor.Tensor {
	d := tensor.New(g.R, g.C)
	tensor.AddInPlace(d, g)
	return d
}

// denseGAT is the dense GAT head out = softmax(LeakyReLU(a[i] + b[j]) +
// mask)·x and the gradients of Σ out⊙seed in a, b and x: dP = seed·xᵀ and
// dx = Pᵀ·seed, the softmax VJP, the LeakyReLU gate, then a's row sums and
// b's column sums, each sequential from +0 in ascending order.
func denseGAT(a, b, x, seed, mask *tensor.Tensor) (*tensor.Tensor, []*tensor.Tensor) {
	n := a.R
	logits := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			logits.Set(i, j, a.Data[i]+b.Data[j])
		}
	}
	act := tensor.New(n, n)
	tensor.LeakyReLUInto(act, logits, 0.2)
	p := tensor.New(n, n)
	tensor.SoftmaxRowsInto(p, act, mask)
	out := tensor.New(n, x.C)
	tensor.MatMulSerialInto(out, p, x)

	dp, dx := tensor.New(n, n), tensor.New(n, x.C)
	tensor.MatMulBTSerialInto(dp, seed, x, nil)
	tensor.MatMulATInto(dx, p, seed)
	ds := tensor.New(n, n)
	for i := 0; i < n; i++ {
		dotgy := 0.0
		for j, g := range dp.Row(i) {
			dotgy += g * p.At(i, j)
		}
		tensor.SoftmaxBackRow(ds.Row(i), dp.Row(i), p.Row(i), dotgy)
	}
	dl := tensor.New(n, n)
	tensor.LeakyReLUBackInto(dl, ds, logits, 0.2)
	da, db := tensor.New(n, 1), tensor.New(n, 1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			da.Data[i] += dl.At(i, j)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			db.Data[j] += dl.At(i, j)
		}
	}
	return out, []*tensor.Tensor{leafGrad(da), leafGrad(db), leafGrad(dx)}
}

// denseGCN is the dense aggregation Â·x and its x gradient Âᵀ·seed.
func denseGCN(adj, x, seed *tensor.Tensor) (*tensor.Tensor, []*tensor.Tensor) {
	out, dx := tensor.New(x.R, x.C), tensor.New(x.R, x.C)
	tensor.MatMulSerialInto(out, adj, x)
	tensor.MatMulATInto(dx, adj, seed)
	return out, []*tensor.Tensor{leafGrad(dx)}
}

// runTape backpropagates Σ out⊙seed through build's tape and returns the
// forward value with the gradient of each parameter.
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
// sparse graphs of several sizes, with the SIMD kernels on and off.
func TestEdgeOpsMatchDenseOracle(t *testing.T) {
	simdModes := []bool{tensor.SIMDEnabled()}
	if tensor.SIMDAvailable() {
		simdModes = []bool{true, false}
	}
	defer tensor.SetSIMD(tensor.SIMDEnabled())
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 7, 12, 19, 23, 40} {
		for _, k := range []int{1, 8, 13} {
			nb := randomNeighbours(rng, []int{n})[0]
			mask, adj := denseMask(nb), denseAdj(nb)
			vals := tensor.New(nb.Edges(), 1)
			tensor.EdgeValuesInto(vals, nb)
			a := newRandParam(rng, "a", n, 1)
			b := newRandParam(rng, "b", n, 1)
			x := newRandParam(rng, "x", n, k)
			params := []*Param{a, b, x}
			seed := tensor.Randn(rng, n, k, 1)
			for _, simd := range simdModes {
				tensor.SetSIMD(simd)

				gotV, gotG := runTape(params, seed, func(ctx *Context) *Node {
					logits := ctx.LeakyReLU(ctx.EdgeAddOuter(ctx.Param(a), ctx.Param(b), nb), 0.2)
					return ctx.EdgeAggregate(ctx.EdgeSoftmaxInPlace(logits, nb), ctx.Param(x), nb)
				})
				wantV, wantG := denseGAT(a.V, b.V, x.V, seed, mask)
				wantSameBits(t, "GAT head value", gotV, wantV)
				for i, p := range params {
					wantSameBits(t, "GAT head d"+p.Name, gotG[i], wantG[i])
				}

				gotV, gotG = runTape(params[2:], seed, func(ctx *Context) *Node {
					return ctx.EdgeAggregate(ctx.Const(vals), ctx.Param(x), nb)
				})
				wantV, wantG = denseGCN(adj, x.V, seed)
				wantSameBits(t, "GCN aggregate value", gotV, wantV)
				wantSameBits(t, "GCN aggregate dx", gotG[0], wantG[0])
			}
		}
	}
}
