package graphnn

import (
	"math"
	"math/rand"
	"testing"

	"predtop/internal/ag"
	"predtop/internal/models"
	"predtop/internal/parallel"
	"predtop/internal/stage"
	"predtop/internal/tensor"
)

// raggedPool builds encoded stage graphs with distinct node counts, so a
// worker tape that runs them in turn recycles buffers across real size
// changes.
func raggedPool(t testing.TB) []*stage.Encoded {
	t.Helper()
	m := models.Build(models.GPT3())
	var es []*stage.Encoded
	for _, r := range [][3]int{{0, 1, 0}, {1, 3, 0}, {2, 5, 0}, {0, 4, 0}, {2, 3, 1}} {
		g := m.StageGraph(r[0], r[1], r[2] == 1)
		es = append(es, stage.Encode(stage.FromGraph(g, true)))
	}
	counts := map[int]bool{}
	for _, e := range es {
		counts[e.N()] = true
	}
	if len(counts) < 3 {
		t.Fatalf("pool not ragged enough: node counts %v", counts)
	}
	return es
}

func raggedModels(seed int64) []Model {
	rng := rand.New(rand.NewSource(seed))
	return []Model{
		NewDAGTransformer(rng, TransformerConfig{Layers: 2, Dim: 16, Heads: 2, FFNDim: 32}),
		NewGCN(rng, GCNConfig{Layers: 2, Dim: 16}),
		NewGAT(rng, GATConfig{Layers: 2, Dim: 8, Heads: 2}),
	}
}

// forwardBackward resets ctx, runs e's forward and backward on it, and
// returns the 1×1 prediction.
func forwardBackward(t *testing.T, m Model, ctx *ag.Context, e *stage.Encoded) float64 {
	t.Helper()
	ctx.Reset()
	out := m.Predict(ctx, e)
	if out.V.R != 1 || out.V.C != 1 {
		t.Fatalf("%s output %dx%d for one graph", m.Name(), out.V.R, out.V.C)
	}
	pred := out.Value().Data[0]
	ctx.BackwardVec(out)
	return pred
}

// runBatch runs es in turn on one worker tape, each graph routed to its own
// slot of one PanelGrads, folds once into the zeroed Param.Grad, and returns
// the predictions and copies of the parameter gradients in m.Params() order
// — a minibatch as one of Train's workers sees it.
func runBatch(t *testing.T, m Model, es []*stage.Encoded) ([]float64, []*tensor.Tensor) {
	t.Helper()
	params := m.Params()
	for _, p := range params {
		p.ZeroGrad()
	}
	pg := ag.NewPanelGrads(params, len(es))
	ctx := ag.NewContext()
	preds := make([]float64, len(es))
	for k, e := range es {
		ctx.RouteGrads(pg, k)
		preds[k] = forwardBackward(t, m, ctx, e)
	}
	pg.Fold(len(es))
	grads := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		grads[i] = p.Grad.Clone()
	}
	return preds, grads
}

// checkBatchInvariant is the worker-tape invariance check: graph g's
// prediction, run after any other graphs on a recycled tape, must be bitwise
// identical to g alone on a fresh standalone tape, and the folded Param.Grad
// must be bitwise the fixed-shape parallel.TreeReduce over each graph's own
// standalone Param.Grad — the one-accumulator contract.
func checkBatchInvariant(t *testing.T, m Model, es []*stage.Encoded) {
	t.Helper()
	params := m.Params()
	preds, grads := runBatch(t, m, es)
	alone := make([][]*tensor.Tensor, len(params))
	for i, e := range es {
		for _, p := range params {
			p.ZeroGrad()
		}
		want := forwardBackward(t, m, ag.NewContext(), e)
		if math.Float64bits(preds[i]) != math.Float64bits(want) {
			t.Fatalf("%s graph %d (n=%d): on a worker tape %v != alone %v",
				m.Name(), i, e.N(), preds[i], want)
		}
		for pi, p := range params {
			alone[pi] = append(alone[pi], p.Grad.Clone())
		}
	}
	for pi, p := range params {
		want := parallel.TreeReduce(alone[pi], func(a, b *tensor.Tensor) *tensor.Tensor {
			tensor.AddInPlace(a, b)
			return a
		})
		for j := range want.Data {
			a, b := want.Data[j], grads[pi].Data[j]
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s B=%d %s[%d]: folded %x != tree over standalone tapes %x",
					m.Name(), len(es), p.Name, j, math.Float64bits(b), math.Float64bits(a))
			}
		}
	}
}

// TestPredictBatchRaggedBitwise drives minibatches through one recycled
// worker tape — single graphs, equal sizes, maximal size skew (the smallest
// graph after the largest reuses its buffers), and duplicates sharing mask
// tensors — asserting every graph's value equals, bit for bit, the graph
// alone on a fresh tape and the folded parameter gradients equal the tree
// over standalone gradients, for all three architectures.
func TestPredictBatchRaggedBitwise(t *testing.T) {
	pool := raggedPool(t)
	small, large := 0, 0
	for i, e := range pool {
		if e.N() < pool[small].N() {
			small = i
		}
		if e.N() > pool[large].N() {
			large = i
		}
	}
	cases := map[string][]int{
		"B1":        {0},
		"B1-large":  {large},
		"all-equal": {1, 1, 1, 1},
		"pad-skew":  {small, large, small},
		"dups":      {2, 2, 0, 3},
		"ragged":    {0, 1, 2, 3, 4},
	}
	for _, m := range raggedModels(11) {
		t.Run(m.Name(), func(t *testing.T) {
			for name, idx := range cases {
				es := make([]*stage.Encoded, len(idx))
				for k, i := range idx {
					es[k] = pool[i]
				}
				t.Run(name, func(t *testing.T) { checkBatchInvariant(t, m, es) })
			}
		})
	}
}

// TestPredictBatchRandomizedBitwise is the property form: random minibatch
// compositions and sizes drawn from the ragged pool, each graph checked
// bitwise against itself alone, with SIMD kernels both on and off; and the
// two SIMD settings are pinned to each other on the same minibatch, so the
// scalar and vector row kernels cannot drift apart together.
func TestPredictBatchRandomizedBitwise(t *testing.T) {
	pool := raggedPool(t)
	rng := rand.New(rand.NewSource(99))
	ms := raggedModels(17)
	simdModes := []bool{tensor.SIMDEnabled()}
	if tensor.SIMDAvailable() {
		simdModes = []bool{true, false}
	}
	defer tensor.SetSIMD(tensor.SIMDEnabled())
	for trial := 0; trial < 8; trial++ {
		b := 1 + rng.Intn(6)
		es := make([]*stage.Encoded, b)
		for k := range es {
			es[k] = pool[rng.Intn(len(pool))]
		}
		m := ms[trial%len(ms)]
		var first []float64
		for _, simd := range simdModes {
			tensor.SetSIMD(simd)
			checkBatchInvariant(t, m, es)
			preds, _ := runBatch(t, m, es)
			if first == nil {
				first = preds
			}
			for i := range preds {
				if math.Float64bits(preds[i]) != math.Float64bits(first[i]) {
					t.Fatalf("%s graph %d: SIMD=%v prediction %v != %v", m.Name(), i, simd, preds[i], first[i])
				}
			}
		}
	}
}
