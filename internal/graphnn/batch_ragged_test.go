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

// raggedPool builds encoded stage graphs with distinct node counts, so padded
// batches exercise real raggedness (every graph shorter than the stride pads).
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

// forwardBackward runs one fused forward+backward over es into the zeroed
// Param.Grad and returns the per-graph predictions and copies of the
// parameter gradients, in m.Params() order.
func forwardBackward(t *testing.T, m Model, es []*stage.Encoded) ([]float64, []*tensor.Tensor) {
	t.Helper()
	params := m.Params()
	for _, p := range params {
		p.ZeroGrad()
	}
	ctx := ag.NewContext()
	nb, err := stage.NewBatch(es, ctx.Arena())
	if err != nil {
		t.Fatalf("NewBatch: %v", err)
	}
	out := m.PredictBatch(ctx, nb)
	preds := out.Value()
	if preds.R != len(es) || preds.C != 1 {
		t.Fatalf("%s batch output %dx%d for %d graphs", m.Name(), preds.R, preds.C, len(es))
	}
	ctx.BackwardVec(out)
	grads := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		grads[i] = p.Grad.Clone()
	}
	return append([]float64{}, preds.Data...), grads
}

// checkBatchInvariant is the batch-composition invariance check: graph g's
// prediction inside the batch es must be bitwise identical to g alone at
// B=1, whatever its neighbours and its position, and the batch's Param.Grad
// must be bitwise the fixed-shape parallel.TreeReduce over each graph's own
// B=1 Param.Grad — the one-accumulator contract.
func checkBatchInvariant(t *testing.T, m Model, es []*stage.Encoded) {
	t.Helper()
	params := m.Params()
	preds, grads := forwardBackward(t, m, es)
	alone := make([][]*tensor.Tensor, len(params))
	for i, e := range es {
		wantPred, wantGrads := forwardBackward(t, m, []*stage.Encoded{e})
		if math.Float64bits(preds[i]) != math.Float64bits(wantPred[0]) {
			t.Fatalf("%s graph %d (n=%d): in batch %v != alone %v",
				m.Name(), i, e.N(), preds[i], wantPred[0])
		}
		for pi, g := range wantGrads {
			alone[pi] = append(alone[pi], g)
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
				t.Fatalf("%s B=%d %s[%d]: batch %x != tree over B=1 %x",
					m.Name(), len(es), p.Name, j, math.Float64bits(b), math.Float64bits(a))
			}
		}
	}
}

// TestPredictBatchRaggedBitwise drives the fused forward+backward through
// the padding edge cases — single-graph batches, rectangular batches (no
// padding at all), maximal pad skew (smallest graph next to largest), and
// duplicates sharing mask tensors — asserting every graph's value equals, bit
// for bit, the graph alone at B=1 and the batch's parameter gradients equal
// the tree over the B=1 gradients, for all three architectures.
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

// TestPredictBatchRandomizedBitwise is the property form: random batch
// compositions and sizes drawn from the ragged pool, each graph checked
// bitwise against itself alone, with SIMD kernels both on and off; and the
// two SIMD settings are pinned to each other on the same batch, so the scalar
// and vector row kernels cannot drift apart together.
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
			preds, _ := forwardBackward(t, m, es)
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

// TestNewBatchRejectsEmptyGraph: a zero-node graph has nothing to pool, so
// batching must fail loudly rather than emit a padding artifact — alone and
// in the middle of an otherwise valid batch.
func TestNewBatchRejectsEmptyGraph(t *testing.T) {
	pool := raggedPool(t)
	empty := &stage.Encoded{X: tensor.New(0, stage.FeatureDim)}
	for _, es := range [][]*stage.Encoded{
		{empty},
		{pool[0], empty, pool[1]},
	} {
		if _, err := stage.NewBatch(es, nil); err != stage.ErrEmptyGraph {
			t.Fatalf("NewBatch with empty graph: err=%v, want ErrEmptyGraph", err)
		}
	}
}
