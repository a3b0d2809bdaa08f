package graphnn

import (
	"math/rand"
	"strconv"
	"testing"

	"predtop/internal/ag"
	"predtop/internal/models"
	"predtop/internal/stage"
)

func encodedStage(t testing.TB) *stage.Encoded {
	t.Helper()
	m := models.Build(models.GPT3())
	g := m.StageGraph(2, 3, false)
	return stage.Encode(stage.FromGraph(g, true))
}

// predictOne runs m on e alone — a batch of one — on ctx and returns the 1×1
// prediction node.
func predictOne(t testing.TB, m Model, ctx *ag.Context, e *stage.Encoded) *ag.Node {
	t.Helper()
	nb, err := stage.NewBatch([]*stage.Encoded{e}, ctx.Arena())
	if err != nil {
		t.Fatalf("NewBatch: %v", err)
	}
	return m.PredictBatch(ctx, nb)
}

// predictValue is predictOne on a fresh tape, as a number.
func predictValue(t testing.TB, m Model, e *stage.Encoded) float64 {
	t.Helper()
	return predictOne(t, m, ag.NewContext(), e).Value().At(0, 0)
}

func TestAllModelsPredictScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := encodedStage(t)
	ms := []Model{
		NewDAGTransformer(rng, TransformerConfig{Layers: 2, Dim: 16, Heads: 2}),
		NewGCN(rng, GCNConfig{Layers: 3, Dim: 16}),
		NewGAT(rng, GATConfig{Layers: 2, Dim: 16, Heads: 2}),
	}
	names := map[string]bool{}
	for _, m := range ms {
		ctx := ag.NewContext()
		out := predictOne(t, m, ctx, e)
		if out.Value().R != 1 || out.Value().C != 1 {
			t.Fatalf("%s output %dx%d", m.Name(), out.Value().R, out.Value().C)
		}
		if len(m.Params()) == 0 {
			t.Fatalf("%s has no parameters", m.Name())
		}
		names[m.Name()] = true
	}
	if !names["Tran"] || !names["GCN"] || !names["GAT"] {
		t.Fatalf("model names wrong: %v", names)
	}
}

func TestModelsAreTrainable(t *testing.T) {
	// One gradient step must change the prediction (all parameters are wired
	// into the graph and receive gradients).
	rng := rand.New(rand.NewSource(2))
	e := encodedStage(t)
	for _, m := range []Model{
		NewDAGTransformer(rng, TransformerConfig{Layers: 2, Dim: 16, Heads: 2}),
		NewGCN(rng, GCNConfig{Layers: 2, Dim: 16}),
		NewGAT(rng, GATConfig{Layers: 2, Dim: 16, Heads: 2}),
	} {
		ctx := ag.NewContext()
		before := predictOne(t, m, ctx, e).Value().At(0, 0)
		ctx.Backward(ctx.MeanAll(ctx.Square(predictOne(t, m, ctx, e))))
		gradSum := 0.0
		for _, p := range m.Params() {
			gradSum += p.Grad.MaxAbs()
			for j := range p.V.Data {
				p.V.Data[j] -= 0.01 * p.Grad.Data[j]
			}
		}
		if gradSum == 0 {
			t.Fatalf("%s received no gradients", m.Name())
		}
		after := predictValue(t, m, e)
		if before == after {
			t.Fatalf("%s prediction unchanged after step", m.Name())
		}
	}
}

func TestDAGTransformerDefaultsMatchPaper(t *testing.T) {
	cfg := TransformerConfig{}.withDefaults()
	if cfg.Layers != 4 || cfg.Dim != 64 {
		t.Fatalf("transformer defaults %+v (paper: 4 layers, dim 64)", cfg)
	}
	g := GCNConfig{}.withDefaults()
	if g.Layers != 6 || g.Dim != 256 {
		t.Fatalf("GCN defaults %+v (paper: 6 layers, 256)", g)
	}
	a := GATConfig{}.withDefaults()
	if a.Layers != 6 || a.Dim != 32 {
		t.Fatalf("GAT defaults %+v (paper: 6 layers, 32)", a)
	}
}

func TestTransformerUsesReachabilityMask(t *testing.T) {
	// Predictions must differ between the true reachability mask and a
	// fully-open mask (DAGRA matters).
	rng := rand.New(rand.NewSource(3))
	m := NewDAGTransformer(rng, TransformerConfig{Layers: 2, Dim: 16, Heads: 2})
	e := encodedStage(t)
	masked := predictValue(t, m, e)

	open := *e
	openMask := e.ReachMask.Clone()
	openMask.Zero()
	open.ReachMask = openMask
	unmasked := predictValue(t, m, &open)
	if masked == unmasked {
		t.Fatal("reachability mask has no effect")
	}
}

func TestTransformerUsesDepthPE(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewDAGTransformer(rng, TransformerConfig{Layers: 2, Dim: 16, Heads: 2})
	e := encodedStage(t)
	base := predictValue(t, m, e)

	flat := *e
	flat.Depths = make([]int, len(e.Depths)) // all depth 0
	noPE := predictValue(t, m, &flat)
	if base == noPE {
		t.Fatal("depth positional encoding has no effect")
	}
}

func TestDepthsClampedToPETable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewDAGTransformer(rng, TransformerConfig{Layers: 1, Dim: 16, Heads: 2, MaxPos: 4})
	e := encodedStage(t) // depths well beyond 4
	out := predictValue(t, m, e)
	if out != out { // NaN check
		t.Fatal("clamped prediction is NaN")
	}
}

func TestParamCountsReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tran := NewDAGTransformer(rng, TransformerConfig{})
	n := 0
	for _, p := range tran.Params() {
		n += p.V.Size()
	}
	// 4 layers × (4·64² attention + 2·64·128 FFN + norms) + head ≈ 10^5.
	if n < 50_000 || n > 500_000 {
		t.Fatalf("transformer param count %d", n)
	}
}

// TestLayerNamesAllWidths guards the strconv-based layer naming: the old
// hand-rolled itoa emitted garbage runes for indices ≥ 100 (e.g. ":0" for
// layer 100), corrupting serialized parameter names of deep models.
func TestLayerNamesAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewGCN(rng, GCNConfig{Layers: 124, Dim: 4})
	names := map[string]bool{}
	for _, p := range m.Params() {
		names[p.Name] = true
	}
	if len(names) != 2*124+4 { // W+b per layer, 4 head params
		t.Fatalf("duplicate or missing parameter names: %d distinct", len(names))
	}
	for _, idx := range []int{0, 9, 10, 99, 100, 123} {
		want := "gcn.l" + strconv.Itoa(idx) + ".W"
		if !names[want] {
			t.Fatalf("missing parameter %q", want)
		}
	}
	for name := range names {
		for _, r := range name {
			if r != '.' && r != '-' && !(r >= '0' && r <= '9') && !(r >= 'a' && r <= 'z') && !(r >= 'A' && r <= 'Z') {
				t.Fatalf("garbage rune %q in parameter name %q", r, name)
			}
		}
	}
}
