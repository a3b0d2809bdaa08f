// Package graphnn implements the three stage-latency prediction models the
// paper compares (§IV, §VII-D): the DAG Transformer (reachability-masked
// attention with depth positional encodings, Luo et al.), and the GCN and
// GAT message-passing baselines. All three consume an encoded stage graph
// (internal/stage) and produce one scalar — the predicted optimal
// intra-stage latency — via global add pooling (Eqn 2) and an MLP head.
package graphnn

import (
	"fmt"
	"math/rand"
	"strconv"

	"predtop/internal/ag"
	"predtop/internal/nn"
	"predtop/internal/stage"
	"predtop/internal/tensor"
)

// poolScale conditions the global-add-pool output: stage DAGs carry tens to
// hundreds of nodes, so the raw pooled vector is O(N) and would start the
// prediction head hundreds of units from the normalized targets. A fixed
// 1/64 factor keeps pooling additive in the node count while letting every
// architecture converge within the CPU-scale epoch budget.
const poolScale = 1.0 / 64

// Model is a stage-latency predictor.
type Model interface {
	nn.Module
	// PredictBatch maps a padded batch of encoded stage graphs to B×1
	// latency predictions in batch order, on one tape. It is the only
	// forward: a single graph is a batch of one. Per graph, predictions and
	// (through ag's segmented backward) gradients are bitwise identical
	// whichever other graphs share the batch.
	PredictBatch(ctx *ag.Context, b *stage.Batch) *ag.Node
	// Name identifies the architecture ("Tran", "GCN", "GAT").
	Name() string
	// Spec returns the serializable architecture description.
	Spec() ModelSpec
}

// ModelSpec is a serializable architecture description from which an
// identically-shaped model can be rebuilt (see Build).
type ModelSpec struct {
	Arch string // "Tran", "GCN", or "GAT"
	Tran TransformerConfig
	GCN  GCNConfig
	GAT  GATConfig
}

// Build reconstructs a freshly-initialized model of this spec.
func (s ModelSpec) Build(rng *rand.Rand) (Model, error) {
	switch s.Arch {
	case "Tran":
		return NewDAGTransformer(rng, s.Tran), nil
	case "GCN":
		return NewGCN(rng, s.GCN), nil
	case "GAT":
		return NewGAT(rng, s.GAT), nil
	}
	return nil, fmt.Errorf("graphnn: unknown architecture %q", s.Arch)
}

// TransformerConfig configures a DAG Transformer predictor. The zero value
// is replaced by the paper's hyper-parameters (§IV-B6: 4 layers, dim 64).
type TransformerConfig struct {
	Layers  int
	Dim     int
	Heads   int
	FFNDim  int
	MaxPos  int // positional-encoding table size (clamped depths)
	HeadDim int // MLP head hidden width
}

func (c TransformerConfig) withDefaults() TransformerConfig {
	if c.Layers == 0 {
		c.Layers = 4
	}
	if c.Dim == 0 {
		c.Dim = 64
	}
	if c.Heads == 0 {
		c.Heads = 4
	}
	if c.FFNDim == 0 {
		c.FFNDim = 2 * c.Dim
	}
	if c.MaxPos == 0 {
		c.MaxPos = 512
	}
	if c.HeadDim == 0 {
		c.HeadDim = c.Dim
	}
	return c
}

// tranLayer is one DAG Transformer layer (Fig 4): masked multi-head
// attention and a feed-forward block, each with residual + layer norm.
type tranLayer struct {
	attn *nn.MultiHeadAttention
	ln1  *nn.LayerNorm
	ffn  *nn.FeedForward
	ln2  *nn.LayerNorm
}

// DAGTransformer is the paper's predictor: reachability-based attention
// (DAGRA, Eqn 1 with k = ∞) plus depth positional encodings (DAGPE).
type DAGTransformer struct {
	cfg    TransformerConfig
	input  *nn.Linear
	pe     *tensor.Tensor
	layers []*tranLayer
	head   *nn.MLPHead
	// Per-layer profiling span names ("l0.attn", "l0.ffn", …), precomputed
	// so the instrumented forward never formats strings on the hot path.
	spanAttn, spanFFN []string
}

// NewDAGTransformer builds a DAG Transformer predictor.
func NewDAGTransformer(rng *rand.Rand, cfg TransformerConfig) *DAGTransformer {
	cfg = cfg.withDefaults()
	m := &DAGTransformer{
		cfg:   cfg,
		input: nn.NewLinear(rng, "tran.in", stage.FeatureDim, cfg.Dim),
		pe:    nn.SinusoidalPE(cfg.MaxPos, cfg.Dim),
		head:  nn.NewMLPHead(rng, "tran.head", cfg.Dim, cfg.HeadDim),
	}
	for i := 0; i < cfg.Layers; i++ {
		name := "tran.l" + strconv.Itoa(i)
		m.layers = append(m.layers, &tranLayer{
			attn: nn.NewMultiHeadAttention(rng, name+".attn", cfg.Dim, cfg.Heads),
			ln1:  nn.NewLayerNorm(name+".ln1", cfg.Dim),
			ffn:  nn.NewFeedForward(rng, name+".ffn", cfg.Dim, cfg.FFNDim),
			ln2:  nn.NewLayerNorm(name+".ln2", cfg.Dim),
		})
		li := "l" + strconv.Itoa(i)
		m.spanAttn = append(m.spanAttn, li+".attn")
		m.spanFFN = append(m.spanFFN, li+".ffn")
	}
	return m
}

// Name implements Model.
func (m *DAGTransformer) Name() string { return "Tran" }

// Spec implements Model.
func (m *DAGTransformer) Spec() ModelSpec { return ModelSpec{Arch: "Tran", Tran: m.cfg} }

// PredictBatch implements Model.
func (m *DAGTransformer) PredictBatch(ctx *ag.Context, b *stage.Batch) *ag.Node {
	bl := b.Layout
	ls := ctx.StartLayer("embed")
	x := m.input.ForwardBatch(ctx, ctx.Const(b.X), bl)
	// DAGPE: the sinusoidal table is constant, so the per-graph depth gather
	// needs no tape op — build the stacked positional tensor directly (pad
	// rows zero) and add it as a constant.
	pos := ctx.Arena().Get(bl.Rows(), m.cfg.Dim)
	for g := 0; g < bl.B; g++ {
		base := g * bl.Stride
		for i, d := range b.Depths[g] {
			if d >= m.cfg.MaxPos {
				d = m.cfg.MaxPos - 1
			}
			copy(pos.Row(base+i), m.pe.Row(d))
		}
	}
	x = ctx.Add(x, ctx.Const(pos))
	ls.End()
	// Pre-LN layers: the residual stream stays unnormalized, so per-node
	// cost magnitudes survive to the additive pooling (Eqn 2).
	for i, l := range m.layers {
		ls = ctx.StartLayer(m.spanAttn[i])
		x = ctx.Add(x, l.attn.ForwardBatch(ctx, l.ln1.ForwardBatch(ctx, x, bl), b.Reach, bl))
		ls.End()
		ls = ctx.StartLayer(m.spanFFN[i])
		x = ctx.Add(x, l.ffn.ForwardBatch(ctx, l.ln2.ForwardBatch(ctx, x, bl), bl))
		ls.End()
	}
	ls = ctx.StartLayer("head")
	pooled := ctx.Scale(ctx.SegSumRows(x, bl), poolScale) // global add pool (Eqn 2)
	out := m.head.ForwardBatch(ctx, pooled, b.HeadLayout)
	ls.End()
	return out
}

// Params implements nn.Module.
func (m *DAGTransformer) Params() []*ag.Param {
	ps := m.input.Params()
	for _, l := range m.layers {
		ps = append(ps, l.attn.Params()...)
		ps = append(ps, l.ln1.Params()...)
		ps = append(ps, l.ffn.Params()...)
		ps = append(ps, l.ln2.Params()...)
	}
	return append(ps, m.head.Params()...)
}

// GCNConfig configures the GCN baseline (paper: 6 layers of size 256).
type GCNConfig struct {
	Layers int
	Dim    int
}

func (c GCNConfig) withDefaults() GCNConfig {
	if c.Layers == 0 {
		c.Layers = 6
	}
	if c.Dim == 0 {
		c.Dim = 256
	}
	return c
}

// GCN is the graph-convolution baseline: X ← ReLU(Â X W + b) with
// Â = D^{-1/2}(A+I)D^{-1/2}.
type GCN struct {
	cfg       GCNConfig
	layers    []*nn.Linear
	head      *nn.MLPHead
	spanNames []string // precomputed per-layer profiling span names
}

// NewGCN builds a GCN predictor.
func NewGCN(rng *rand.Rand, cfg GCNConfig) *GCN {
	cfg = cfg.withDefaults()
	m := &GCN{cfg: cfg}
	in := stage.FeatureDim
	for i := 0; i < cfg.Layers; i++ {
		m.layers = append(m.layers, nn.NewLinear(rng, "gcn.l"+strconv.Itoa(i), in, cfg.Dim))
		m.spanNames = append(m.spanNames, "l"+strconv.Itoa(i))
		in = cfg.Dim
	}
	m.head = nn.NewMLPHead(rng, "gcn.head", cfg.Dim, cfg.Dim/2)
	return m
}

// Name implements Model.
func (m *GCN) Name() string { return "GCN" }

// Spec implements Model.
func (m *GCN) Spec() ModelSpec { return ModelSpec{Arch: "GCN", GCN: m.cfg} }

// PredictBatch implements Model.
func (m *GCN) PredictBatch(ctx *ag.Context, b *stage.Batch) *ag.Node {
	bl := b.Layout
	x := ctx.Const(b.X)
	// Â's values as one constant edge vector, shared by every layer.
	vals := ctx.Arena().GetUninit(tensor.EdgeCount(b.Nbr), 1)
	tensor.EdgeValuesInto(vals, b.Nbr)
	adj := ctx.Const(vals)
	for i, l := range m.layers {
		ls := ctx.StartLayer(m.spanNames[i])
		x = ctx.ReLU(l.ForwardBatch(ctx, ctx.EdgeAggregate(adj, x, b.Nbr, bl), bl))
		ls.End()
	}
	ls := ctx.StartLayer("head")
	out := m.head.ForwardBatch(ctx, ctx.Scale(ctx.SegSumRows(x, bl), poolScale), b.HeadLayout)
	ls.End()
	return out
}

// Params implements nn.Module.
func (m *GCN) Params() []*ag.Param {
	var ps []*ag.Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return append(ps, m.head.Params()...)
}

// GATConfig configures the GAT baseline (paper: hidden dimension 32,
// 6 layers).
type GATConfig struct {
	Layers int
	Dim    int
	Heads  int
	Alpha  float64 // LeakyReLU slope
}

func (c GATConfig) withDefaults() GATConfig {
	if c.Layers == 0 {
		c.Layers = 6
	}
	if c.Dim == 0 {
		c.Dim = 32
	}
	if c.Heads == 0 {
		c.Heads = 4
	}
	if c.Alpha == 0 {
		c.Alpha = 0.2
	}
	return c
}

// gatLayer is one multi-head graph-attention layer.
type gatLayer struct {
	w        []*nn.Linear // per-head projection
	aSrc     []*ag.Param  // per-head source attention vector
	aDst     []*ag.Param  // per-head destination attention vector
	alpha    float64
	headDim  int
	numHeads int
}

// GAT is the graph-attention baseline: attention over each node's 1-hop
// neighbours (and itself).
type GAT struct {
	cfg       GATConfig
	layers    []*gatLayer
	head      *nn.MLPHead
	spanNames []string // precomputed per-layer profiling span names
}

// NewGAT builds a GAT predictor.
func NewGAT(rng *rand.Rand, cfg GATConfig) *GAT {
	cfg = cfg.withDefaults()
	if cfg.Dim%cfg.Heads != 0 {
		panic("graphnn: GAT dim must divide by heads")
	}
	m := &GAT{cfg: cfg}
	in := stage.FeatureDim
	hd := cfg.Dim / cfg.Heads
	for i := 0; i < cfg.Layers; i++ {
		l := &gatLayer{alpha: cfg.Alpha, headDim: hd, numHeads: cfg.Heads}
		for h := 0; h < cfg.Heads; h++ {
			name := "gat.l" + strconv.Itoa(i) + ".h" + strconv.Itoa(h)
			l.w = append(l.w, nn.NewLinear(rng, name+".w", in, hd))
			l.aSrc = append(l.aSrc, ag.NewParam(name+".as", tensor.RandUniform(rng, hd, 1, -0.3, 0.3)))
			l.aDst = append(l.aDst, ag.NewParam(name+".ad", tensor.RandUniform(rng, hd, 1, -0.3, 0.3)))
		}
		m.layers = append(m.layers, l)
		m.spanNames = append(m.spanNames, "l"+strconv.Itoa(i))
		in = cfg.Dim
	}
	m.head = nn.NewMLPHead(rng, "gat.head", cfg.Dim, cfg.Dim)
	return m
}

// Name implements Model.
func (m *GAT) Name() string { return "GAT" }

// Spec implements Model.
func (m *GAT) Spec() ModelSpec { return ModelSpec{Arch: "GAT", GAT: m.cfg} }

// PredictBatch implements Model.
func (m *GAT) PredictBatch(ctx *ag.Context, b *stage.Batch) *ag.Node {
	bl := b.Layout
	x := ctx.Const(b.X)
	for i, l := range m.layers {
		ls := ctx.StartLayer(m.spanNames[i])
		var buf [8]*ag.Node // ConcatCols copies its operands, so heads can stay on the stack
		heads := buf[:0]
		for h := 0; h < l.numHeads; h++ {
			wh := l.w[h].ForwardBatch(ctx, x, bl)
			s1 := ctx.SegMatMul(wh, l.aSrc[h], bl)
			s2 := ctx.SegMatMul(wh, l.aDst[h], bl)
			logits := ctx.LeakyReLU(ctx.EdgeAddOuter(s1, s2, b.Nbr, bl), l.alpha)
			// In-place is safe: LeakyReLU's backward reads its input (the
			// EdgeAddOuter value), never its own output buffer.
			attn := ctx.EdgeSoftmaxInPlace(logits, b.Nbr)
			heads = append(heads, ctx.EdgeAggregate(attn, wh, b.Nbr, bl))
		}
		x = ctx.ReLU(ctx.ConcatCols(heads...))
		ls.End()
	}
	ls := ctx.StartLayer("head")
	out := m.head.ForwardBatch(ctx, ctx.Scale(ctx.SegSumRows(x, bl), poolScale), b.HeadLayout)
	ls.End()
	return out
}

// Params implements nn.Module.
func (m *GAT) Params() []*ag.Param {
	var ps []*ag.Param
	for _, l := range m.layers {
		for h := 0; h < l.numHeads; h++ {
			ps = append(ps, l.w[h].Params()...)
			ps = append(ps, l.aSrc[h], l.aDst[h])
		}
	}
	return append(ps, m.head.Params()...)
}
