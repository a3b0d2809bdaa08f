// Package nn provides the neural-network building blocks used by the latency
// predictors: linear layers, layer normalization, masked multi-head
// attention, and feed-forward blocks, all built on internal/ag. Every block
// has one forward, ForwardBatch, over the panels of a tensor.BatchLayout; a
// single graph is the B=1 panel.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"predtop/internal/ag"
	"predtop/internal/tensor"
)

// Module is anything owning trainable parameters.
type Module interface {
	Params() []*ag.Param
}

// Linear is a dense layer y = x·W + b.
type Linear struct {
	W *ag.Param
	B *ag.Param
}

// NewLinear initializes a Linear layer with Xavier/Glorot-uniform weights.
func NewLinear(rng *rand.Rand, name string, in, out int) *Linear {
	bound := math.Sqrt(6.0 / float64(in+out))
	return &Linear{
		W: ag.NewParam(name+".W", tensor.RandUniform(rng, in, out, -bound, bound)),
		B: ag.NewParam(name+".b", tensor.New(1, out)),
	}
}

// ForwardBatch applies the layer to every panel's real rows of the stacked x
// via the fused matmul+bias kernel.
func (l *Linear) ForwardBatch(ctx *ag.Context, x *ag.Node, bl tensor.BatchLayout) *ag.Node {
	return ctx.SegLinear(x, l.W, l.B, bl)
}

// Params implements Module.
func (l *Linear) Params() []*ag.Param { return []*ag.Param{l.W, l.B} }

// LayerNorm normalizes rows and applies a learned affine transform.
type LayerNorm struct {
	G   *ag.Param
	B   *ag.Param
	Eps float64
}

// NewLayerNorm returns a LayerNorm over dim features (gamma=1, beta=0).
func NewLayerNorm(name string, dim int) *LayerNorm {
	return &LayerNorm{
		G:   ag.NewParam(name+".gamma", tensor.Full(1, dim, 1)),
		B:   ag.NewParam(name+".beta", tensor.New(1, dim)),
		Eps: 1e-5,
	}
}

// ForwardBatch normalizes every panel's real rows of the stacked x.
func (l *LayerNorm) ForwardBatch(ctx *ag.Context, x *ag.Node, bl tensor.BatchLayout) *ag.Node {
	return ctx.SegLayerNorm(x, l.G, l.B, l.Eps, bl)
}

// Params implements Module.
func (l *LayerNorm) Params() []*ag.Param { return []*ag.Param{l.G, l.B} }

// MultiHeadAttention is standard scaled dot-product attention over node
// sequences with an additive logit mask (the DAG reachability mask, Eqn 1 of
// the paper, or a neighbourhood mask for GAT-style restriction).
type MultiHeadAttention struct {
	Heads int
	Dim   int
	Wq    *Linear
	Wk    *Linear
	Wv    *Linear
	Wo    *Linear
}

// NewMultiHeadAttention builds attention over dim features with the given
// number of heads; dim must divide evenly by heads.
func NewMultiHeadAttention(rng *rand.Rand, name string, dim, heads int) *MultiHeadAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: dim %d not divisible by heads %d", dim, heads))
	}
	return &MultiHeadAttention{
		Heads: heads,
		Dim:   dim,
		Wq:    NewLinear(rng, name+".q", dim, dim),
		Wk:    NewLinear(rng, name+".k", dim, dim),
		Wv:    NewLinear(rng, name+".v", dim, dim),
		Wo:    NewLinear(rng, name+".o", dim, dim),
	}
}

// ForwardBatch computes masked attention independently inside every panel of
// the stacked x; masks[g] is graph g's additive Nᵍ×Nᵍ logit mask (the DAG
// reachability mask of Eqn 1, −Inf disabling positions; nil masks none for
// that graph).
func (m *MultiHeadAttention) ForwardBatch(ctx *ag.Context, x *ag.Node, masks []*tensor.Tensor, bl tensor.BatchLayout) *ag.Node {
	q := m.Wq.ForwardBatch(ctx, x, bl)
	k := m.Wk.ForwardBatch(ctx, x, bl)
	v := m.Wv.ForwardBatch(ctx, x, bl)
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	var buf [8]*ag.Node // ConcatCols copies its operands, so heads can stay on the stack
	heads := buf[:0]
	for h := 0; h < m.Heads; h++ {
		lo, hi := h*dk, (h+1)*dk
		qh := ctx.SliceCols(q, lo, hi)
		kh := ctx.SliceCols(k, lo, hi)
		vh := ctx.SliceCols(v, lo, hi)
		// Scaling and softmax both overwrite the score buffer in place:
		// PanelMatMulBT's backward reads its inputs, never its output, so
		// the raw scores are dead the moment they are produced.
		scores := ctx.ScaleInPlace(ctx.PanelMatMulBT(qh, kh, bl), scale)
		attn := ctx.PanelSoftmaxInPlace(scores, masks, bl)
		heads = append(heads, ctx.PanelMatMul(attn, vh, bl))
	}
	return m.Wo.ForwardBatch(ctx, ctx.ConcatCols(heads...), bl)
}

// Params implements Module.
func (m *MultiHeadAttention) Params() []*ag.Param {
	var ps []*ag.Param
	for _, l := range []*Linear{m.Wq, m.Wk, m.Wv, m.Wo} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// FeedForward is the transformer position-wise FFN: Linear→ReLU→Linear.
type FeedForward struct {
	In  *Linear
	Out *Linear
}

// NewFeedForward builds an FFN expanding dim→hidden→dim.
func NewFeedForward(rng *rand.Rand, name string, dim, hidden int) *FeedForward {
	return &FeedForward{
		In:  NewLinear(rng, name+".in", dim, hidden),
		Out: NewLinear(rng, name+".out", hidden, dim),
	}
}

// ForwardBatch applies the FFN to every panel's real rows of the stacked x.
func (f *FeedForward) ForwardBatch(ctx *ag.Context, x *ag.Node, bl tensor.BatchLayout) *ag.Node {
	return f.Out.ForwardBatch(ctx, ctx.ReLU(f.In.ForwardBatch(ctx, x, bl)), bl)
}

// Params implements Module.
func (f *FeedForward) Params() []*ag.Param {
	return append(f.In.Params(), f.Out.Params()...)
}

// MLPHead is the prediction head used after pooling: a stack of ReLU linear
// layers followed by a single-output layer.
type MLPHead struct {
	Hidden []*Linear
	Out    *Linear
}

// NewMLPHead builds in→dims[0]→…→dims[k−1]→1 with ReLU between layers.
func NewMLPHead(rng *rand.Rand, name string, in int, dims ...int) *MLPHead {
	h := &MLPHead{}
	prev := in
	for i, d := range dims {
		h.Hidden = append(h.Hidden, NewLinear(rng, fmt.Sprintf("%s.h%d", name, i), prev, d))
		prev = d
	}
	h.Out = NewLinear(rng, name+".out", prev, 1)
	return h
}

// ForwardBatch maps the pooled B×in tensor to B×1 predictions. bl is the
// stride-1 head layout (every row is one graph), which keeps the head's
// parameter gradients folding per graph like every other layer.
func (h *MLPHead) ForwardBatch(ctx *ag.Context, x *ag.Node, bl tensor.BatchLayout) *ag.Node {
	for _, l := range h.Hidden {
		x = ctx.ReLU(l.ForwardBatch(ctx, x, bl))
	}
	return h.Out.ForwardBatch(ctx, x, bl)
}

// Params implements Module.
func (h *MLPHead) Params() []*ag.Param {
	var ps []*ag.Param
	for _, l := range h.Hidden {
		ps = append(ps, l.Params()...)
	}
	return append(ps, h.Out.Params()...)
}

// SinusoidalPE returns a maxPos×dim table of fixed sinusoidal positional
// encodings (Vaswani et al.), used for DAGPE depth encodings.
func SinusoidalPE(maxPos, dim int) *tensor.Tensor {
	pe := tensor.New(maxPos, dim)
	for pos := 0; pos < maxPos; pos++ {
		row := pe.Row(pos)
		for i := 0; i < dim; i += 2 {
			freq := math.Pow(10000, -float64(i)/float64(dim))
			row[i] = math.Sin(float64(pos) * freq)
			if i+1 < dim {
				row[i+1] = math.Cos(float64(pos) * freq)
			}
		}
	}
	return pe
}
