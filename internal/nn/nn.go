// Package nn provides the neural-network building blocks used by the latency
// predictors: linear layers, layer normalization, masked multi-head
// attention, and feed-forward blocks, all built on internal/ag. Every block
// has one forward, Forward, over one stage graph's N-row node tensor.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"predtop/internal/ag"
	"predtop/internal/tensor"
	"predtop/internal/xmath"
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

// Forward applies the layer to every row of x via the fused matmul+bias
// kernel.
func (l *Linear) Forward(ctx *ag.Context, x *ag.Node) *ag.Node {
	return ctx.Linear(x, l.W, l.B)
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

// Forward normalizes every row of x.
func (l *LayerNorm) Forward(ctx *ag.Context, x *ag.Node) *ag.Node {
	return ctx.LayerNorm(x, l.G, l.B, l.Eps)
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

// Forward computes masked attention over the graph's nodes; mask is the
// additive N×N logit mask (the DAG reachability mask of Eqn 1, −Inf
// disabling positions; nil masks nothing).
func (m *MultiHeadAttention) Forward(ctx *ag.Context, x *ag.Node, mask *tensor.Tensor) *ag.Node {
	q := m.Wq.Forward(ctx, x)
	k := m.Wk.Forward(ctx, x)
	v := m.Wv.Forward(ctx, x)
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
		// MatMulBT's backward reads its inputs, never its output, so the raw
		// scores are dead the moment they are produced.
		scores := ctx.ScaleInPlace(ctx.MatMulBT(qh, kh), scale)
		attn := ctx.SoftmaxInPlace(scores, mask)
		heads = append(heads, ctx.MatMul(attn, vh))
	}
	return m.Wo.Forward(ctx, ctx.ConcatCols(heads...))
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

// Forward applies the FFN to every row of x.
func (f *FeedForward) Forward(ctx *ag.Context, x *ag.Node) *ag.Node {
	return f.Out.Forward(ctx, ctx.ReLU(f.In.Forward(ctx, x)))
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

// Forward maps the pooled 1×in row to the 1×1 prediction.
func (h *MLPHead) Forward(ctx *ag.Context, x *ag.Node) *ag.Node {
	for _, l := range h.Hidden {
		x = ctx.ReLU(l.Forward(ctx, x))
	}
	return h.Out.Forward(ctx, x)
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
			freq := xmath.Pow(10000, -float64(i)/float64(dim))
			row[i] = math.Sin(float64(pos) * freq)
			if i+1 < dim {
				row[i+1] = math.Cos(float64(pos) * freq)
			}
		}
	}
	return pe
}
