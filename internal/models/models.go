// Package models builds tensor-level operator graphs (internal/ir) for the
// two benchmark models of the paper's evaluation (Table IV): GPT-3 1.3B and
// GShard-MoE 2.6B.
//
// A model is a sequence of segments — token embedding, decoder layers
// (dense or mixture-of-experts), and the LM head. A pipeline stage is a
// contiguous segment range; StageGraph emits its forward and (optionally)
// backward operators exactly the way Alpa slices a model's jaxpr into stage
// jaxprs before intra-operator compilation.
package models

import (
	"fmt"
	"strings"

	"predtop/internal/ir"
	"predtop/internal/obs"
)

// Config describes a benchmark model (Table IV).
type Config struct {
	Name         string
	SeqLen       int // tokens per microbatch
	Hidden       int
	Layers       int
	Heads        int
	Vocab        int
	Experts      int // 0 = dense model
	ExpertHidden int // expert FFN hidden size (MoE only)
	MoEEvery     int // every k-th decoder layer is MoE (GShard uses 2)
	Act          ir.DType
}

// GPT3 returns the GPT-3 1.3B configuration from Table IV.
func GPT3() Config {
	return Config{
		Name:   "GPT-3",
		SeqLen: 1024, Hidden: 2048, Layers: 24, Heads: 32, Vocab: 51200,
		Act: ir.BF16,
	}
}

// MoE returns the GShard-MoE 2.6B configuration from Table IV.
func MoE() Config {
	return Config{
		Name:   "MoE",
		SeqLen: 1024, Hidden: 768, Layers: 32, Heads: 16, Vocab: 32000,
		Experts: 16, ExpertHidden: 2048, MoEEvery: 2,
		Act: ir.BF16,
	}
}

// ByName resolves a benchmark name ("GPT-3", "gpt3", "MoE"; case and hyphens
// are ignored) to its Table-IV configuration, applying the depth override
// when layers > 0. ok is false for unknown names — callers reject them
// instead of falling back to a default benchmark.
func ByName(name string, layers int) (Config, bool) {
	var cfg Config
	switch strings.ToLower(strings.ReplaceAll(name, "-", "")) {
	case "gpt3":
		cfg = GPT3()
	case "moe":
		cfg = MoE()
	default:
		return Config{}, false
	}
	if layers > 0 {
		cfg.Layers = layers
	}
	return cfg, true
}

// SegmentKind identifies the role of a model segment.
type SegmentKind uint8

// Segment kinds.
const (
	SegEmbedding SegmentKind = iota
	SegDecoder
	SegMoEDecoder
	SegHead
)

// String implements fmt.Stringer.
func (k SegmentKind) String() string {
	switch k {
	case SegEmbedding:
		return "embedding"
	case SegDecoder:
		return "decoder"
	case SegMoEDecoder:
		return "moe-decoder"
	case SegHead:
		return "head"
	}
	return "segment"
}

// Segment is one pipeline-sliceable unit of the model.
type Segment struct {
	Name  string
	Kind  SegmentKind
	Index int // decoder layer index, −1 for embedding/head
}

// Model is a benchmark model ready to emit stage graphs.
type Model struct {
	Config   Config
	Segments []Segment
	// kinds holds byte(Segments[i].Kind) for every segment, so a stage
	// class is a substring of it.
	kinds string
	// Prof, when non-nil, times every StageGraph emission as a
	// "stage_graph[lo:hi)" span — the labeling path's graph builds, one per
	// stage class per cache, are a large part of simulator-side time.
	// A nil profiler costs nothing (obs no-op contract).
	Prof *obs.Profiler
}

// Build constructs the segment list for cfg.
func Build(cfg Config) *Model {
	m := &Model{Config: cfg}
	m.Segments = append(m.Segments, Segment{Name: "embed", Kind: SegEmbedding, Index: -1})
	for i := 0; i < cfg.Layers; i++ {
		kind := SegDecoder
		if cfg.Experts > 0 && cfg.MoEEvery > 0 && i%cfg.MoEEvery == 1 {
			kind = SegMoEDecoder
		}
		m.Segments = append(m.Segments, Segment{Name: fmt.Sprintf("layer%d", i), Kind: kind, Index: i})
	}
	m.Segments = append(m.Segments, Segment{Name: "head", Kind: SegHead, Index: -1})
	kinds := make([]byte, len(m.Segments))
	for i, s := range m.Segments {
		kinds[i] = byte(s.Kind)
	}
	m.kinds = string(kinds)
	return m
}

// NumSegments returns the number of sliceable segments.
func (m *Model) NumSegments() int { return len(m.Segments) }

// SegmentParams returns the trainable-parameter count of segment i.
func (m *Model) SegmentParams(i int) int64 {
	c := m.Config
	h := int64(c.Hidden)
	switch m.Segments[i].Kind {
	case SegEmbedding:
		return int64(c.Vocab)*h + int64(c.SeqLen)*h
	case SegDecoder:
		// QKV + out projection + dense FFN (4×hidden) + layer norms.
		return 4*h*h + 8*h*h + 4*h
	case SegMoEDecoder:
		attn := 4 * h * h
		gate := h * int64(c.Experts)
		experts := int64(c.Experts) * 2 * h * int64(c.ExpertHidden)
		return attn + gate + experts + 4*h
	case SegHead:
		return h * int64(c.Vocab)
	}
	return 0
}

// TotalParams returns the model's total trainable-parameter count.
func (m *Model) TotalParams() int64 {
	var t int64
	for i := range m.Segments {
		t += m.SegmentParams(i)
	}
	return t
}

// StageClass identifies the graphs StageGraph emits for segments [lo, hi):
// the kinds of those segments, in order. A segment's layer index only names
// its nodes, so two stages of one model with equal classes get graphs of
// identical structure — operators, shapes, dtypes, weights and edges — and
// every cost derived from a graph (intra-op optimum, memory, profiling cost,
// encoding) is equal across a class. Classes are comparable map keys, valid
// within one model; a caller holding both graph directions adds backward to
// its key.
type StageClass struct{ kinds string }

// StageClass returns the class of segments [lo, hi): a substring of the kinds
// Build recorded, so it allocates nothing.
func (m *Model) StageClass(lo, hi int) StageClass {
	m.checkRange(lo, hi)
	return StageClass{m.kinds[lo:hi]}
}

func (m *Model) checkRange(lo, hi int) {
	if lo < 0 || hi > len(m.Segments) || lo >= hi {
		panic(fmt.Sprintf("models: bad stage range [%d,%d) of %d", lo, hi, len(m.Segments)))
	}
}

// StageGraph emits the operator graph for segments [lo, hi). When backward
// is true (training stages — the case the paper profiles) the backward pass
// is appended.
func (m *Model) StageGraph(lo, hi int, backward bool) *ir.Graph {
	m.checkRange(lo, hi)
	if m.Prof.Enabled() { // skip span-name formatting when profiling is off
		sp := m.Prof.Start(fmt.Sprintf("stage_graph[%d:%d)", lo, hi))
		defer sp.End()
	}
	c := m.Config
	b := ir.NewBuilder()
	e := emitter{b: b, cfg: c}

	var x *ir.Node
	if m.Segments[lo].Kind == SegEmbedding {
		ids := b.Input("ids", []int{c.SeqLen}, ir.I32)
		x = e.embedding(ids)
		lo++
	} else {
		x = b.Input("act", []int{c.SeqLen, c.Hidden}, c.Act)
	}
	for i := lo; i < hi; i++ {
		switch m.Segments[i].Kind {
		case SegDecoder:
			x = e.decoder(x, m.Segments[i].Index, false)
		case SegMoEDecoder:
			x = e.decoder(x, m.Segments[i].Index, true)
		case SegHead:
			x = e.head(x)
		case SegEmbedding:
			panic("models: embedding segment must be first in a stage")
		}
	}
	b.Output(x)
	if backward {
		b.AppendBackward()
	}
	return b.Graph()
}

// emitter emits segment subgraphs into one builder.
type emitter struct {
	b   *ir.Builder
	cfg Config
}

// scalar emits a scalar literal in x's dtype (1/√d, GELU constants, …);
// element-wise ops broadcast it implicitly, as jaxprs do after
// canonicalization.
func (e *emitter) scalar(name string, x *ir.Node) *ir.Node {
	return e.b.Literal(name, []int{1}, x.DType)
}

// layerNorm emits a decomposed layer normalization over the last axis of x
// plus the learned affine transform. Note the affine weights are rank-1 but
// multiply a rank-2 activation; jaxprs express this with broadcasts that the
// pruner would elide, so we emit the fused pattern directly.
func (e *emitter) layerNorm(name string, x *ir.Node) *ir.Node {
	b := e.b
	d := len(x.Shape) - 1
	mean := b.Reduce(ir.KindReduceSum, x, d)
	mean = b.Ewise(ir.KindMul, mean, e.scalar(name+".invd", x))
	xc := b.Ewise(ir.KindSub, x, mean)
	sq := b.Ewise(ir.KindMul, xc, xc)
	varr := b.Reduce(ir.KindReduceSum, sq, d)
	inv := b.Unary(ir.KindRsqrt, varr)
	xn := b.Ewise(ir.KindMul, xc, inv)
	// Affine transform along the hidden axis: emitted as a rank-2 literal
	// row so the element-wise broadcast stays prefix-shaped.
	gamma := b.Weight(name+".gamma", []int{e.cfg.Hidden}, ir.F32)
	beta := b.Weight(name+".beta", []int{e.cfg.Hidden}, ir.F32)
	xn = b.Ewise(ir.KindMul, xn, b.Broadcast(b.Convert(gamma, x.DType), x.Shape))
	return b.Ewise(ir.KindAdd, xn, b.Broadcast(b.Convert(beta, x.DType), x.Shape))
}

// linear emits x·W with weights stored in f32 and converted to the
// activation dtype (the mixed-precision pattern that makes
// convert_element_type pruning worthwhile).
func (e *emitter) linear(name string, x *ir.Node, in, out int) *ir.Node {
	b := e.b
	w := b.Weight(name+".w", []int{in, out}, ir.F32)
	return b.Dot(x, b.Convert(w, x.DType))
}

// gelu emits the erf-form GELU: x·(1 + erf(x/√2))/2.
func (e *emitter) gelu(name string, x *ir.Node) *ir.Node {
	b := e.b
	scaled := b.Ewise(ir.KindMul, x, e.scalar(name+".isqrt2", x))
	erf := b.Unary(ir.KindErf, scaled)
	one := b.Ewise(ir.KindAdd, erf, e.scalar(name+".one", erf))
	return b.Ewise(ir.KindMul, b.Ewise(ir.KindMul, x, one), e.scalar(name+".half", x))
}

// softmaxLastAxis emits the decomposed numerically-stable softmax.
func (e *emitter) softmaxLastAxis(x *ir.Node) *ir.Node {
	b := e.b
	d := len(x.Shape) - 1
	mx := b.Reduce(ir.KindReduceMax, x, d)
	ex := b.Unary(ir.KindExp, b.Ewise(ir.KindSub, x, mx))
	z := b.Reduce(ir.KindReduceSum, ex, d)
	return b.Ewise(ir.KindDiv, ex, z)
}

// embedding emits token + position embedding lookup: ids [S] → [S, H].
func (e *emitter) embedding(ids *ir.Node) *ir.Node {
	b, c := e.b, e.cfg
	table := b.Weight("embed.tok", []int{c.Vocab, c.Hidden}, ir.F32)
	x := b.Gather(table, ids, []int{c.SeqLen, c.Hidden})
	x = b.Convert(x, c.Act)
	pos := b.Weight("embed.pos", []int{c.SeqLen, c.Hidden}, ir.F32)
	return b.Ewise(ir.KindAdd, x, b.Convert(pos, c.Act))
}

// attention emits multi-head causal self-attention on x [S, H].
func (e *emitter) attention(name string, x *ir.Node) *ir.Node {
	b, c := e.b, e.cfg
	s, h := c.SeqLen, c.Hidden
	dk := h / c.Heads
	q := e.linear(name+".q", x, h, h)
	k := e.linear(name+".k", x, h, h)
	v := e.linear(name+".v", x, h, h)
	// [S, H] → [heads, S, dk]
	qh := b.Transpose(b.Reshape(q, []int{s, c.Heads, dk}), 1, 0, 2)
	kh := b.Transpose(b.Reshape(k, []int{s, c.Heads, dk}), 1, 2, 0) // [heads, dk, S]
	vh := b.Transpose(b.Reshape(v, []int{s, c.Heads, dk}), 1, 0, 2)
	scores := b.Dot(qh, kh) // [heads, S, S]
	scores = b.Ewise(ir.KindMul, scores, e.scalar(name+".scale", scores))
	mask := b.Literal(name+".causal", scores.Shape, c.Act)
	scores = b.Ewise(ir.KindAdd, scores, mask)
	probs := e.softmaxLastAxis(scores)
	ctxv := b.Dot(probs, vh) // [heads, S, dk]
	out := b.Reshape(b.Transpose(ctxv, 1, 0, 2), []int{s, h})
	return e.linear(name+".o", out, h, h)
}

// decoder emits one transformer decoder layer (dense or MoE FFN).
func (e *emitter) decoder(x *ir.Node, layer int, moe bool) *ir.Node {
	b := e.b
	name := fmt.Sprintf("l%d", layer)
	attnIn := e.layerNorm(name+".ln1", x)
	x = b.Ewise(ir.KindAdd, x, e.attention(name+".attn", attnIn))
	ffnIn := e.layerNorm(name+".ln2", x)
	var ffnOut *ir.Node
	if moe {
		ffnOut = e.moeFFN(name+".moe", ffnIn)
	} else {
		ffnOut = e.denseFFN(name+".ffn", ffnIn)
	}
	return b.Ewise(ir.KindAdd, x, ffnOut)
}

// denseFFN emits the standard H→4H→H feed-forward block.
func (e *emitter) denseFFN(name string, x *ir.Node) *ir.Node {
	h := e.cfg.Hidden
	up := e.linear(name+".up", x, h, 4*h)
	return e.linear(name+".down", e.gelu(name, up), 4*h, h)
}

// moeFFN emits a GShard-style top-1 routed mixture-of-experts block:
// gating, dispatch, per-expert batched FFN, combine.
func (e *emitter) moeFFN(name string, x *ir.Node) *ir.Node {
	b, c := e.b, e.cfg
	s, h, ne, eh := c.SeqLen, c.Hidden, c.Experts, c.ExpertHidden
	capacity := s / ne * 2 // capacity factor 2

	logits := e.linear(name+".gate", x, h, ne) // [S, E]
	gates := e.softmaxLastAxis(logits)
	top := b.Reduce(ir.KindReduceMax, gates, 1) // [S]
	sel := b.Ewise(ir.KindCompare, gates, top)
	masked := b.Select(sel, gates, b.Literal(name+".zeros", []int{1}, gates.DType))
	pos := b.CumSum(masked, 0) // position within expert buffers

	// Dispatch: [E·cap, S] one-hot-like dispatch matrix times tokens.
	dispatch := b.Gather(pos, b.Iota([]int{ne * capacity}, ir.I32), []int{ne * capacity, s})
	buf := b.Dot(dispatch, x)                      // [E·cap, H]
	buf3 := b.Reshape(buf, []int{ne, capacity, h}) // [E, cap, H]
	w1 := b.Weight(name+".w1", []int{ne, h, eh}, ir.F32)
	hmid := b.Dot(buf3, b.Convert(w1, buf3.DType)) // [E, cap, eh]
	hact := e.gelu(name+".egelu", hmid)
	w2 := b.Weight(name+".w2", []int{ne, eh, h}, ir.F32)
	eout := b.Dot(hact, b.Convert(w2, hact.DType)) // [E, cap, H]
	flat := b.Reshape(eout, []int{ne * capacity, h})

	// Combine back to token order, scaled by the gate value.
	combine := b.Transpose(dispatch, 1, 0) // [S, E·cap]
	y := b.Dot(combine, flat)              // [S, H]
	return b.Ewise(ir.KindMul, y, top)
}

// head emits the final layer norm, LM projection, and a cross-entropy-style
// loss reduction (training stages end in the loss).
func (e *emitter) head(x *ir.Node) *ir.Node {
	b, c := e.b, e.cfg
	xn := e.layerNorm("head.ln", x)
	logits := e.linear("head.lm", xn, c.Hidden, c.Vocab) // [S, V]
	probs := e.softmaxLastAxis(logits)
	lp := b.Unary(ir.KindLog, probs)
	picked := b.Ewise(ir.KindMul, lp, b.Literal("head.onehot", lp.Shape, lp.DType))
	loss := b.Reduce(ir.KindReduceSum, b.Reduce(ir.KindReduceSum, picked, 1), 0)
	return b.Unary(ir.KindNeg, loss)
}
