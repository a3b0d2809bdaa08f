// Panel tape ops: one tape records B stage graphs (B may be 1) stacked into
// padded panel tensors (tensor.BatchLayout), so B graphs run one forward and
// one backward. Every op is panel-block-diagonal and built on row kernels
// whose operand ranges depend on the graph alone, so each graph's values and
// gradients are bitwise identical in any batch composition.
//
// Parameter gradients do not flow through opParam leaves here. The three
// segmented ops that carry parameters (SegLinear, SegMatMul, SegLayerNorm)
// write one gradient part per panel into a PanelGrads slot keyed by
// (parameter, global panel index), and PanelGrads.Fold adds each parameter's
// parallel.TreeReduce over its parts into Param.Grad — a tree whose pairwise
// shape depends on the panel count alone. A standalone tape folds its own
// parts at the end of BackwardVec; tapes routed to a shared PanelGrads
// (RouteGrads) leave the fold to its owner, so B graphs run as one tape, as
// several, or as B tapes of one graph each — on any goroutines — end with the
// same Param.Grad bits. Each parameter enters one such op per tape.
package ag

import (
	"fmt"
	"math"

	"predtop/internal/parallel"
	"predtop/internal/tensor"
)

// PanelGrads holds the parameter-gradient parts of the segmented ops, one
// slot per (parameter, global panel index), until Fold adds them into
// Param.Grad.
type PanelGrads struct {
	index  map[*Param]int
	params []*Param
	parts  [][]*tensor.Tensor // parts[i][k]: params[i]'s part from global panel k
	// panels counts the panels a tape's own store (Context.own) has written
	// since its last fold. That store registers parameters as the backward
	// reaches them, draws its slots from the tape's arena, and is folded and
	// cleared by every unrouted BackwardVec.
	panels int
}

// NewPanelGrads returns a store with a slot for each of params' parts from
// global panels [0, panels), carved from one buffer. Tapes routed to it
// (RouteGrads) may run concurrently as long as their panel ranges are
// disjoint.
func NewPanelGrads(params []*Param, panels int) *PanelGrads {
	size := 0
	for _, p := range params {
		size += p.V.Size()
	}
	data := make([]float64, size*panels)
	slots := make([]tensor.Tensor, len(params)*panels)
	refs := make([]*tensor.Tensor, len(slots))
	g := &PanelGrads{
		index:  make(map[*Param]int, len(params)),
		params: append([]*Param(nil), params...),
		parts:  make([][]*tensor.Tensor, len(params)),
	}
	for i, p := range params {
		g.index[p] = i
		g.parts[i] = refs[i*panels : (i+1)*panels : (i+1)*panels]
		for k := range g.parts[i] {
			t := &slots[i*panels+k]
			t.R, t.C, t.Data = p.V.R, p.V.C, data[:p.V.Size():p.V.Size()]
			data = data[p.V.Size():]
			g.parts[i][k] = t
		}
	}
	return g
}

// Fold adds, for every parameter, the fixed-shape tree sum of its parts from
// panels [0, n) into Param.Grad. The parts serve as reduction scratch.
func (g *PanelGrads) Fold(n int) {
	for i, p := range g.params {
		if n > len(g.parts[i]) {
			panic(fmt.Sprintf("ag: folding %d panels of %s, which has %d", n, p.Name, len(g.parts[i])))
		}
		foldGrad(p, g.parts[i][:n])
	}
}

// foldGrad adds the fixed-shape tree sum of parts (one per panel, used as
// reduction scratch) into p.Grad.
func foldGrad(p *Param, parts []*tensor.Tensor) {
	tensor.AddInPlace(p.Grad, parallel.TreeReduce(parts, func(a, b *tensor.Tensor) *tensor.Tensor {
		tensor.AddInPlace(a, b)
		return a
	}))
}

// tapePart returns a tape's own slot for p's part from panel k, registering
// p and drawing the slot from a. Panels arrive in order, so a slot that
// already exists means p entered a second segmented op on this tape.
func (g *PanelGrads) tapePart(p *Param, k int, a *tensor.Arena) *tensor.Tensor {
	i, ok := g.index[p]
	if !ok {
		i = len(g.params)
		g.index[p] = i
		g.params = append(g.params, p)
		if i == len(g.parts) {
			g.parts = append(g.parts, nil)
		}
		g.parts[i] = g.parts[i][:0]
	}
	if k != len(g.parts[i]) {
		panic("ag: parameter " + p.Name + " enters two segmented ops on one tape")
	}
	t := a.GetUninit(p.V.R, p.V.C)
	g.parts[i] = append(g.parts[i], t)
	g.panels = max(g.panels, k+1)
	return t
}

// clearTape drops a tape's own registrations; the slots' buffers go back
// with the arena.
func (g *PanelGrads) clearTape() {
	clear(g.index)
	g.params = g.params[:0]
	g.panels = 0
}

// RouteGrads sends this tape's parameter-gradient parts to g: the part from
// the tape's panel k lands in global panel offset+k, and BackwardVec leaves
// folding to g's owner (g.Fold). g must hold every parameter the tape's
// segmented ops use and at least offset+B panels. Routing survives Reset.
// Param leaves (Context.Param) still accumulate straight into Param.Grad, so
// tapes sharing g concurrently must not use them.
func (c *Context) RouteGrads(g *PanelGrads, offset int) {
	c.grads, c.offset = g, offset
}

// gradPart returns the slot the tape's panel k writes p's gradient part to:
// fully overwritten by the caller.
func (c *Context) gradPart(p *Param, k int) *tensor.Tensor {
	if g := c.grads; g != nil {
		i, ok := g.index[p]
		if !ok {
			panic("ag: parameter " + p.Name + " has no slot in the routed PanelGrads")
		}
		return g.parts[i][c.offset+k]
	}
	return c.own.tapePart(p, k, c.arena)
}

// BackwardVec seeds every element of loss with gradient 1 and propagates
// through the tape in reverse recording order — the gradient of the sum of
// the loss's elements. No op mixes panels, so on a B×1 per-graph loss each
// panel's gradient part is exactly the gradient of its own graph's loss. A
// standalone tape then folds its parts into Param.Grad; a routed one leaves
// them in its PanelGrads. When a profiling span is attached and layer marks
// were recorded, the replay is additionally timed per layer (see
// profile.go); the gradient math is identical either way.
func (c *Context) BackwardVec(loss *Node) {
	seed := c.arena.GetUninit(loss.V.R, loss.V.C)
	for i := range seed.Data {
		seed.Data[i] = 1
	}
	loss.grad = seed
	if len(c.marks) > 0 && c.span.Enabled() {
		bspan := c.span.Start("backward")
		c.backwardProfiled(bspan)
		bspan.End()
	} else {
		for i := len(c.nodes) - 1; i >= 0; i-- {
			n := c.nodes[i]
			if n.grad == nil || !n.requires {
				continue
			}
			c.runBack(n)
		}
	}
	if c.grads == nil {
		c.own.Fold(c.own.panels)
		c.own.clearTape()
	}
}

// clearPadRows zeroes rows [lo, hi) of t — pad rows of a freshly computed
// gradient, kept zero so downstream elementwise accumulation stays finite
// and panel reductions never see garbage.
func clearPadRows(t *tensor.Tensor, lo, hi int) {
	clear(t.Data[lo*t.C : hi*t.C])
}

// SegLinear is the batched fused dense layer x·W + b over every panel's real
// rows (pad rows zero). W and b gradients are computed per panel into the
// tape's PanelGrads slots.
func (c *Context) SegLinear(x *Node, w, b *Param, l tensor.BatchLayout) *Node {
	v := c.arena.GetUninit(x.V.R, w.V.C)
	tensor.SegLinearInto(v, x.V, w.V, b.V, l)
	n := c.node(opSegLinear, v, true)
	n.a, n.p1, n.p2, n.bl = x, w, b, l
	return n
}

func (c *Context) backSegLinear(n *Node) {
	g, x, w, b, l := n.grad, n.a, n.p1, n.p2, n.bl
	if x.requires {
		d := c.arena.GetUninit(g.R, w.V.R)
		tensor.SegMatMulBTInto(d, g, w.V, l) // dX = g·Wᵀ per panel
		c.accumOwn(x, d)
	}
	for gi := 0; gi < l.B; gi++ {
		lo := gi * l.Stride
		hi := lo + l.Counts[gi]
		tensor.MatMulATRangeInto(c.gradPart(w, gi), x.V, g, lo, hi) // dW = X_gᵀ·g_g
		tensor.SumRowsRangeInto(c.gradPart(b, gi), g, lo, hi)
	}
}

// SegMatMul multiplies every panel's real rows by a shared parameter matrix
// (e.g. a GAT attention vector); the parameter gradient is computed per
// panel into the tape's PanelGrads slots.
func (c *Context) SegMatMul(a *Node, p *Param, l tensor.BatchLayout) *Node {
	v := c.arena.GetUninit(a.V.R, p.V.C)
	tensor.SegMatMulInto(v, a.V, p.V, l)
	n := c.node(opSegMatMulP, v, true)
	n.a, n.p1, n.bl = a, p, l
	return n
}

func (c *Context) backSegMatMulP(n *Node) {
	g, a, p, l := n.grad, n.a, n.p1, n.bl
	if a.requires {
		d := c.arena.GetUninit(g.R, p.V.R)
		tensor.SegMatMulBTInto(d, g, p.V, l)
		c.accumOwn(a, d)
	}
	for gi := 0; gi < l.B; gi++ {
		lo := gi * l.Stride
		hi := lo + l.Counts[gi]
		tensor.MatMulATRangeInto(c.gradPart(p, gi), a.V, g, lo, hi)
	}
}

// SegLayerNorm normalizes each real row to zero mean and unit variance, then
// scales by γ and shifts by β (both 1×C); pad rows are zero. γ/β gradients
// are computed per panel into the tape's PanelGrads slots.
func (c *Context) SegLayerNorm(x *Node, gamma, beta *Param, eps float64, l tensor.BatchLayout) *Node {
	rows, d := x.V.R, x.V.C
	xhat := c.arena.GetUninit(rows, d)
	invstd := c.arena.GetUninit(rows, 1)
	y := c.arena.GetUninit(rows, d)
	gd, bd := gamma.V.Data, beta.V.Data
	for gi := 0; gi < l.B; gi++ {
		lo := gi * l.Stride
		hi := lo + l.Counts[gi]
		for i := lo; i < hi; i++ {
			row := x.V.Row(i)
			mean := 0.0
			for _, v := range row {
				mean += v
			}
			mean /= float64(d)
			varr := 0.0
			for _, v := range row {
				dv := v - mean
				varr += dv * dv
			}
			varr /= float64(d)
			is := 1 / math.Sqrt(varr+eps)
			invstd.Data[i] = is
			xrow := xhat.Row(i)
			for j, v := range row {
				xrow[j] = (v - mean) * is
			}
			yrow := y.Row(i)
			for j := range yrow {
				yrow[j] = xrow[j]*gd[j] + bd[j]
			}
		}
		clearPadRows(y, hi, lo+l.Stride)
		clearPadRows(xhat, hi, lo+l.Stride)
	}
	n := c.node(opSegLayerNorm, y, true)
	n.a, n.p1, n.p2, n.s, n.bl = x, gamma, beta, eps, l
	n.aux, n.aux2 = xhat, invstd
	return n
}

func (c *Context) backSegLayerNorm(n *Node) {
	g, x, gamma, beta, l := n.grad, n.a, n.p1, n.p2, n.bl
	d := n.V.C
	xhat, invstd := n.aux, n.aux2.Data
	gd := gamma.V.Data
	var dx *tensor.Tensor
	if x.requires {
		dx = c.arena.GetUninit(n.V.R, d)
	}
	for gi := 0; gi < l.B; gi++ {
		lo := gi * l.Stride
		hi := lo + l.Counts[gi]
		dgam := c.gradPart(gamma, gi)
		clear(dgam.Data)
		for i := lo; i < hi; i++ {
			grow, xrow := g.Row(i), xhat.Row(i)
			for j := range grow {
				dgam.Data[j] += grow[j] * xrow[j]
			}
		}
		tensor.SumRowsRangeInto(c.gradPart(beta, gi), g, lo, hi)
		if dx == nil {
			continue
		}
		for i := lo; i < hi; i++ {
			grow, xrow, drow := g.Row(i), xhat.Row(i), dx.Row(i)
			sum1, sum2 := 0.0, 0.0
			for j := range grow {
				dxh := grow[j] * gd[j]
				drow[j] = dxh
				sum1 += dxh
				sum2 += dxh * xrow[j]
			}
			inv := invstd[i] / float64(d)
			for j := range drow {
				drow[j] = inv * (float64(d)*drow[j] - sum1 - xrow[j]*sum2)
			}
		}
		clearPadRows(dx, hi, lo+l.Stride)
	}
	if dx != nil {
		c.accumOwn(x, dx)
	}
}

// SegSumRows pools each panel's real rows into one row — the batched
// global-add-pool, producing B×C from the stacked node tensor.
func (c *Context) SegSumRows(x *Node, l tensor.BatchLayout) *Node {
	v := c.arena.GetUninit(l.B, x.V.C)
	tensor.SegSumRowsInto(v, x.V, l)
	n := c.node(opSegSumRows, v, x.requires)
	n.a, n.bl = x, l
	return n
}

func (c *Context) backSegSumRows(n *Node) {
	g, x, l := n.grad, n.a, n.bl
	d := c.arena.GetUninit(x.V.R, x.V.C)
	for gi := 0; gi < l.B; gi++ {
		lo := gi * l.Stride
		hi := lo + l.Counts[gi]
		grow := g.Row(gi)
		for i := lo; i < hi; i++ {
			copy(d.Row(i), grow)
		}
		clearPadRows(d, hi, lo+l.Stride)
	}
	c.accumOwn(x, d)
}

// PanelMatMulBT computes each panel's score matrix a_g·b_gᵀ from stacked
// inputs into a panel-width (rows×Stride) tensor.
func (c *Context) PanelMatMulBT(a, b *Node, l tensor.BatchLayout) *Node {
	v := c.arena.GetUninit(a.V.R, l.Stride)
	tensor.PanelMatMulBTInto(v, a.V, b.V, l)
	n := c.node(opPanelMatMulBT, v, anyRequires(a, b))
	n.a, n.b, n.bl = a, b, l
	return n
}

func (c *Context) backPanelMatMulBT(n *Node) {
	g, a, b, l := n.grad, n.a, n.b, n.bl
	if a.requires {
		d := c.arena.GetUninit(a.V.R, a.V.C)
		tensor.PanelMatMulInto(d, g, b.V, l) // dA = g_g·B_g per panel
		c.accumOwn(a, d)
	}
	if b.requires {
		d := c.arena.GetUninit(b.V.R, b.V.C)
		tensor.PanelMatMulATInto(d, g, a.V, l) // dB = g_gᵀ·A_g per panel
		c.accumOwn(b, d)
	}
}

// PanelMatMul multiplies each panel's attention weights (panel-width a) by
// the panel's rows of stacked b — the attention·V product.
func (c *Context) PanelMatMul(a, b *Node, l tensor.BatchLayout) *Node {
	v := c.arena.GetUninit(a.V.R, b.V.C)
	tensor.PanelMatMulInto(v, a.V, b.V, l)
	n := c.node(opPanelMatMul, v, anyRequires(a, b))
	n.a, n.b, n.bl = a, b, l
	return n
}

func (c *Context) backPanelMatMul(n *Node) {
	g, a, b, l := n.grad, n.a, n.b, n.bl
	if a.requires {
		d := c.arena.GetUninit(a.V.R, a.V.C)
		tensor.PanelMatMulBTInto(d, g, b.V, l) // dA = g_g·B_gᵀ per panel
		c.accumOwn(a, d)
	}
	if b.requires {
		d := c.arena.GetUninit(b.V.R, b.V.C)
		tensor.PanelMatMulATInto(d, a.V, g, l) // dB = A_gᵀ·g_g per panel
		c.accumOwn(b, d)
	}
}

// PanelSoftmaxInPlace applies each panel's masked row softmax over its
// logical width, in x's own buffer. Safe only when no other node's backward
// pass reads x's value: softmax's own VJP needs only its output, which this
// node now holds. masks[g] is graph g's additive c×c mask (nil disables
// masking for that graph).
func (c *Context) PanelSoftmaxInPlace(x *Node, masks []*tensor.Tensor, l tensor.BatchLayout) *Node {
	tensor.PanelSoftmaxInto(x.V, x.V, masks, l)
	n := c.node(opPanelSoftmax, x.V, x.requires)
	n.a, n.mts, n.bl = x, masks, l
	return n
}

func (c *Context) backPanelSoftmax(n *Node) {
	g, y, l := n.grad, n.V, n.bl
	d := c.arena.GetUninit(g.R, g.C)
	s := l.Stride
	for gi := 0; gi < l.B; gi++ {
		cnt := l.Counts[gi]
		base := gi * s
		for i := base; i < base+cnt; i++ {
			grow := g.Data[i*s : i*s+cnt]
			yrow := y.Data[i*s : i*s+cnt]
			drow := d.Data[i*s : i*s+cnt]
			dotgy := 0.0
			for j := range grow {
				dotgy += grow[j] * yrow[j]
			}
			tensor.SoftmaxBackRow(drow, grow, yrow, dotgy)
			clear(d.Data[i*s+cnt : (i+1)*s])
		}
		clearPadRows(d, base+cnt, base+s)
	}
	c.accumOwn(n.a, d)
}
