// Panel tape ops: one tape records B stage graphs (B may be 1) stacked into
// padded panel tensors (tensor.BatchLayout), so a minibatch runs one forward
// and one backward. Every op is panel-block-diagonal and built on row kernels
// whose operand ranges depend on the graph alone, so each graph's values and
// gradients are bitwise identical in any batch composition.
//
// Parameter gradients do not flow through opParam leaves here. The three
// segmented ops that carry parameters (SegLinear, SegMatMul, SegLayerNorm)
// compute one gradient part per panel as an arena temporary and fold the
// parts into Param.Grad through parallel.TreeReduce, whose pairwise shape
// depends on B alone. Each parameter enters one such op per tape, so a
// B-graph tape's Param.Grad is, bit for bit, that tree over the gradients
// each graph produces alone at B=1.
package ag

import (
	"math"

	"predtop/internal/parallel"
	"predtop/internal/tensor"
)

// panelParts returns two length-b slices of context-owned scratch for
// per-panel parameter gradient parts, valid until the next call.
func (c *Context) panelParts(b int) (first, second []*tensor.Tensor) {
	if cap(c.parts) < 2*b {
		c.parts = make([]*tensor.Tensor, 2*b)
	}
	return c.parts[:b:b], c.parts[b : 2*b]
}

// foldGrad adds the fixed-shape tree sum of parts (one per panel, used as
// reduction scratch) into p.Grad.
func foldGrad(p *Param, parts []*tensor.Tensor) {
	tensor.AddInPlace(p.Grad, parallel.TreeReduce(parts, func(a, b *tensor.Tensor) *tensor.Tensor {
		tensor.AddInPlace(a, b)
		return a
	}))
}

// BackwardVec seeds every element of loss with gradient 1 and propagates
// through the tape in reverse recording order — the gradient of the sum of
// the loss's elements. No op mixes panels, so on a B×1 per-graph loss each
// panel's gradient part is exactly the gradient of its own graph's loss. When a
// profiling span is attached and layer marks were recorded, the replay is
// additionally timed per layer (see profile.go); the gradient math is
// identical either way.
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
		return
	}
	for i := len(c.nodes) - 1; i >= 0; i-- {
		n := c.nodes[i]
		if n.grad == nil || !n.requires {
			continue
		}
		c.runBack(n)
	}
}

// clearPadRows zeroes rows [lo, hi) of t — pad rows of a freshly computed
// gradient, kept zero so downstream elementwise accumulation stays finite
// and panel reductions never see garbage.
func clearPadRows(t *tensor.Tensor, lo, hi int) {
	clear(t.Data[lo*t.C : hi*t.C])
}

// SegLinear is the batched fused dense layer x·W + b over every panel's real
// rows (pad rows zero). W and b gradients are computed per panel and folded
// into Param.Grad.
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
	dws, dbs := c.panelParts(l.B)
	for gi := 0; gi < l.B; gi++ {
		lo := gi * l.Stride
		hi := lo + l.Counts[gi]
		dws[gi] = c.arena.GetUninit(x.V.C, g.C)
		tensor.MatMulATRangeInto(dws[gi], x.V, g, lo, hi) // dW = X_gᵀ·g_g
		dbs[gi] = c.arena.GetUninit(1, g.C)
		tensor.SumRowsRangeInto(dbs[gi], g, lo, hi)
	}
	foldGrad(w, dws)
	foldGrad(b, dbs)
}

// SegMatMul multiplies every panel's real rows by a shared parameter matrix
// (e.g. a GAT attention vector); the parameter gradient is computed per
// panel and folded into Param.Grad.
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
	dps, _ := c.panelParts(l.B)
	for gi := 0; gi < l.B; gi++ {
		lo := gi * l.Stride
		hi := lo + l.Counts[gi]
		dps[gi] = c.arena.GetUninit(a.V.C, g.C)
		tensor.MatMulATRangeInto(dps[gi], a.V, g, lo, hi)
	}
	foldGrad(p, dps)
}

// SegLayerNorm normalizes each real row to zero mean and unit variance, then
// scales by γ and shifts by β (both 1×C); pad rows are zero. γ/β gradients
// are computed per panel and folded into Param.Grad.
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
	dgams, dbetas := c.panelParts(l.B)
	for gi := 0; gi < l.B; gi++ {
		lo := gi * l.Stride
		hi := lo + l.Counts[gi]
		dgam := c.arena.Get(1, d)
		for i := lo; i < hi; i++ {
			grow, xrow := g.Row(i), xhat.Row(i)
			for j := range grow {
				dgam.Data[j] += grow[j] * xrow[j]
			}
		}
		dgams[gi] = dgam
		dbetas[gi] = c.arena.GetUninit(1, d)
		tensor.SumRowsRangeInto(dbetas[gi], g, lo, hi)
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
	foldGrad(gamma, dgams)
	foldGrad(beta, dbetas)
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
