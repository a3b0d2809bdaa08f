// Graph tape ops: the layers of the three predictors over one stage graph's
// N-row node tensors. One tape records one graph.
//
// Parameter gradients do not flow through opParam leaves here. The three ops
// that carry parameters (Linear, MatMulParam, LayerNorm) write the graph's
// gradient part into a PanelGrads slot keyed by (parameter, graph), and
// PanelGrads.Fold adds each parameter's parallel.TreeReduce over its graphs'
// parts into Param.Grad — a tree whose pairwise shape depends on the graph
// count alone. A standalone tape adds its own part at the end of
// BackwardVec — the tree of one graph; tapes routed to a shared PanelGrads
// (RouteGrads) leave the fold to its owner, so a minibatch's graphs, run on
// any goroutines in any order, end with the same Param.Grad bits. Each
// parameter enters one such op per tape.
package ag

import (
	"fmt"
	"math"

	"predtop/internal/parallel"
	"predtop/internal/tensor"
)

// PanelGrads holds the parameter-gradient parts of the parameter-carrying
// ops, one slot per (parameter, graph), until Fold adds them into
// Param.Grad.
type PanelGrads struct {
	index  map[*Param]int
	params []*Param
	parts  [][]*tensor.Tensor // parts[i][k]: params[i]'s part from graph k
}

// NewPanelGrads returns a store with a slot for each of params' parts from
// graphs [0, graphs), carved from one buffer. Tapes routed to it
// (RouteGrads) may run concurrently as long as their graph indices differ.
func NewPanelGrads(params []*Param, graphs int) *PanelGrads {
	size := 0
	for _, p := range params {
		size += p.V.Size()
	}
	data := make([]float64, size*graphs)
	slots := make([]tensor.Tensor, len(params)*graphs)
	refs := make([]*tensor.Tensor, len(slots))
	g := &PanelGrads{
		index:  make(map[*Param]int, len(params)),
		params: append([]*Param(nil), params...),
		parts:  make([][]*tensor.Tensor, len(params)),
	}
	for i, p := range params {
		g.index[p] = i
		g.parts[i] = refs[i*graphs : (i+1)*graphs : (i+1)*graphs]
		for k := range g.parts[i] {
			t := &slots[i*graphs+k]
			t.R, t.C, t.Data = p.V.R, p.V.C, data[:p.V.Size():p.V.Size()]
			data = data[p.V.Size():]
			g.parts[i][k] = t
		}
	}
	return g
}

// Fold adds, for every parameter, the fixed-shape tree sum of its parts from
// graphs [0, n) into Param.Grad. The parts serve as reduction scratch.
func (g *PanelGrads) Fold(n int) {
	for i, p := range g.params {
		if n > len(g.parts[i]) {
			panic(fmt.Sprintf("ag: folding %d graphs of %s, which has %d", n, p.Name, len(g.parts[i])))
		}
		tensor.AddInPlace(p.Grad, parallel.TreeReduce(g.parts[i][:n], func(a, b *tensor.Tensor) *tensor.Tensor {
			tensor.AddInPlace(a, b)
			return a
		}))
	}
}

// CopySlot sets graph dst's part of every parameter to graph src's: the
// slot a backward of src's graph from the same loss gradient would write.
func (g *PanelGrads) CopySlot(dst, src int) {
	for _, parts := range g.parts {
		copy(parts[dst].Data, parts[src].Data)
	}
}

// RouteGrads sends this tape's parameter-gradient parts to g's slot for
// graph k, and BackwardVec leaves folding to g's owner (g.Fold). g must hold
// every parameter the tape's parameter-carrying ops use and at least k+1
// graphs. Routing survives Reset. Param leaves (Context.Param) still
// accumulate straight into Param.Grad, so tapes sharing g concurrently must
// not use them.
func (c *Context) RouteGrads(g *PanelGrads, k int) {
	c.grads, c.graph = g, k
}

// gradPart returns the slot the tape writes p's gradient part to: fully
// overwritten by the caller. A standalone tape draws its own from the arena,
// a routed one takes its PanelGrads slot. A tape that already handed out p's
// part means p entered a second parameter-carrying op on this tape, whose
// part would overwrite the first.
func (c *Context) gradPart(p *Param) *tensor.Tensor {
	for _, o := range c.own {
		if o.p == p {
			panic("ag: parameter " + p.Name + " enters two parameter-carrying ops on one tape")
		}
	}
	var t *tensor.Tensor
	if g := c.grads; g != nil {
		i, ok := g.index[p]
		if !ok {
			panic("ag: parameter " + p.Name + " has no slot in the routed PanelGrads")
		}
		t = g.parts[i][c.graph]
	} else {
		t = c.arena.GetUninit(p.V.R, p.V.C)
	}
	c.own = append(c.own, ownPart{p, t})
	return t
}

// BackwardVec seeds every element of loss with gradient 1 and propagates
// through the tape in reverse recording order — the gradient of the sum of
// the loss's elements. A standalone tape then adds its parts into
// Param.Grad; a routed one leaves them in its PanelGrads. When a profiling
// span is attached and layer marks were recorded, the replay is additionally
// timed per layer (see profile.go); the gradient math is identical either
// way.
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
		for _, o := range c.own {
			tensor.AddInPlace(o.p.Grad, o.t)
		}
	}
	c.own = c.own[:0]
}

// Linear is the fused dense layer x·W + b. The W and b gradients go to the
// tape's PanelGrads slots. Every product adds every term from +0 in
// ascending order, so an input layer's mostly-zero features run the same
// kernels as any other x, and 0·Inf is NaN there as anywhere.
func (c *Context) Linear(x *Node, w, b *Param) *Node {
	v := c.arena.GetUninit(x.V.R, w.V.C)
	tensor.LinearInto(v, x.V, w.V, b.V)
	n := c.node(opLinear, v, true)
	n.a, n.p1, n.p2 = x, w, b
	return n
}

func (c *Context) backLinear(n *Node) {
	g, x, w, b := n.grad, n.a, n.p1, n.p2
	if x.requires {
		d := c.arena.GetUninit(g.R, w.V.R)
		tensor.MatMulBTSerialInto(d, g, w.V, c.arena) // dX = g·Wᵀ
		c.accumOwn(x, d)
	}
	tensor.MatMulATInto(c.gradPart(w), x.V, g) // dW = Xᵀ·g
	tensor.SumRowsInto(c.gradPart(b), g)
}

// MatMulParam multiplies a by a parameter matrix (e.g. a GAT attention
// vector); the parameter gradient goes to the tape's PanelGrads slot.
func (c *Context) MatMulParam(a *Node, p *Param) *Node {
	v := c.arena.GetUninit(a.V.R, p.V.C)
	tensor.MatMulSerialInto(v, a.V, p.V)
	n := c.node(opMatMulParam, v, true)
	n.a, n.p1 = a, p
	return n
}

func (c *Context) backMatMulParam(n *Node) {
	g, a, p := n.grad, n.a, n.p1
	if a.requires {
		d := c.arena.GetUninit(g.R, p.V.R)
		tensor.MatMulBTSerialInto(d, g, p.V, c.arena)
		c.accumOwn(a, d)
	}
	tensor.MatMulATInto(c.gradPart(p), a.V, g)
}

// LayerNorm normalizes each row to zero mean and unit variance, then scales
// by γ and shifts by β (both 1×C). The γ/β gradients go to the tape's
// PanelGrads slots.
func (c *Context) LayerNorm(x *Node, gamma, beta *Param, eps float64) *Node {
	rows, d := x.V.R, x.V.C
	xhat := c.arena.GetUninit(rows, d)
	invstd := c.arena.GetUninit(rows, 1)
	y := c.arena.GetUninit(rows, d)
	gd, bd := gamma.V.Data, beta.V.Data
	for i := 0; i < rows; i++ {
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
	n := c.node(opLayerNorm, y, true)
	n.a, n.p1, n.p2, n.s = x, gamma, beta, eps
	n.aux, n.aux2 = xhat, invstd
	return n
}

func (c *Context) backLayerNorm(n *Node) {
	g, x, gamma, beta := n.grad, n.a, n.p1, n.p2
	d := n.V.C
	xhat, invstd := n.aux, n.aux2.Data
	gd := gamma.V.Data
	dgam := c.gradPart(gamma)
	clear(dgam.Data)
	for i := 0; i < g.R; i++ {
		grow, xrow := g.Row(i), xhat.Row(i)
		for j := range grow {
			dgam.Data[j] += grow[j] * xrow[j]
		}
	}
	tensor.SumRowsInto(c.gradPart(beta), g)
	if !x.requires {
		return
	}
	dx := c.arena.GetUninit(g.R, d)
	for i := 0; i < g.R; i++ {
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
	c.accumOwn(x, dx)
}

// SumRows pools x's rows into one 1×C row — the global add pool.
func (c *Context) SumRows(x *Node) *Node {
	v := c.arena.GetUninit(1, x.V.C)
	tensor.SumRowsInto(v, x.V)
	n := c.node(opSumRows, v, x.requires)
	n.a = x
	return n
}

func (c *Context) backSumRows(n *Node) {
	g, x := n.grad, n.a
	d := c.arena.GetUninit(x.V.R, x.V.C)
	for i := 0; i < d.R; i++ {
		copy(d.Row(i), g.Data)
	}
	c.accumOwn(x, d)
}

// Attention is multi-head scaled dot-product attention over one graph's
// N×dim node tensors q, k, v (tensor.AttentionInto): head h reads and writes
// columns [h·dk, (h+1)·dk), dk = dim/heads, and mask is the additive N×N
// logit mask (−Inf disables; nil masks nothing). The tape keeps the heads'
// N×N probabilities for the backward and nothing else; q, k and v may be one
// node.
func (c *Context) Attention(q, k, v *Node, heads int, mask *tensor.Tensor) *Node {
	out := c.arena.GetUninit(q.V.R, q.V.C)
	p := c.arena.GetUninit(heads*q.V.R, q.V.R)
	tensor.AttentionInto(out, p, q.V, k.V, v.V, mask, heads, c.arena)
	n := c.node(opAttention, out, anyRequires(q, k, v))
	start := len(c.xs)
	c.xs = append(c.xs, q, k, v)
	n.xs = c.xs[start:len(c.xs):len(c.xs)]
	n.aux, n.heads = p, heads
	return n
}

func (c *Context) backAttention(n *Node) {
	grad := func(x *Node) *tensor.Tensor {
		if !x.requires {
			return nil
		}
		return c.arena.GetUninit(x.V.R, x.V.C)
	}
	q, k, v := n.xs[0], n.xs[1], n.xs[2]
	dq, dk, dv := grad(q), grad(k), grad(v)
	tensor.AttentionBackInto(dq, dk, dv, n.grad, n.aux, q.V, k.V, v.V, n.heads, c.arena)
	for i, d := range [...]*tensor.Tensor{dq, dk, dv} {
		if d != nil {
			c.accumOwn(n.xs[i], d)
		}
	}
}
