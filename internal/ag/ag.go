// Package ag implements tape-based reverse-mode automatic differentiation
// over the 2-D tensors in internal/tensor.
//
// A Context records every operation of one forward pass over one stage
// graph. BackwardVec walks the tape in reverse, accumulating gradients into
// each node and into each parameter's one accumulator, Param.Grad: at the
// end of a standalone tape's backward, or — when several tapes, one per
// graph, are routed to a shared PanelGrads — through one fixed-shape tree
// (PanelGrads.Fold, ops.go) once all of them have run. Contexts are
// reusable: Reset recycles the tape, its pooled Node storage, and — via the
// context's tensor.Arena — every intermediate buffer of the pass, so a
// context that has seen its largest graph allocates nothing in steady state.
package ag

import (
	"fmt"
	"math"

	"predtop/internal/obs"
	"predtop/internal/tensor"
)

// Param is a trainable tensor shared across forward passes. Grad accumulates
// gradients until an optimizer consumes and zeroes it.
type Param struct {
	Name string
	V    *tensor.Tensor
	Grad *tensor.Tensor
}

// NewParam wraps t as a named trainable parameter with a zero gradient.
func NewParam(name string, t *tensor.Tensor) *Param {
	return &Param{Name: name, V: t, Grad: tensor.New(t.R, t.C)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// opKind identifies which vector–Jacobian product Backward runs for a node.
// Dispatching on an opcode instead of a captured closure keeps Node storage
// poolable and the tape allocation-free in steady state.
type opKind uint8

const (
	opConst opKind = iota // leaf: no gradient flows
	opParam               // leaf: gradient accumulates into gdst
	opAdd
	opSub
	opMul
	opScale
	opReLU
	opLeakyReLU
	opConcat
	opAbs
	opMeanAll
	// Graph layer ops — see ops.go.
	opLinear
	opMatMulParam
	opLayerNorm
	opSumRows
	opAttention
	// Edge-vector ops over the graphs' neighbour lists — see edges.go.
	opEdgeAddOuter
	opEdgeSoftmax
	opEdgeAggregate
)

// Node is one value on the autodiff tape. Nodes are owned by their Context
// (allocated from pooled chunks) and become invalid at Reset.
type Node struct {
	V        *tensor.Tensor
	grad     *tensor.Tensor
	a, b     *Node              // operands
	xs       []*Node            // operands of ConcatCols; Q, K, V of Attention
	aux      *tensor.Tensor     // saved forward state (LayerNorm x-hat, Attention P)
	aux2     *tensor.Tensor     // saved forward state (LayerNorm 1/σ per row, R×1)
	gdst     *tensor.Tensor     // opParam: gradient accumulation destination
	s        float64            // opScale factor / opLeakyReLU alpha / LayerNorm eps
	heads    int                // opAttention head count
	nb       *tensor.Neighbours // edge ops: the graph's neighbour list
	p1, p2   *Param             // layer ops: params (W/γ, b/β)
	op       opKind
	requires bool
}

// Value returns the node's forward value.
func (n *Node) Value() *tensor.Tensor { return n.V }

// ownPart is the gradient part a tape handed out for one parameter: its own
// on a standalone tape, its PanelGrads slot on a routed one.
type ownPart struct {
	p *Param
	t *tensor.Tensor
}

// nodeChunk is how many Nodes each pooled slab holds. Chunks are never
// reallocated, so node pointers stay stable as the tape grows.
const nodeChunk = 256

// Context is one autodiff tape.
type Context struct {
	arena  *tensor.Arena // buffer source for every intermediate; nil = heap
	chunks []*[nodeChunk]Node
	nused  int // nodes handed out from chunks this generation
	nodes  []*Node
	params map[*Param]*Node
	ts     []*tensor.Tensor // scratch operand slice for ConcatCols
	xs     []*Node          // ConcatCols and Attention operand lists of this generation
	grads  *PanelGrads      // routed parameter-gradient slots (RouteGrads); nil = own
	graph  int              // the tape's graph index in grads
	own    []ownPart        // parts handed out this pass; a standalone tape's are added by BackwardVec
	span   obs.Span         // profiling span layer marks nest under (see profile.go)
	marks  []layerMark      // tape ranges recorded by StartLayer/End
}

// NewContext returns an empty tape accumulating into Param.Grad. The tape
// owns a private arena, so intermediates are recycled on Reset.
func NewContext() *Context {
	return &Context{
		params: make(map[*Param]*Node),
		arena:  tensor.NewArena(),
	}
}

// Arena returns the context's buffer arena. Model code may draw scratch
// buffers from it as long as they don't outlive Reset.
func (c *Context) Arena() *tensor.Arena { return c.arena }

// Reset clears the tape for reuse: node chunks, the params memo, layer marks,
// the own gradient slots, and every arena-held intermediate are recycled in
// place (gradient routing is kept), so a pooled context stops allocating once
// it has seen its largest graph. All Nodes and intermediate tensors from the
// previous pass become invalid.
func (c *Context) Reset() {
	c.nodes = c.nodes[:0]
	c.nused = 0
	clear(c.params)
	c.marks = c.marks[:0]
	c.ts = c.ts[:0]
	clear(c.xs)
	c.xs = c.xs[:0]
	c.own = c.own[:0]
	c.arena.Reset()
}

// newNode hands out the next pooled Node, zeroed, and records it on the tape.
func (c *Context) newNode() *Node {
	ci, ni := c.nused/nodeChunk, c.nused%nodeChunk
	if ci == len(c.chunks) {
		c.chunks = append(c.chunks, new([nodeChunk]Node))
	}
	n := &c.chunks[ci][ni]
	c.nused++
	*n = Node{}
	c.nodes = append(c.nodes, n)
	return n
}

func (c *Context) node(op opKind, v *tensor.Tensor, requires bool) *Node {
	n := c.newNode()
	n.op, n.V, n.requires = op, v, requires
	return n
}

// Const wraps a tensor that requires no gradient.
func (c *Context) Const(t *tensor.Tensor) *Node {
	return c.node(opConst, t, false)
}

// Param returns the (memoized) leaf node for p; gradients reaching it are
// accumulated into p.Grad during Backward.
func (c *Context) Param(p *Param) *Node {
	if n, ok := c.params[p]; ok {
		return n
	}
	n := c.node(opParam, p.V, true)
	n.gdst = p.Grad
	c.params[p] = n
	return n
}

// accumShared adds g — a gradient buffer the caller keeps using — into n's
// gradient. The first contribution is copied, so later in-place accumulation
// into n.grad never corrupts the caller's buffer.
func (c *Context) accumShared(n *Node, g *tensor.Tensor) {
	if n.grad == nil {
		d := c.arena.GetUninit(g.R, g.C)
		copy(d.Data, g.Data)
		n.grad = d
		return
	}
	tensor.AddInPlace(n.grad, g)
}

// accumOwn adds g — a freshly computed temporary the caller relinquishes —
// into n's gradient, taking ownership of the buffer when it is the first
// contribution.
func (c *Context) accumOwn(n *Node, g *tensor.Tensor) {
	if n.grad == nil {
		n.grad = g
		return
	}
	tensor.AddInPlace(n.grad, g)
}

func anyRequires(ns ...*Node) bool {
	for _, n := range ns {
		if n.requires {
			return true
		}
	}
	return false
}

// Backward is BackwardVec for a 1×1 loss; a non-scalar loss panics, so a
// caller that meant to reduce first finds out.
func (c *Context) Backward(loss *Node) {
	if loss.V.R != 1 || loss.V.C != 1 {
		panic(fmt.Sprintf("ag: Backward needs a scalar loss, got %dx%d", loss.V.R, loss.V.C))
	}
	c.BackwardVec(loss)
}

// runBack runs one node's vector–Jacobian product, scattering n.grad into
// the gradients of its operands.
func (c *Context) runBack(n *Node) {
	g := n.grad
	switch n.op {
	case opParam:
		tensor.AddInPlace(n.gdst, g)

	case opAdd:
		if n.a.requires {
			c.accumShared(n.a, g)
		}
		if n.b.requires {
			c.accumShared(n.b, g)
		}

	case opSub:
		if n.a.requires {
			c.accumShared(n.a, g)
		}
		if n.b.requires {
			d := c.arena.GetUninit(g.R, g.C)
			tensor.ScaleInto(d, g, -1)
			c.accumOwn(n.b, d)
		}

	case opMul:
		a, b := n.a, n.b
		if a.requires {
			d := c.arena.GetUninit(g.R, g.C)
			tensor.MulInto(d, g, b.V)
			c.accumOwn(a, d)
		}
		if b.requires {
			d := c.arena.GetUninit(g.R, g.C)
			tensor.MulInto(d, g, a.V)
			c.accumOwn(b, d)
		}

	case opScale:
		d := c.arena.GetUninit(g.R, g.C)
		tensor.ScaleInto(d, g, n.s)
		c.accumOwn(n.a, d)

	case opReLU:
		x := n.a
		d := c.arena.GetUninit(g.R, g.C)
		tensor.ReLUBackInto(d, g, x.V)
		c.accumOwn(x, d)

	case opLeakyReLU:
		x, alpha := n.a, n.s
		d := c.arena.GetUninit(g.R, g.C)
		tensor.LeakyReLUBackInto(d, g, x.V, alpha)
		c.accumOwn(x, d)

	case opConcat:
		off := 0
		for _, x := range n.xs {
			if x.requires {
				d := c.arena.GetUninit(g.R, x.V.C)
				tensor.SliceColsInto(d, g, off, off+x.V.C)
				c.accumOwn(x, d)
			}
			off += x.V.C
		}

	case opAbs:
		x := n.a
		d := c.arena.GetUninit(g.R, g.C)
		for i, gv := range g.Data {
			switch AbsCase(x.V.Data[i]) {
			case 1:
				d.Data[i] = gv
			case -1:
				d.Data[i] = -gv
			default:
				d.Data[i] = 0
			}
		}
		c.accumOwn(x, d)

	case opMeanAll:
		x := n.a
		d := c.arena.GetUninit(x.V.R, x.V.C)
		v := g.Data[0] / float64(x.V.Size())
		for i := range d.Data {
			d.Data[i] = v
		}
		c.accumOwn(x, d)

	case opLinear:
		c.backLinear(n)
	case opMatMulParam:
		c.backMatMulParam(n)
	case opLayerNorm:
		c.backLayerNorm(n)
	case opSumRows:
		c.backSumRows(n)
	case opAttention:
		c.backAttention(n)
	case opEdgeAddOuter:
		c.backEdgeAddOuter(n)
	case opEdgeSoftmax:
		c.backEdgeSoftmax(n)
	case opEdgeAggregate:
		c.backEdgeAggregate(n)
	}
}

// Add returns a + b (same shape).
func (c *Context) Add(a, b *Node) *Node {
	v := c.arena.GetUninit(a.V.R, a.V.C)
	tensor.AddInto(v, a.V, b.V)
	n := c.node(opAdd, v, anyRequires(a, b))
	n.a, n.b = a, b
	return n
}

// Sub returns a − b (same shape).
func (c *Context) Sub(a, b *Node) *Node {
	v := c.arena.GetUninit(a.V.R, a.V.C)
	tensor.SubInto(v, a.V, b.V)
	n := c.node(opSub, v, anyRequires(a, b))
	n.a, n.b = a, b
	return n
}

// Mul returns a ⊙ b (same shape).
func (c *Context) Mul(a, b *Node) *Node {
	v := c.arena.GetUninit(a.V.R, a.V.C)
	tensor.MulInto(v, a.V, b.V)
	n := c.node(opMul, v, anyRequires(a, b))
	n.a, n.b = a, b
	return n
}

// Scale returns s·x.
func (c *Context) Scale(x *Node, s float64) *Node {
	v := c.arena.GetUninit(x.V.R, x.V.C)
	tensor.ScaleInto(v, x.V, s)
	n := c.node(opScale, v, x.requires)
	n.a, n.s = x, s
	return n
}

// ReLU returns max(x, 0).
func (c *Context) ReLU(x *Node) *Node {
	v := c.arena.GetUninit(x.V.R, x.V.C)
	tensor.ReLUInto(v, x.V)
	n := c.node(opReLU, v, x.requires)
	n.a = x
	return n
}

// LeakyReLU returns x for x>0 and αx otherwise.
func (c *Context) LeakyReLU(x *Node, alpha float64) *Node {
	v := c.arena.GetUninit(x.V.R, x.V.C)
	tensor.LeakyReLUInto(v, x.V, alpha)
	n := c.node(opLeakyReLU, v, x.requires)
	n.a, n.s = x, alpha
	return n
}

// ConcatCols concatenates nodes along columns. The operand list is copied
// onto the tape, so callers may pass a stack-held slice.
func (c *Context) ConcatCols(xs ...*Node) *Node {
	c.ts = c.ts[:0]
	req := false
	rows, cols := 0, 0
	for _, x := range xs {
		c.ts = append(c.ts, x.V)
		req = req || x.requires
		cols += x.V.C
	}
	if len(xs) > 0 {
		rows = xs[0].V.R
	}
	v := c.arena.GetUninit(rows, cols)
	tensor.ConcatColsInto(v, c.ts...)
	n := c.node(opConcat, v, req)
	start := len(c.xs)
	c.xs = append(c.xs, xs...)
	n.xs = c.xs[start:len(c.xs):len(c.xs)]
	return n
}

// Abs returns |x| elementwise (subgradient 0 at 0).
func (c *Context) Abs(x *Node) *Node {
	v := c.arena.GetUninit(x.V.R, x.V.C)
	for i, a := range x.V.Data {
		v.Data[i] = math.Abs(a)
	}
	n := c.node(opAbs, v, x.requires)
	n.a = x
	return n
}

// AbsCase is the case of Abs's backward at x: 1 passes the gradient, -1
// negates it, 0 (x zero or NaN) drops it. Elements in one case take the same
// gradient bits from the same incoming gradient.
func AbsCase(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// Square returns x² elementwise.
func (c *Context) Square(x *Node) *Node { return c.Mul(x, x) }

// MeanAll reduces x to its 1×1 scalar mean.
func (c *Context) MeanAll(x *Node) *Node {
	v := c.arena.GetUninit(1, 1)
	v.Data[0] = x.V.Sum() / float64(x.V.Size())
	n := c.node(opMeanAll, v, x.requires)
	n.a = x
	return n
}
