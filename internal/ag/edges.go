// Edge tape ops: the 1-hop message passing of the GCN and GAT baselines over
// the graph's neighbour list (tensor.Neighbours). An edge vector is E×1 with
// the list's edges in CSR order (see tensor/edges.go).
//
// The GAT chain stays four ops (outer sum, LeakyReLU, softmax, aggregate):
// its projected features receive gradient from the aggregate and from both
// logit vectors, in reverse tape order, and fusing the chain would reorder
// that sum.
package ag

import "predtop/internal/tensor"

// EdgeAddOuter computes the edge vector out[e] = a[i] + b[j] over every edge
// e = (i, j) from N×1 column vectors — the GAT attention-logit sum.
func (c *Context) EdgeAddOuter(a, b *Node, nb *tensor.Neighbours) *Node {
	v := c.arena.GetUninit(nb.Edges(), 1)
	tensor.EdgeAddOuterInto(v, a.V, b.V, nb)
	n := c.node(opEdgeAddOuter, v, anyRequires(a, b))
	n.a, n.b, n.nb = a, b, nb
	return n
}

func (c *Context) backEdgeAddOuter(n *Node) {
	g, a, b := n.grad, n.a, n.b
	if a.requires {
		d := c.arena.GetUninit(a.V.R, 1)
		tensor.EdgeRowSumsInto(d, g, n.nb)
		c.accumOwn(a, d)
	}
	if b.requires {
		d := c.arena.GetUninit(b.V.R, 1)
		tensor.EdgeColSumsInto(d, g, n.nb)
		c.accumOwn(b, d)
	}
}

// EdgeSoftmaxInPlace normalizes each node's edges to attention weights, in
// x's own buffer. Safe only when no other node's backward pass reads x's
// value: softmax's own VJP needs only its output, which this node now holds.
func (c *Context) EdgeSoftmaxInPlace(x *Node, nb *tensor.Neighbours) *Node {
	tensor.EdgeSoftmaxInto(x.V, x.V, nb)
	n := c.node(opEdgeSoftmax, x.V, x.requires)
	n.a, n.nb = x, nb
	return n
}

func (c *Context) backEdgeSoftmax(n *Node) {
	d := c.arena.GetUninit(n.V.R, 1)
	tensor.EdgeSoftmaxBackInto(d, n.grad, n.V, n.nb)
	c.accumOwn(n.a, d)
}

// EdgeAggregate computes each node's weighted sum of its neighbours' rows of
// x, w an edge vector: the GCN aggregation Â·X with w the (constant)
// adjacency values, the GAT attention·V with w the attention weights.
func (c *Context) EdgeAggregate(w, x *Node, nb *tensor.Neighbours) *Node {
	v := c.arena.GetUninit(x.V.R, x.V.C)
	tensor.EdgeAggregateInto(v, w.V, x.V, nb)
	n := c.node(opEdgeAggregate, v, anyRequires(w, x))
	n.a, n.b, n.nb = w, x, nb
	return n
}

func (c *Context) backEdgeAggregate(n *Node) {
	g, w, x := n.grad, n.a, n.b
	if w.requires {
		d := c.arena.GetUninit(w.V.R, 1)
		tensor.EdgeDotInto(d, g, x.V, n.nb) // dW[e] = g_i · x_j
		c.accumOwn(w, d)
	}
	if x.requires {
		d := c.arena.GetUninit(x.V.R, x.V.C)
		tensor.EdgeScatterInto(d, w.V, g, n.nb) // dX = Wᵀ·g
		c.accumOwn(x, d)
	}
}
