// Edge tape ops: the 1-hop message passing of the GCN and GAT baselines over
// each graph's neighbour list (tensor.Neighbours). An edge vector is E×1 with
// graph g's edges in one contiguous range that depends on g alone (see
// tensor/edges.go), so these ops keep the panel ops' guarantee: a graph's
// values and gradients are bitwise identical in any batch composition.
//
// The GAT chain stays four ops (outer sum, LeakyReLU, softmax, aggregate):
// its projected features receive gradient from the aggregate and from both
// logit vectors, in reverse tape order, and fusing the chain would reorder
// that sum.
package ag

import "predtop/internal/tensor"

// EdgeAddOuter computes the edge vector out[e] = a[i] + b[j] over every edge
// e = (i, j) from stacked column vectors — the GAT attention-logit sum.
func (c *Context) EdgeAddOuter(a, b *Node, nbrs []*tensor.Neighbours, l tensor.BatchLayout) *Node {
	v := c.arena.GetUninit(tensor.EdgeCount(nbrs), 1)
	tensor.EdgeAddOuterInto(v, a.V, b.V, nbrs, l)
	n := c.node(opEdgeAddOuter, v, anyRequires(a, b))
	n.a, n.b, n.nbrs, n.bl = a, b, nbrs, l
	return n
}

func (c *Context) backEdgeAddOuter(n *Node) {
	g, a, b, l := n.grad, n.a, n.b, n.bl
	if a.requires {
		d := c.arena.GetUninit(a.V.R, 1)
		tensor.EdgeRowSumsInto(d, g, n.nbrs, l)
		c.accumOwn(a, d)
	}
	if b.requires {
		d := c.arena.GetUninit(b.V.R, 1)
		tensor.EdgeColSumsInto(d, g, n.nbrs, l)
		c.accumOwn(b, d)
	}
}

// EdgeSoftmaxInPlace normalizes each node's edges to attention weights, in
// x's own buffer. Safe only when no other node's backward pass reads x's
// value: softmax's own VJP needs only its output, which this node now holds.
func (c *Context) EdgeSoftmaxInPlace(x *Node, nbrs []*tensor.Neighbours) *Node {
	tensor.EdgeSoftmaxInto(x.V, x.V, nbrs)
	n := c.node(opEdgeSoftmax, x.V, x.requires)
	n.a, n.nbrs = x, nbrs
	return n
}

func (c *Context) backEdgeSoftmax(n *Node) {
	d := c.arena.GetUninit(n.V.R, 1)
	tensor.EdgeSoftmaxBackInto(d, n.grad, n.V, n.nbrs)
	c.accumOwn(n.a, d)
}

// EdgeAggregate computes each node's weighted sum of its neighbours' rows of
// stacked x, w an edge vector: the GCN aggregation Â_g·X_g with w the
// (constant) adjacency values, the GAT attention·V with w the attention
// weights.
func (c *Context) EdgeAggregate(w, x *Node, nbrs []*tensor.Neighbours, l tensor.BatchLayout) *Node {
	v := c.arena.GetUninit(x.V.R, x.V.C)
	tensor.EdgeAggregateInto(v, w.V, x.V, nbrs, l)
	n := c.node(opEdgeAggregate, v, anyRequires(w, x))
	n.a, n.b, n.nbrs, n.bl = w, x, nbrs, l
	return n
}

func (c *Context) backEdgeAggregate(n *Node) {
	g, w, x, l := n.grad, n.a, n.b, n.bl
	if w.requires {
		d := c.arena.GetUninit(w.V.R, 1)
		tensor.EdgeDotInto(d, g, x.V, n.nbrs, l) // dW[e] = g_i · x_j
		c.accumOwn(w, d)
	}
	if x.requires {
		d := c.arena.GetUninit(x.V.R, x.V.C)
		tensor.EdgeScatterInto(d, w.V, g, n.nbrs, l) // dX = Wᵀ·g per panel
		c.accumOwn(x, d)
	}
}
