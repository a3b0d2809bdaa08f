package ir

import "fmt"

// Builder constructs Graphs with per-op shape inference, mirroring how JAX
// traces a function into a jaxpr.
type Builder struct {
	nodes   []*Node
	inputs  []*Node
	outputs []*Node
}

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return &Builder{} }

func (b *Builder) add(n *Node) *Node {
	n.ID = len(b.nodes)
	b.nodes = append(b.nodes, n)
	return n
}

func cloneShape(s []int) []int {
	out := make([]int, len(s))
	copy(out, s)
	return out
}

func (b *Builder) fail(format string, args ...any) {
	panic("ir: " + fmt.Sprintf(format, args...))
}

// Input declares a graph input (e.g. the activation entering a stage).
func (b *Builder) Input(label string, shape []int, dt DType) *Node {
	n := b.add(&Node{Class: ClassInput, Shape: cloneShape(shape), DType: dt, Label: label})
	b.inputs = append(b.inputs, n)
	return n
}

// Weight declares a trainable parameter literal.
func (b *Builder) Weight(label string, shape []int, dt DType) *Node {
	return b.add(&Node{Class: ClassLiteral, Shape: cloneShape(shape), DType: dt, Label: label, Param: true})
}

// Literal declares a constant (non-trainable) literal.
func (b *Builder) Literal(label string, shape []int, dt DType) *Node {
	return b.add(&Node{Class: ClassLiteral, Shape: cloneShape(shape), DType: dt, Label: label})
}

// Output marks x as a graph output.
func (b *Builder) Output(x *Node) *Node {
	n := b.add(&Node{Class: ClassOutput, Shape: cloneShape(x.Shape), DType: x.DType, Ins: []*Node{x}})
	b.outputs = append(b.outputs, n)
	return n
}

// Dot emits a dot_general contracting the last axis of a with the
// second-to-last (or only) axis of b. Leading batch axes of a are kept:
//
//	[..., m, k] · [k, n] → [..., m, n]
//	[..., m, k] · [..., k, n] → [..., m, n]  (equal batch prefixes)
func (b *Builder) Dot(a, c *Node) *Node {
	ash, bsh := a.Shape, c.Shape
	if len(ash) < 1 || len(bsh) < 2 {
		b.fail("Dot needs rank ≥1 · rank ≥2, got %v · %v", ash, bsh)
	}
	k := ash[len(ash)-1]
	if bsh[len(bsh)-2] != k {
		b.fail("Dot contraction mismatch %v · %v", ash, bsh)
	}
	n := bsh[len(bsh)-1]
	if len(bsh) > 2 {
		// Batched RHS: batch prefixes must match.
		if len(ash) != len(bsh) {
			b.fail("Dot batched rank mismatch %v · %v", ash, bsh)
		}
		for i := 0; i < len(bsh)-2; i++ {
			if ash[i] != bsh[i] {
				b.fail("Dot batch dim mismatch %v · %v", ash, bsh)
			}
		}
	}
	out := append(cloneShape(ash[:len(ash)-1]), n)
	return b.add(&Node{Class: ClassOperator, Kind: KindDot, Shape: out, DType: a.DType, Ins: []*Node{a, c}})
}

// Ewise emits an element-wise binary operator. Operands may differ in shape
// when one broadcasts into the other: a scalar ([1] or [1,…]) or a leading
// prefix of the larger shape (the keepdims-free reduction pattern jaxprs
// produce). The output takes the larger shape.
func (b *Builder) Ewise(k Kind, x, y *Node) *Node {
	out, ok := broadcastShapes(x.Shape, y.Shape)
	if !ok {
		b.fail("%s shape mismatch %v vs %v", k, x.Shape, y.Shape)
	}
	dt := x.DType
	if k == KindCompare {
		dt = Bool
	}
	return b.add(&Node{Class: ClassOperator, Kind: k, Shape: out, DType: dt, Ins: []*Node{x, y}})
}

// broadcastShapes returns the common shape of an element-wise op whose
// operands may be equal, scalar, or a leading prefix of one another.
func broadcastShapes(a, b []int) ([]int, bool) {
	switch {
	case sameShape(a, b):
		return cloneShape(a), true
	case isScalarShape(a) || isPrefixShape(a, b):
		return cloneShape(b), true
	case isScalarShape(b) || isPrefixShape(b, a):
		return cloneShape(a), true
	}
	return nil, false
}

func isScalarShape(s []int) bool {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n == 1
}

// isPrefixShape reports whether small equals the leading dims of big.
func isPrefixShape(small, big []int) bool {
	if len(small) >= len(big) {
		return false
	}
	for i, d := range small {
		if big[i] != d {
			return false
		}
	}
	return true
}

// Unary emits an element-wise unary operator.
func (b *Builder) Unary(k Kind, x *Node) *Node {
	return b.add(&Node{Class: ClassOperator, Kind: k, Shape: cloneShape(x.Shape), DType: x.DType, Ins: []*Node{x}})
}

// Select emits select(pred, x, y); operands follow the same broadcasting
// rules as Ewise, with pred shaped like the result or a broadcastable prefix.
func (b *Builder) Select(pred, x, y *Node) *Node {
	out, ok := broadcastShapes(x.Shape, y.Shape)
	if !ok {
		b.fail("Select shape mismatch %v : %v", x.Shape, y.Shape)
	}
	if _, pok := broadcastShapes(pred.Shape, out); !pok {
		b.fail("Select predicate shape %v incompatible with %v", pred.Shape, out)
	}
	return b.add(&Node{Class: ClassOperator, Kind: KindSelect, Shape: out, DType: x.DType, Ins: []*Node{pred, x, y}})
}

// Reduce emits a reduction over the given axes (KindReduceSum/KindReduceMax).
func (b *Builder) Reduce(k Kind, x *Node, axes ...int) *Node {
	drop := make(map[int]bool, len(axes))
	for _, a := range axes {
		if a < 0 || a >= len(x.Shape) {
			b.fail("Reduce axis %d out of range for %v", a, x.Shape)
		}
		drop[a] = true
	}
	var out []int
	for i, d := range x.Shape {
		if !drop[i] {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return b.add(&Node{Class: ClassOperator, Kind: k, Shape: out, DType: x.DType, Ins: []*Node{x}, Axes: cloneShape(axes)})
}

// Broadcast emits broadcast_in_dim to the target shape.
func (b *Builder) Broadcast(x *Node, shape []int) *Node {
	return b.add(&Node{Class: ClassOperator, Kind: KindBroadcast, Shape: cloneShape(shape), DType: x.DType, Ins: []*Node{x}})
}

// Reshape emits a reshape; element counts must match.
func (b *Builder) Reshape(x *Node, shape []int) *Node {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != x.NumElements() {
		b.fail("Reshape %v → %v changes element count", x.Shape, shape)
	}
	return b.add(&Node{Class: ClassOperator, Kind: KindReshape, Shape: cloneShape(shape), DType: x.DType, Ins: []*Node{x}})
}

// Transpose emits a dimension permutation.
func (b *Builder) Transpose(x *Node, perm ...int) *Node {
	if len(perm) != len(x.Shape) {
		b.fail("Transpose perm %v rank mismatch for %v", perm, x.Shape)
	}
	out := make([]int, len(perm))
	for i, p := range perm {
		out[i] = x.Shape[p]
	}
	return b.add(&Node{Class: ClassOperator, Kind: KindTranspose, Shape: out, DType: x.DType, Ins: []*Node{x}, Axes: cloneShape(perm)})
}

// Convert emits convert_element_type to dt.
func (b *Builder) Convert(x *Node, dt DType) *Node {
	return b.add(&Node{Class: ClassOperator, Kind: KindConvert, Shape: cloneShape(x.Shape), DType: dt, Ins: []*Node{x}})
}

// Gather emits a row gather: table[idx] with the given output shape.
func (b *Builder) Gather(table, idx *Node, outShape []int) *Node {
	return b.add(&Node{Class: ClassOperator, Kind: KindGather, Shape: cloneShape(outShape), DType: table.DType, Ins: []*Node{table, idx}})
}

// Scatter emits a scatter-add of src into a tensor shaped like table.
func (b *Builder) Scatter(table, idx, src *Node) *Node {
	return b.add(&Node{Class: ClassOperator, Kind: KindScatter, Shape: cloneShape(table.Shape), DType: table.DType, Ins: []*Node{table, idx, src}})
}

// Iota emits an index-generating op.
func (b *Builder) Iota(shape []int, dt DType) *Node {
	return b.add(&Node{Class: ClassOperator, Kind: KindIota, Shape: cloneShape(shape), DType: dt})
}

// Slice emits a slice producing outShape from x.
func (b *Builder) Slice(x *Node, outShape []int) *Node {
	return b.add(&Node{Class: ClassOperator, Kind: KindSlice, Shape: cloneShape(outShape), DType: x.DType, Ins: []*Node{x}})
}

// CumSum emits a cumulative sum along axis.
func (b *Builder) CumSum(x *Node, axis int) *Node {
	return b.add(&Node{Class: ClassOperator, Kind: KindCumSum, Shape: cloneShape(x.Shape), DType: x.DType, Ins: []*Node{x}, Axes: []int{axis}})
}

// AllReduce emits a cross-device all-reduce of x (tensor-parallel sync).
func (b *Builder) AllReduce(x *Node) *Node {
	return b.add(&Node{Class: ClassOperator, Kind: KindAllReduce, Shape: cloneShape(x.Shape), DType: x.DType, Ins: []*Node{x}})
}

// Graph finalizes and validates the constructed graph.
func (b *Builder) Graph() *Graph {
	g := &Graph{Nodes: b.nodes, Inputs: b.inputs, Outputs: b.outputs}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
