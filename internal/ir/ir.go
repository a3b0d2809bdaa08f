// Package ir implements a Jaxpr-like tensor-level intermediate representation
// for deep-learning computations.
//
// A Graph is a directed acyclic graph whose nodes are tensor operations
// (dot_general, element-wise arithmetic, reductions, data movement, and
// collective communication). Nodes carry only metadata — operator kind,
// output shape, output dtype, and node class (input / literal / operator /
// output, Table I of the paper) — never numeric data: the IR exists to be
// costed by the simulator and embedded by the predictors, not executed.
package ir

import (
	"fmt"
	"strings"
)

// DType is a tensor element type.
type DType uint8

// Element types mirroring the JAX dtypes that appear in model stage graphs.
const (
	F32 DType = iota
	F16
	BF16
	I32
	U32
	Bool
	numDTypes
)

// NumDTypes is the size of a dtype one-hot encoding.
const NumDTypes = int(numDTypes)

// Size returns the width of the dtype in bytes.
func (d DType) Size() int {
	switch d {
	case F32, I32, U32:
		return 4
	case F16, BF16:
		return 2
	case Bool:
		return 1
	}
	return 4
}

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case F32:
		return "f32"
	case F16:
		return "f16"
	case BF16:
		return "bf16"
	case I32:
		return "i32"
	case U32:
		return "u32"
	case Bool:
		return "bool"
	}
	return fmt.Sprintf("dtype(%d)", uint8(d))
}

// Class distinguishes the four node roles of Table I.
type Class uint8

// Node classes (Table I "Node Type").
const (
	ClassInput Class = iota
	ClassLiteral
	ClassOperator
	ClassOutput
	numClasses
)

// NumClasses is the size of a class one-hot encoding.
const NumClasses = int(numClasses)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassInput:
		return "input"
	case ClassLiteral:
		return "literal"
	case ClassOperator:
		return "operator"
	case ClassOutput:
		return "output"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Kind is the operator type of a node (Table I "Operator Type").
type Kind uint8

// Operator kinds. KindNone is used for input/literal/output nodes.
const (
	KindNone Kind = iota
	KindDot
	KindAdd
	KindSub
	KindMul
	KindDiv
	KindNeg
	KindExp
	KindLog
	KindTanh
	KindErf
	KindRsqrt
	KindSqrt
	KindMax
	KindMin
	KindCompare
	KindSelect
	KindReduceSum
	KindReduceMax
	KindBroadcast
	KindReshape
	KindTranspose
	KindConvert
	KindGather
	KindScatter
	KindIota
	KindConcat
	KindSlice
	KindOneHot
	KindCumSum
	KindAllReduce
	KindAllGather
	KindReduceScatter
	numKinds
)

// NumKinds is the size of an operator-type one-hot encoding.
const NumKinds = int(numKinds)

var kindNames = [...]string{
	"none", "dot_general", "add", "sub", "mul", "div", "neg", "exp", "log",
	"tanh", "erf", "rsqrt", "sqrt", "max", "min", "compare", "select",
	"reduce_sum", "reduce_max", "broadcast_in_dim", "reshape", "transpose",
	"convert_element_type", "gather", "scatter", "iota", "concatenate",
	"slice", "one_hot", "cumsum", "all_reduce", "all_gather", "reduce_scatter",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsElementwise reports whether k is a cheap element-wise operator, the class
// the simulator fuses into its producer and the pruner may elide.
func (k Kind) IsElementwise() bool {
	switch k {
	case KindAdd, KindSub, KindMul, KindDiv, KindNeg, KindExp, KindLog,
		KindTanh, KindErf, KindRsqrt, KindSqrt, KindMax, KindMin,
		KindCompare, KindSelect:
		return true
	}
	return false
}

// IsCollective reports whether k is a communication collective.
func (k Kind) IsCollective() bool {
	switch k {
	case KindAllReduce, KindAllGather, KindReduceScatter:
		return true
	}
	return false
}

// Node is one vertex of the operator DAG.
type Node struct {
	ID    int
	Kind  Kind
	Class Class
	Shape []int
	DType DType
	Ins   []*Node
	Label string

	// Param marks a literal that is a trainable model weight; the
	// intra-operator optimizer only considers sharding these.
	Param bool
	// Axes holds reduction axes (reduce/cumsum) or a transpose permutation.
	Axes []int
}

// NumElements returns the number of elements of the node's output.
func (n *Node) NumElements() int {
	p := 1
	for _, d := range n.Shape {
		p *= d
	}
	return p
}

// Bytes returns the output size in bytes.
func (n *Node) Bytes() int { return n.NumElements() * n.DType.Size() }

// Flops estimates the floating-point work of the node from shapes alone.
func (n *Node) Flops() int64 {
	switch n.Kind {
	case KindDot:
		// 2·(output elements)·(contraction length). The contraction length
		// is the last axis of the first input.
		if len(n.Ins) > 0 {
			ash := n.Ins[0].Shape
			k := 1
			if len(ash) > 0 {
				k = ash[len(ash)-1]
			}
			return 2 * int64(n.NumElements()) * int64(k)
		}
		return 2 * int64(n.NumElements())
	case KindReduceSum, KindReduceMax, KindCumSum:
		if len(n.Ins) > 0 {
			return int64(n.Ins[0].NumElements())
		}
		return int64(n.NumElements())
	case KindNone:
		return 0
	default:
		if n.Kind.IsCollective() {
			return 0
		}
		return int64(n.NumElements())
	}
}

// ShapeString renders the dtype and shape like jaxpr, e.g. "f32[64,128]".
func (n *Node) ShapeString() string {
	dims := make([]string, len(n.Shape))
	for i, d := range n.Shape {
		dims[i] = fmt.Sprint(d)
	}
	return fmt.Sprintf("%s[%s]", n.DType, strings.Join(dims, ","))
}

// String renders the node for debugging.
func (n *Node) String() string {
	name := n.Kind.String()
	if n.Class != ClassOperator {
		name = n.Class.String()
	}
	return fmt.Sprintf("%%%d:%s = %s(%s)", n.ID, n.ShapeString(), name, insIDs(n.Ins))
}

func insIDs(ins []*Node) string {
	parts := make([]string, len(ins))
	for i, in := range ins {
		parts[i] = fmt.Sprintf("%%%d", in.ID)
	}
	return strings.Join(parts, ", ")
}

// Graph is an operator DAG in topological order (every node appears after
// all of its inputs).
type Graph struct {
	Nodes   []*Node
	Inputs  []*Node
	Outputs []*Node
}

// Validate checks topological ordering, ID consistency, class invariants,
// and shape sanity. It returns the first violation found.
func (g *Graph) Validate() error {
	seen := make(map[*Node]bool, len(g.Nodes))
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("ir: node at position %d has ID %d", i, n.ID)
		}
		for _, in := range n.Ins {
			if !seen[in] {
				return fmt.Errorf("ir: node %%%d uses input %%%d that does not precede it", n.ID, in.ID)
			}
		}
		switch n.Class {
		case ClassInput, ClassLiteral:
			if len(n.Ins) != 0 {
				return fmt.Errorf("ir: %s node %%%d has inputs", n.Class, n.ID)
			}
		case ClassOperator:
			if n.Kind == KindNone {
				return fmt.Errorf("ir: operator node %%%d has no kind", n.ID)
			}
			if len(n.Ins) == 0 && n.Kind != KindIota {
				return fmt.Errorf("ir: operator node %%%d (%s) has no inputs", n.ID, n.Kind)
			}
		case ClassOutput:
			if len(n.Ins) != 1 {
				return fmt.Errorf("ir: output node %%%d must have exactly one input", n.ID)
			}
		}
		for _, d := range n.Shape {
			if d <= 0 {
				return fmt.Errorf("ir: node %%%d has non-positive dimension %v", n.ID, n.Shape)
			}
		}
		seen[n] = true
	}
	return nil
}
