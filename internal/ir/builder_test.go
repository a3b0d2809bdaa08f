package ir

import "testing"

func TestEwiseBroadcastRules(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", []int{4, 8, 16}, F32)
	prefix2 := b.Input("p2", []int{4, 8}, F32)
	prefix1 := b.Input("p1", []int{4}, F32)
	scalar := b.Literal("s", []int{1}, F32)

	for _, y := range []*Node{prefix2, prefix1, scalar} {
		out := b.Ewise(KindAdd, x, y)
		if !sameShape(out.Shape, x.Shape) {
			t.Fatalf("broadcast vs %v: %v", y.Shape, out.Shape)
		}
		// Symmetric: smaller operand first.
		out = b.Ewise(KindMul, y, x)
		if !sameShape(out.Shape, x.Shape) {
			t.Fatalf("reverse broadcast vs %v: %v", y.Shape, out.Shape)
		}
	}
}

func TestEwiseIncompatiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder()
	x := b.Input("x", []int{4, 8}, F32)
	y := b.Input("y", []int{8}, F32) // suffix, not prefix
	b.Ewise(KindAdd, x, y)
}

func TestCompareProducesBool(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", []int{3}, F32)
	c := b.Ewise(KindCompare, x, x)
	if c.DType != Bool {
		t.Fatalf("compare dtype %v", c.DType)
	}
}

func TestSelectBroadcast(t *testing.T) {
	b := NewBuilder()
	pred := b.Input("p", []int{4}, Bool)
	x := b.Input("x", []int{4, 8}, F32)
	s := b.Literal("zero", []int{1}, F32)
	out := b.Select(pred, x, s)
	if !sameShape(out.Shape, []int{4, 8}) {
		t.Fatalf("select shape %v", out.Shape)
	}
}

func TestConcatSliceOneHotCumSumIota(t *testing.T) {
	b := NewBuilder()
	cat := b.Input("x", []int{4, 8}, F32)
	sl := b.Slice(cat, []int{4, 3})
	if !sameShape(sl.Shape, []int{4, 3}) {
		t.Fatalf("slice %v", sl.Shape)
	}
	idx := b.Iota([]int{6}, I32)
	if idx.Kind != KindIota || idx.DType != I32 {
		t.Fatalf("iota %v %v", idx.Kind, idx.DType)
	}
	cs := b.CumSum(cat, 0)
	if !sameShape(cs.Shape, cat.Shape) || cs.Axes[0] != 0 {
		t.Fatalf("cumsum %v %v", cs.Shape, cs.Axes)
	}
}

func TestAllReducePreservesShape(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", []int{128, 64}, BF16)
	ar := b.AllReduce(x)
	if !sameShape(ar.Shape, x.Shape) || !ar.Kind.IsCollective() {
		t.Fatalf("all-reduce %v", ar)
	}
	if ar.Flops() != 0 {
		t.Fatal("collectives carry no local flops")
	}
}

func TestReshapeCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder()
	x := b.Input("x", []int{4, 4}, F32)
	b.Reshape(x, []int{5, 3})
}

func TestDTypeSizes(t *testing.T) {
	cases := map[DType]int{F32: 4, F16: 2, BF16: 2, I32: 4, U32: 4, Bool: 1}
	for dt, want := range cases {
		if dt.Size() != want {
			t.Fatalf("%v size %d", dt, dt.Size())
		}
	}
	for dt := DType(0); dt < DType(NumDTypes); dt++ {
		if dt.String() == "" {
			t.Fatalf("dtype %d unnamed", dt)
		}
	}
}

func TestNodeBytesAndShapeString(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", []int{3, 5}, F16)
	if x.Bytes() != 3*5*2 {
		t.Fatalf("bytes %d", x.Bytes())
	}
	if got := x.ShapeString(); got != "f16[3,5]" {
		t.Fatalf("shape string %q", got)
	}
}

func TestReduceAllAxes(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", []int{3, 5}, F32)
	r := b.Reduce(KindReduceSum, x, 0, 1)
	if !sameShape(r.Shape, []int{1}) {
		t.Fatalf("full reduce %v", r.Shape)
	}
}

func TestBackwardOfEwiseBroadcastReduces(t *testing.T) {
	// Gradient of an implicitly-broadcast operand must be reduced back to
	// its shape.
	b := NewBuilder()
	x := b.Input("x", []int{4, 8}, F32)
	bias := b.Weight("bias", []int{4}, F32)
	y := b.Ewise(KindAdd, x, bias)
	b.Output(y)
	b.AppendBackward()
	g := b.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The bias gradient output must have the bias shape.
	found := false
	for _, o := range g.Outputs[1:] {
		if sameShape(o.Shape, []int{4}) {
			found = true
		}
	}
	if !found {
		t.Fatal("no [4]-shaped gradient output for broadcast bias")
	}
}

func TestBackwardScalarLiteralGrad(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", []int{4, 8}, F32)
	c := b.Weight("c", []int{1}, F32)
	y := b.Ewise(KindMul, x, c)
	b.Output(y)
	b.AppendBackward()
	g := b.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range g.Outputs[1:] {
		if len(o.Shape) == 1 && o.Shape[0] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("no scalar gradient output")
	}
}
