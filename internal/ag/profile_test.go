package ag

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"predtop/internal/obs"
	"predtop/internal/tensor"
)

// buildMarkedLoss runs a small two-"layer" network on ctx, bracketing each layer
// with StartLayer marks, and returns the scalar loss node.
func buildMarkedLoss(ctx *Context, w1, w2 *Param, x, target *tensor.Tensor) *Node {
	l := tensor.BatchLayout{B: 1, Stride: x.R, Counts: []int{x.R}}
	l1 := ctx.StartLayer("l1")
	h := ctx.ReLU(ctx.SegMatMul(ctx.Const(x), w1, l))
	l1.End()
	l2 := ctx.StartLayer("l2")
	y := ctx.SegMatMul(h, w2, l)
	l2.End()
	return mse(ctx, ctx.Scale(ctx.SegSumRows(y, l), 1/float64(x.R)), target)
}

// TestProfiledBackwardBitwiseIdentical: the profiled tape replay must produce
// exactly the gradients of the untimed path — profiling only observes.
func TestProfiledBackwardBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.RandUniform(rng, 3, 4, -1, 1)
	target := tensor.Full(1, 2, 0.5)
	mk := func() (*Param, *Param) {
		r := rand.New(rand.NewSource(7))
		return NewParam("w1", tensor.RandUniform(r, 4, 5, -1, 1)),
			NewParam("w2", tensor.RandUniform(r, 5, 2, -1, 1))
	}

	w1a, w2a := mk()
	plain := NewContext()
	plain.Backward(buildMarkedLoss(plain, w1a, w2a, x, target))

	w1b, w2b := mk()
	prof := obs.NewProfiler()
	span := prof.Start("net")
	profiled := NewContext()
	profiled.SetSpan(span)
	profiled.Backward(buildMarkedLoss(profiled, w1b, w2b, x, target))
	span.End()

	for i, pair := range [][2]*Param{{w1a, w1b}, {w2a, w2b}} {
		for j := range pair[0].Grad.Data {
			a, b := pair[0].Grad.Data[j], pair[1].Grad.Data[j]
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("param %d grad[%d]: %x != %x", i, j, math.Float64bits(a), math.Float64bits(b))
			}
		}
	}

	var buf strings.Builder
	if err := prof.WriteProfileTree(&buf); err != nil {
		t.Fatal(err)
	}
	tree := buf.String()
	for _, want := range []string{"net", "  l1", "  l2", "  backward", "    l1", "    l2", "    (unattributed)"} {
		if !strings.Contains(tree, want+" ") {
			t.Fatalf("tape profile missing %q:\n%s", want, tree)
		}
	}
}

// TestStartLayerWithoutSpanInert: with no span attached, StartLayer records
// nothing and Backward stays on the untimed path — at zero allocations.
func TestStartLayerWithoutSpanInert(t *testing.T) {
	ctx := NewContext()
	allocs := testing.AllocsPerRun(1000, func() {
		ls := ctx.StartLayer("l0")
		ls.End()
	})
	if allocs != 0 {
		t.Fatalf("inert StartLayer allocated %.1f per op", allocs)
	}
	if len(ctx.marks) != 0 {
		t.Fatalf("inert StartLayer recorded %d marks", len(ctx.marks))
	}
}

// TestNestedLayerAttribution: a node recorded while an inner layer is open
// must be attributed to the inner layer, not the enclosing one.
func TestNestedLayerAttribution(t *testing.T) {
	prof := obs.NewProfiler()
	span := prof.Start("net")
	ctx := NewContext()
	ctx.SetSpan(span)

	w := NewParam("w", tensor.Full(2, 2, 0.5))
	outer := ctx.StartLayer("outer")
	a := ctx.SegMatMul(ctx.Const(tensor.Full(1, 2, 1)), w, tensor.BatchLayout{B: 1, Stride: 1, Counts: []int{1}})
	inner := ctx.StartLayer("inner")
	b := ctx.ReLU(a)
	inner.End()
	cNode := ctx.Scale(b, 2)
	outer.End()
	loss := ctx.MeanAll(cNode)
	ctx.Backward(loss)
	span.End()

	var buf strings.Builder
	if err := prof.WriteProfileTree(&buf); err != nil {
		t.Fatal(err)
	}
	tree := buf.String()
	// backward must credit both outer (SegMatMul, Scale) and inner (ReLU).
	for _, want := range []string{"  backward", "    inner", "    outer"} {
		if !strings.Contains(tree, want+" ") {
			t.Fatalf("nested attribution missing %q:\n%s", want, tree)
		}
	}
}

// TestResetClearsMarks: a pooled context must not leak layer marks (or their
// stale tape ranges) into the next forward pass.
func TestResetClearsMarks(t *testing.T) {
	prof := obs.NewProfiler()
	ctx := NewContext()
	ctx.SetSpan(prof.Start("net"))
	ls := ctx.StartLayer("l0")
	ctx.Const(tensor.Full(1, 1, 1))
	ls.End()
	if len(ctx.marks) != 1 {
		t.Fatalf("mark not recorded: %d", len(ctx.marks))
	}
	ctx.Reset()
	if len(ctx.marks) != 0 {
		t.Fatalf("Reset left %d marks", len(ctx.marks))
	}
}
