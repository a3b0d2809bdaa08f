package ir

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildMLP constructs a small two-layer perceptron forward graph.
func buildMLP() *Builder {
	b := NewBuilder()
	x := b.Input("x", []int{8, 16}, F32)
	w1 := b.Weight("w1", []int{16, 32}, F32)
	w2 := b.Weight("w2", []int{32, 4}, F32)
	h := b.Dot(x, w1)
	h = b.Ewise(KindMax, h, b.Literal("zero", h.Shape, F32))
	y := b.Dot(h, w2)
	b.Output(y)
	return b
}

func TestBuilderShapes(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", []int{4, 8}, F32)
	w := b.Weight("w", []int{8, 3}, F32)
	y := b.Dot(x, w)
	if !sameShape(y.Shape, []int{4, 3}) {
		t.Fatalf("Dot shape %v", y.Shape)
	}
	r := b.Reduce(KindReduceSum, y, 1)
	if !sameShape(r.Shape, []int{4}) {
		t.Fatalf("Reduce shape %v", r.Shape)
	}
	br := b.Broadcast(r, []int{4, 3})
	if !sameShape(br.Shape, []int{4, 3}) {
		t.Fatalf("Broadcast shape %v", br.Shape)
	}
	tr := b.Transpose(y, 1, 0)
	if !sameShape(tr.Shape, []int{3, 4}) {
		t.Fatalf("Transpose shape %v", tr.Shape)
	}
	cv := b.Convert(y, F16)
	if cv.DType != F16 || cv.Bytes() != 4*3*2 {
		t.Fatalf("Convert dtype/bytes %v %d", cv.DType, cv.Bytes())
	}
	b.Output(br)
	g := b.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedDot(t *testing.T) {
	b := NewBuilder()
	a := b.Input("a", []int{2, 4, 8, 16}, F32)
	c := b.Input("c", []int{2, 4, 16, 8}, F32)
	y := b.Dot(a, c)
	if !sameShape(y.Shape, []int{2, 4, 8, 8}) {
		t.Fatalf("batched Dot shape %v", y.Shape)
	}
	// Flops: 2 · out elements · contraction length.
	want := int64(2 * 2 * 4 * 8 * 8 * 16)
	if y.Flops() != want {
		t.Fatalf("Flops %d, want %d", y.Flops(), want)
	}
}

func TestDotShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder()
	x := b.Input("x", []int{4, 8}, F32)
	w := b.Weight("w", []int{9, 3}, F32)
	b.Dot(x, w)
}

func TestValidateCatchesOrderViolation(t *testing.T) {
	b := buildMLP()
	g := b.Graph()
	// Swap two nodes to break topological order.
	g.Nodes[0], g.Nodes[len(g.Nodes)-1] = g.Nodes[len(g.Nodes)-1], g.Nodes[0]
	g.Nodes[0].ID, g.Nodes[len(g.Nodes)-1].ID = 0, len(g.Nodes)-1
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted an out-of-order graph")
	}
}

func TestAppendBackward(t *testing.T) {
	b := buildMLP()
	fwdCount := len(b.nodes)
	b.AppendBackward()
	g := b.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) <= fwdCount+2 {
		t.Fatalf("backward emitted too few nodes: %d fwd, %d total", fwdCount, len(g.Nodes))
	}
	// Every trainable weight must have a gradient output with its shape.
	var weights, gradOuts []*Node
	for _, n := range g.Nodes {
		if n.Param {
			weights = append(weights, n)
		}
	}
	for _, o := range g.Outputs {
		gradOuts = append(gradOuts, o)
	}
	// Outputs: 1 forward + one per weight.
	if len(gradOuts) != 1+len(weights) {
		t.Fatalf("want %d outputs, got %d", 1+len(weights), len(gradOuts))
	}
	shapeSeen := map[string]int{}
	for _, o := range gradOuts[1:] {
		shapeSeen[o.ShapeString()]++
	}
	for _, w := range weights {
		if shapeSeen[w.ShapeString()] == 0 {
			t.Fatalf("no gradient output with shape %s for weight %s", w.ShapeString(), w.Label)
		}
		shapeSeen[w.ShapeString()]--
	}
}

func TestBackwardOfAttentionPattern(t *testing.T) {
	// QKᵀ softmax-style subgraph: exercises batched dots, reduce, broadcast,
	// exp, div in the backward rules.
	b := NewBuilder()
	q := b.Input("q", []int{4, 16, 8}, F32)
	k := b.Input("k", []int{4, 8, 16}, F32)
	s := b.Dot(q, k) // [4,16,16]
	m := b.Reduce(KindReduceMax, s, 2)
	mb := b.Broadcast(m, s.Shape)
	e := b.Unary(KindExp, b.Ewise(KindSub, s, mb))
	z := b.Reduce(KindReduceSum, e, 2)
	zb := b.Broadcast(z, e.Shape)
	p := b.Ewise(KindDiv, e, zb)
	b.Output(p)
	b.AppendBackward()
	g := b.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGatherBackwardEmitsScatter(t *testing.T) {
	b := NewBuilder()
	table := b.Weight("emb", []int{100, 8}, F32)
	idx := b.Input("idx", []int{16}, I32)
	x := b.Gather(table, idx, []int{16, 8})
	b.Output(x)
	b.AppendBackward()
	g := b.Graph()
	found := false
	for _, n := range g.Nodes {
		if n.Kind == KindScatter {
			found = true
		}
	}
	if !found {
		t.Fatal("backward of gather should emit scatter")
	}
}

func TestKindClassification(t *testing.T) {
	if !KindAdd.IsElementwise() || !KindSelect.IsElementwise() {
		t.Fatal("elementwise misclassified")
	}
	if KindDot.IsElementwise() || KindAllReduce.IsElementwise() {
		t.Fatal("non-elementwise misclassified")
	}
	if !KindAllReduce.IsCollective() || KindDot.IsCollective() {
		t.Fatal("collective misclassified")
	}
}

func TestStatsAndStrings(t *testing.T) {
	b := buildMLP()
	g := b.Graph()
	var flops, paramBytes int64
	for _, n := range g.Nodes {
		flops += n.Flops()
		if n.Param {
			paramBytes += int64(n.Bytes())
		}
	}
	if flops == 0 || paramBytes != int64((16*32+32*4)*4) {
		t.Fatalf("flops %d, param bytes %d", flops, paramBytes)
	}
	for k := Kind(0); k < Kind(NumKinds); k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestInvertPermProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		perm := rng.Perm(n)
		inv := invertPerm(perm)
		for i, p := range perm {
			if inv[p] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastAxes(t *testing.T) {
	got := broadcastAxes([]int{3}, []int{4, 5, 3})
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("broadcastAxes %v", got)
	}
	got = broadcastAxes([]int{1, 3}, []int{5, 3})
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("broadcastAxes %v", got)
	}
}
