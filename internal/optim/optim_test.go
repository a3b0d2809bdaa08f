package optim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"predtop/internal/ag"
	"predtop/internal/tensor"
)

// TestAdamConvergesOnQuadratic checks Adam minimizes ‖w − target‖².
func TestAdamConvergesOnQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := ag.NewParam("w", tensor.Randn(rng, 3, 3, 1))
	target := tensor.Randn(rng, 3, 3, 1)
	opt := NewAdam([]*ag.Param{w})
	for step := 0; step < 800; step++ {
		ctx := ag.NewContext()
		loss := mse(ctx, ctx.Param(w), target)
		ctx.Backward(loss)
		opt.Step(0.05)
	}
	if !tensor.AllClose(w.V, target, 1e-2) {
		t.Fatalf("Adam did not converge: w=%v target=%v", w.V, target)
	}
}

// TestAdamLearnsLinearRegression fits y = X·w* from noisy-free samples.
func TestAdamLearnsLinearRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	wTrue := tensor.Randn(rng, 4, 1, 1)
	x := tensor.Randn(rng, 32, 4, 1)
	y := tensor.New(32, 1)
	tensor.MatMulInto(y, x, wTrue)
	rows := tensor.BatchLayout{B: 1, Stride: 32, Counts: []int{32}}
	w := ag.NewParam("w", tensor.New(4, 1))
	opt := NewAdam([]*ag.Param{w})
	for epoch := 0; epoch < 400; epoch++ {
		ctx := ag.NewContext()
		ctx.Backward(mse(ctx, ctx.SegMatMul(ctx.Const(x), w, rows), y))
		opt.Step(CosineDecay(0.05, epoch, 400))
	}
	if !tensor.AllClose(w.V, wTrue, 5e-2) {
		t.Fatalf("regression failed: w=%v wTrue=%v", w.V, wTrue)
	}
}

func TestCosineDecaySchedule(t *testing.T) {
	base := 0.001
	if got := CosineDecay(base, 0, 500); math.Abs(got-base) > 1e-15 {
		t.Fatalf("epoch 0: %g", got)
	}
	if got := CosineDecay(base, 499, 500); math.Abs(got) > 1e-12 {
		t.Fatalf("last epoch should be ~0: %g", got)
	}
	if got := CosineDecay(base, 600, 500); got != 0 {
		t.Fatalf("past-end should be 0: %g", got)
	}
	// Monotone non-increasing.
	prev := math.Inf(1)
	for e := 0; e < 500; e++ {
		v := CosineDecay(base, e, 500)
		if v > prev+1e-15 {
			t.Fatalf("decay not monotone at epoch %d", e)
		}
		prev = v
	}
}

func TestCosineDecayProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	f := func(e uint8, n uint8) bool {
		total := int(n)%100 + 2
		epoch := int(e) % total
		v := CosineDecay(0.001, epoch, total)
		return v >= 0 && v <= 0.001
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestClipGradNorm(t *testing.T) {
	w := ag.NewParam("w", tensor.New(1, 4))
	copy(w.Grad.Data, []float64{3, 4, 0, 0}) // norm 5
	norm := ClipGradNorm([]*ag.Param{w}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %g", norm)
	}
	post := 0.0
	for _, g := range w.Grad.Data {
		post += g * g
	}
	if math.Abs(math.Sqrt(post)-1) > 1e-12 {
		t.Fatalf("post-clip norm %g", math.Sqrt(post))
	}
	// Under the limit: unchanged.
	copy(w.Grad.Data, []float64{0.1, 0, 0, 0})
	ClipGradNorm([]*ag.Param{w}, 1)
	if w.Grad.Data[0] != 0.1 {
		t.Fatal("clip changed an in-bounds gradient")
	}
}

func TestScaleGrads(t *testing.T) {
	w := ag.NewParam("w", tensor.New(1, 2))
	copy(w.Grad.Data, []float64{2, 4})
	ScaleGrads([]*ag.Param{w}, 0.5)
	if w.Grad.Data[0] != 1 || w.Grad.Data[1] != 2 {
		t.Fatalf("scaled grads %v", w.Grad.Data)
	}
}
