package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"predtop/internal/ag"
	"predtop/internal/models"
	"predtop/internal/stage"
	"predtop/internal/tensor"
)

// gpt3Stage returns the encoding of a pruned GPT-3 stage of eight decoder
// segments (over 400 nodes), checked to have at least n.
func gpt3Stage(n int) *stage.Encoded {
	cfg := models.GPT3()
	cfg.Layers = 12
	enc := stage.Encode(stage.FromGraph(models.Build(cfg).StageGraph(1, 9, true), true))
	if enc.N() < n {
		panic(fmt.Sprintf("stage has %d nodes, want %d", enc.N(), n))
	}
	return enc
}

// gpt3ReachMask returns the leading n×n block of gpt3Stage's DAGRA reach
// mask. Nodes are in topological order, so a path between two of the first n
// nodes runs through the first n only, and the block is the reach mask of
// the sub-DAG they induce: the model's own block structure, about 28 % −Inf.
func gpt3ReachMask(n int) *tensor.Tensor {
	enc := gpt3Stage(n)
	m := tensor.New(n, n)
	for i := 0; i < n; i++ {
		copy(m.Row(i), enc.ReachMask.Row(i)[:n])
	}
	return m
}

// gpt3Features returns the first n rows of gpt3Stage's node features: the
// one-hot-heavy matrix an input layer reads.
func gpt3Features(n int) *tensor.Tensor {
	x := gpt3Stage(n).X
	return tensor.FromSlice(n, x.C, x.Data[:n*x.C])
}

// BenchmarkAttention times one nn.MultiHeadAttention block of the Tran
// predictor's shape — forward, and forward + backward with every parameter
// and the input taking gradient — on a tape recycled each iteration, under a
// GPT-3 reach mask. attn_GFLOP/s counts the N×N×dk products only (two
// forward, four more backward), the rate the machine's matmul is set
// against: the matmul128 case runs MatMulSerialInto at n = 128 in the same
// process.
func BenchmarkAttention(b *testing.B) {
	for _, n := range []int{128, 400} {
		mask := gpt3ReachMask(n)
		for _, sh := range []struct{ dim, heads int }{{24, 2}, {32, 2}} {
			rng := rand.New(rand.NewSource(1))
			m := NewMultiHeadAttention(rng, "mha", sh.dim, sh.heads)
			x := ag.NewParam("x", tensor.Randn(rng, n, sh.dim, 1))
			for _, back := range []bool{false, true} {
				name := fmt.Sprintf("N=%d/dim=%d/heads=%d/fwd", n, sh.dim, sh.heads)
				products := 2.0
				if back {
					name += "+bwd"
					products = 6
				}
				b.Run(name, func(b *testing.B) {
					ctx := ag.NewContext()
					step := func() {
						out := m.Forward(ctx, ctx.Param(x), mask)
						if back {
							ctx.BackwardVec(out)
						}
						ctx.Reset()
					}
					step()
					b.ResetTimer()
					for range b.N {
						step()
					}
					flops := products * 2 * float64(n) * float64(n) * float64(sh.dim)
					b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "attn_GFLOP/s")
				})
			}
		}
	}
	b.Run("matmul128", benchMatMul128)
}

// benchMatMul128 times MatMulSerialInto at n = 128, the yardstick the
// benchmarks' own rates are set against.
func benchMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x, y, dst := tensor.Randn(rng, 128, 128, 1), tensor.Randn(rng, 128, 128, 1), tensor.New(128, 128)
	for range b.N {
		tensor.MatMulSerialInto(dst, x, y)
	}
	b.ReportMetric(2*math.Pow(128, 3)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkLinear times one nn.Linear of the predictors' shapes — forward,
// and forward + backward — on a tape recycled each iteration. The input
// layer (48 → 32) reads the first N rows of a GPT-3 stage's encoded features
// as a constant, as the models do, so its backward is dW and db only; every
// other shape reads a random x that takes gradient, so its backward adds
// dX. dense_GFLOP/s counts the N×in×out products only (one forward, two or
// one more backward), the rate set against matmul128, MatMulSerialInto at
// n = 128 in the same process.
func BenchmarkLinear(b *testing.B) {
	for _, n := range []int{113, 400} {
		features := gpt3Features(n)
		for _, sh := range []struct{ in, out int }{{stage.FeatureDim, 32}, {32, 32}, {32, 64}, {64, 32}, {64, 64}, {24, 8}} {
			rng := rand.New(rand.NewSource(1))
			l := NewLinear(rng, "lin", sh.in, sh.out)
			input := sh.in == stage.FeatureDim
			x := ag.NewParam("x", tensor.Randn(rng, n, sh.in, 1))
			for _, back := range []bool{false, true} {
				name := fmt.Sprintf("N=%d/in=%d/out=%d/fwd", n, sh.in, sh.out)
				products := 1.0
				if back {
					name += "+bwd"
					products = 3
					if input {
						products = 2
					}
				}
				b.Run(name, func(b *testing.B) {
					ctx := ag.NewContext()
					step := func() {
						xn := ctx.Const(features)
						if !input {
							xn = ctx.Param(x)
						}
						out := l.Forward(ctx, xn)
						if back {
							ctx.BackwardVec(out)
						}
						ctx.Reset()
					}
					step()
					b.ResetTimer()
					for range b.N {
						step()
					}
					flops := products * 2 * float64(n) * float64(sh.in) * float64(sh.out)
					b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "dense_GFLOP/s")
				})
			}
		}
	}
	b.Run("matmul128", benchMatMul128)
}
