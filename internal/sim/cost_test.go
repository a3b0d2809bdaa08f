package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/ir"
	"predtop/internal/models"
)

// refJitter is the reference jitter: hash/fnv's FNV-1a over the documented
// key layout, 4 little-endian bytes per field — kind, dtype, each shape
// dimension, platform index, mesh index, data- and model-parallel degree.
func refJitter(e Exec, n *ir.Node, amp float64) float64 {
	h := fnv.New64a()
	var buf []byte
	put := func(v int) {
		for i := 0; i < 4; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
	}
	put(int(n.Kind))
	put(int(n.DType))
	for _, d := range n.Shape {
		put(d)
	}
	put(e.Mesh.Platform.Index)
	put(e.Mesh.Index)
	put(e.Config.DataParallel)
	put(e.Config.ModelParallel)
	h.Write(buf)
	u := float64(h.Sum64()%1_000_003) / 1_000_003.0
	return 1 - amp + 2*amp*u
}

// refOpTime is the reference operator cost: the roofline formula evaluated
// from scratch for one shard count and fusion flag, on the reference jitter.
func refOpTime(e Exec, n *ir.Node, shard int, fused bool) float64 {
	if n.Class != ir.ClassOperator || n.Kind.IsCollective() {
		return 0
	}
	gpu := e.Mesh.Platform.GPU
	flops := float64(n.Flops()) / float64(shard)
	bytes := float64(n.Bytes())
	for _, in := range n.Ins {
		bytes += float64(in.Bytes())
	}
	bytes /= float64(shard)
	var eff float64
	switch {
	case n.Kind == ir.KindDot:
		ash := n.Ins[0].Shape
		k := float64(ash[len(ash)-1])
		nOut := float64(n.Shape[len(n.Shape)-1])
		m := float64(1)
		if len(n.Shape) >= 2 {
			m = float64(n.Shape[len(n.Shape)-2])
		}
		eff = 0.72
		eff *= math.Min(1, math.Pow(k/512, 0.25))
		eff *= math.Min(1, math.Pow(nOut/128, 0.15))
		eff *= math.Min(1, math.Pow(m/128, 0.15))
		eff *= refJitter(e, n, 0.10)
	case n.Kind == ir.KindGather || n.Kind == ir.KindScatter:
		eff = 0.35 * refJitter(e, n, 0.08)
	default:
		eff = 0.9 * refJitter(e, n, 0.05)
	}
	compute := flops / (e.Peak(n.DType) * eff)
	memory := bytes / (gpu.MemBandwidthGBs * 1e9)
	if n.Kind != ir.KindDot {
		compute = 0
		memory /= eff
	}
	t := math.Max(compute, memory)
	if fused {
		return t * 0.08
	}
	return t + gpu.KernelLaunchUS*1e-6
}

// allExecs returns an Exec for every scenario of both platforms.
func allExecs() []Exec {
	var out []Exec
	for _, p := range []cluster.Platform{cluster.Platform1(), cluster.Platform2()} {
		for _, sc := range cluster.Scenarios(p) {
			out = append(out, NewExec(sc))
		}
	}
	return out
}

// TestJitterMatchesFNVReference pins the inline FNV-1a to hash/fnv over the
// documented byte layout: random kinds, dtypes and shapes of rank 0–4
// (negative and multi-byte dimensions included), at every amplitude the
// cost model uses, under every scenario of both platforms. The profiler's
// noise hash is pinned the same way over its 8 seed bytes.
func TestJitterMatchesFNVReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	execs := allExecs()
	for i := 0; i < 400; i++ {
		shape := make([]int, rng.Intn(5))
		for j := range shape {
			shape[j] = rng.Intn(1<<20) - 1<<10
		}
		n := &ir.Node{Kind: ir.Kind(rng.Intn(ir.NumKinds)), DType: ir.DType(rng.Intn(ir.NumDTypes)),
			Class: ir.ClassOperator, Shape: shape}
		for _, e := range execs {
			for _, amp := range []float64{0.05, 0.08, 0.10} {
				if got, want := e.jitter(n, amp), refJitter(e, n, amp); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v %v %v under %+v amp %v: jitter %v, hash/fnv %v", n.Kind, n.DType, shape, e.Config, amp, got, want)
				}
			}
		}
	}

	p := DefaultProfiler()
	for i := 0; i < 400; i++ {
		seed := rng.Uint64()
		h := fnv.New64a()
		var buf [8]byte
		for j := range buf {
			buf[j] = byte(seed >> (8 * j))
		}
		h.Write(buf[:])
		if got, want := fnvPut(fnvOffset64, seed, 8), h.Sum64(); got != want {
			t.Fatalf("seed %#x: inline hash %#x, hash/fnv %#x", seed, got, want)
		}
		if p.Measure(0.01, seed) <= 0 {
			t.Fatalf("non-positive measurement at seed %#x", seed)
		}
	}
}

// TestCostMatchesReference: the per-node cost evaluated at a shard count and
// fusion flag equals the from-scratch roofline bit for bit, for every node of
// the ladder's one- and eight-segment GPT-3 training stages and of an MoE
// stage (gathers and scatters), at every shard count a configuration can ask
// for, fused and unfused, under every scenario of both platforms.
func TestCostMatchesReference(t *testing.T) {
	gpt, moe := models.Build(models.GPT3()), models.Build(models.MoE())
	for _, g := range []*ir.Graph{gpt.StageGraph(2, 3, true), gpt.StageGraph(2, 10, true), moe.StageGraph(2, 6, true)} {
		for _, e := range allExecs() {
			for _, n := range g.Nodes {
				oc := e.Cost(n)
				for _, shard := range []int{1, 2, 4} {
					for _, fused := range []bool{false, true} {
						got, want := oc.Time(shard, fused), refOpTime(e, n, shard, fused)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("node %v under %+v shard %d fused %v: Cost.Time %v, reference %v",
								n, e.Config, shard, fused, got, want)
						}
					}
				}
			}
		}
	}
}
