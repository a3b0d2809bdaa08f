package sim

import (
	"math"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/ir"
	"predtop/internal/models"
)

func scenario(p cluster.Platform, meshIdx, confIdx int) cluster.Scenario {
	for _, sc := range cluster.Scenarios(p) {
		if sc.Mesh.Index == meshIdx && sc.Config.Index == confIdx {
			return sc
		}
	}
	panic("scenario not found")
}

func singleGPU() Exec { return NewExec(scenario(cluster.Platform2(), 1, 1)) }

func dotNode(m, k, n int) *ir.Node {
	b := ir.NewBuilder()
	x := b.Input("x", []int{m, k}, ir.BF16)
	w := b.Weight("w", []int{k, n}, ir.BF16)
	d := b.Dot(x, w)
	b.Output(d)
	g := b.Graph()
	return g.Nodes[d.ID]
}

func TestOpTimePositiveAndShardScaling(t *testing.T) {
	e := NewExec(scenario(cluster.Platform2(), 3, 3)) // 4-way MP
	n := dotNode(1024, 2048, 2048)
	t1 := e.Cost(n).Time(1, false)
	t4 := e.Cost(n).Time(4, false)
	if t1 <= 0 || t4 <= 0 {
		t.Fatalf("non-positive op times %v %v", t1, t4)
	}
	if t4 >= t1 {
		t.Fatal("sharding must reduce op time")
	}
	// Sub-linear scaling: launch overhead is not divided.
	if t4 < t1/4.5 {
		t.Fatalf("scaling too good: %v vs %v", t1, t4)
	}
}

func TestOpTimeLargeDotNearPeak(t *testing.T) {
	e := singleGPU()
	n := dotNode(4096, 4096, 4096)
	got := e.Cost(n).Time(1, false)
	ideal := float64(n.Flops()) / e.Peak(ir.BF16)
	if got < ideal {
		t.Fatalf("faster than peak: %v < %v", got, ideal)
	}
	if got > ideal*4 {
		t.Fatalf("large matmul too inefficient: %v vs ideal %v", got, ideal)
	}
}

func TestSmallDotLessEfficient(t *testing.T) {
	e := singleGPU()
	big := dotNode(1024, 1024, 1024)
	small := dotNode(32, 32, 32)
	effBig := float64(big.Flops()) / e.Peak(ir.BF16) / e.Cost(big).Time(1, false)
	effSmall := float64(small.Flops()) / e.Peak(ir.BF16) / e.Cost(small).Time(1, false)
	if effSmall >= effBig {
		t.Fatalf("small dot should be less efficient: %v vs %v", effSmall, effBig)
	}
}

func TestFusedOpsMuchCheaper(t *testing.T) {
	e := singleGPU()
	b := ir.NewBuilder()
	x := b.Input("x", []int{1024, 2048}, ir.BF16)
	y := b.Unary(ir.KindExp, x)
	b.Output(y)
	n := y
	tUnfused := e.Cost(n).Time(1, false)
	tFused := e.Cost(n).Time(1, true)
	if tFused >= tUnfused/3 {
		t.Fatalf("fusion should be a large saving: %v vs %v", tFused, tUnfused)
	}
}

func TestFusedDetection(t *testing.T) {
	b := ir.NewBuilder()
	x := b.Input("x", []int{64, 64}, ir.F32)
	w := b.Weight("w", []int{64, 64}, ir.F32)
	d := b.Dot(x, w)
	e1 := b.Unary(ir.KindExp, d)   // fusable: sole consumer of d
	e2 := b.Unary(ir.KindTanh, e1) // fusable chain... but e1 has 2 consumers below
	e3 := b.Ewise(ir.KindAdd, e1, e2)
	b.Output(e3)
	g := b.Graph()
	consumers := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Ins {
			consumers[in.ID]++
		}
	}
	if !Fused(g.Nodes[e1.ID], consumers) {
		t.Fatal("exp after single-consumer dot should fuse")
	}
	if Fused(g.Nodes[e2.ID], consumers) {
		t.Fatal("tanh after multi-consumer exp must not fuse")
	}
	if Fused(g.Nodes[d.ID], consumers) {
		t.Fatal("dot is not an element-wise fusion candidate")
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	e := singleGPU()
	n := dotNode(128, 256, 512)
	j1 := e.jitter(n, 0.1)
	j2 := e.jitter(n, 0.1)
	if j1 != j2 {
		t.Fatal("jitter must be deterministic")
	}
	if j1 < 0.9 || j1 > 1.1 {
		t.Fatalf("jitter %v out of bounds", j1)
	}
	// Different shapes give (almost surely) different jitter.
	m := dotNode(128, 256, 513)
	if e.jitter(n, 0.1) == e.jitter(m, 0.1) {
		t.Fatal("jitter should depend on shape")
	}
}

func TestCollectiveTimes(t *testing.T) {
	nv := cluster.Platform2().IntraNode
	eth := cluster.Platform2().InterNode
	b := 100e6 // 100 MB
	arNV := AllReduceTime(b, 2, nv)
	arEth := AllReduceTime(b, 2, eth)
	if arNV <= 0 || arEth <= arNV {
		t.Fatalf("ethernet all-reduce must be slower: %v vs %v", arEth, arNV)
	}
	if AllReduceTime(b, 1, nv) != 0 {
		t.Fatal("single-device all-reduce must be free")
	}
	if ag := AllGatherTime(b, 2, nv); ag >= arNV {
		t.Fatal("all-gather (1 pass) should beat all-reduce (2 passes)")
	}
	if AllReduceTime(2*b, 2, nv) <= arNV {
		t.Fatal("all-reduce must grow with payload")
	}
}

func TestFabricSelection(t *testing.T) {
	p2 := cluster.Platform2()
	// 4-way MP on mesh 3 spans nodes → inter-node fabric.
	e := NewExec(scenario(p2, 3, 3))
	if e.MPFabric() != p2.InterNode {
		t.Fatal("4-way MP should use inter-node fabric")
	}
	// 2-way MP of (dp2, mp2) fits in a node.
	e = NewExec(scenario(p2, 3, 2))
	if e.MPFabric() != p2.IntraNode {
		t.Fatal("2-way MP should use NVLink")
	}
	if e.DPFabric() != p2.InterNode {
		t.Fatal("DP groups of (2,2) span nodes")
	}
	// Mesh 2 (single node): everything intra.
	e = NewExec(scenario(p2, 2, 1))
	if e.DPFabric() != p2.IntraNode {
		t.Fatal("mesh-2 DP should use NVLink")
	}
}

func TestMemoryModel(t *testing.T) {
	m := models.Build(models.GPT3())
	full := m.StageGraph(0, m.NumSegments(), true)
	oneLayer := m.StageGraph(2, 3, true)

	p2single := NewExec(scenario(cluster.Platform2(), 1, 1))
	if p2single.FitsMemory(full) {
		t.Fatal("GPT-3 1.3B training must not fit on one 24 GB A5500")
	}
	if !p2single.FitsMemory(oneLayer) {
		t.Fatal("a single decoder layer must fit on an A5500")
	}
	// 4-way model parallelism shards the weights.
	p2mp4 := NewExec(scenario(cluster.Platform2(), 3, 3))
	if p2mp4.MemoryBytes(full) >= p2single.MemoryBytes(full) {
		t.Fatal("MP must reduce per-device memory")
	}
}

func TestMeasureNoise(t *testing.T) {
	p := DefaultProfiler()
	lat := 0.01
	m1 := p.Measure(lat, 42)
	m2 := p.Measure(lat, 42)
	if m1 != m2 {
		t.Fatal("measurement must be deterministic in seed")
	}
	if m1 == lat {
		t.Fatal("noise should perturb the measurement")
	}
	// Aggregate noise is small and unbiased-ish.
	sum, sumAbs := 0.0, 0.0
	for s := uint64(0); s < 500; s++ {
		d := p.Measure(lat, s)/lat - 1
		sum += d
		sumAbs += math.Abs(d)
	}
	if sumAbs/500 > 0.03 {
		t.Fatalf("noise too large: mean |δ| = %v", sumAbs/500)
	}
	if math.Abs(sum/500) > 0.01 {
		t.Fatalf("noise too biased: mean δ = %v", sum/500)
	}
}

func TestProfilingCostComponents(t *testing.T) {
	m := models.Build(models.GPT3())
	small := m.StageGraph(2, 3, true)
	big := m.StageGraph(2, 8, true)
	e := singleGPU()
	p := DefaultProfiler()
	cSmall := p.ProfileCostSeconds(small, e, 0.01)
	cBig := p.ProfileCostSeconds(big, e, 0.05)
	if cSmall <= 0 || cBig <= cSmall {
		t.Fatalf("profiling cost must grow with stage size: %v vs %v", cSmall, cBig)
	}
	// Compile time dominates short executions — the effect Fig 10a exploits.
	if CompileSeconds(small, e) < float64(p.Warmup+p.Trials)*0.01 {
		t.Fatal("compilation should dominate profiling of a fast stage")
	}
	// MP configurations search more strategies.
	eMP := NewExec(scenario(cluster.Platform2(), 2, 2))
	if CompileSeconds(small, eMP) <= CompileSeconds(small, e) {
		t.Fatal("MP compilation must cost more")
	}
}

func TestStageLatencyMagnitudePlausible(t *testing.T) {
	// A GPT-3 decoder layer (fwd+bwd, 1024 tokens) on an A40 should land in
	// the single-digit-millisecond range — the scale real profiles report.
	m := models.Build(models.GPT3())
	g := m.StageGraph(2, 3, true)
	e := NewExec(scenario(cluster.Platform1(), 1, 1))
	consumers := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Ins {
			consumers[in.ID]++
		}
	}
	total := 0.0
	for _, n := range g.Nodes {
		total += e.Cost(n).Time(1, Fused(n, consumers))
	}
	if total < 0.5e-3 || total > 60e-3 {
		t.Fatalf("implausible layer latency %v s", total)
	}
}
