package intraop

import (
	"math"
	"math/rand"
	"strings"
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

// smallChain builds x·W1 → gelu-ish → ·W2 → ·W3 with three weight matmuls.
func smallChain() *ir.Graph {
	b := ir.NewBuilder()
	x := b.Input("x", []int{256, 512}, ir.BF16)
	w1 := b.Weight("w1", []int{512, 2048}, ir.BF16)
	h := b.Dot(x, w1)
	h = b.Unary(ir.KindTanh, h)
	w2 := b.Weight("w2", []int{2048, 512}, ir.BF16)
	h = b.Dot(h, w2)
	w3 := b.Weight("w3", []int{512, 512}, ir.BF16)
	y := b.Dot(h, w3)
	b.Output(y)
	return b.Graph()
}

// numWeightDots counts the weight matmuls (choice points) of g.
func numWeightDots(g *ir.Graph) int {
	c := 0
	for _, n := range g.Nodes {
		if isWeightDot(n) {
			c++
		}
	}
	return c
}

func TestIsWeightDotDetection(t *testing.T) {
	g := smallChain()
	if numWeightDots(g) != 3 {
		t.Fatalf("weight dots: %d", numWeightDots(g))
	}
	// Mixed-precision converts are unwrapped: model graphs store f32 weights
	// converted to bf16 before the dot.
	m := models.Build(models.GPT3())
	sg := m.StageGraph(2, 3, false)
	if numWeightDots(sg) < 6 { // qkvo + ffn up/down
		t.Fatalf("GPT layer weight dots: %d", numWeightDots(sg))
	}
}

func TestOptimizeMatchesBruteForce(t *testing.T) {
	g := smallChain()
	for _, sc := range []cluster.Scenario{
		scenario(cluster.Platform2(), 2, 2), // 2-way MP
		scenario(cluster.Platform2(), 3, 2), // 2-DP × 2-MP
		scenario(cluster.Platform2(), 3, 3), // 4-way MP
	} {
		opt := Optimize(g, sc)
		if !opt.Feasible {
			t.Fatalf("%v infeasible", sc)
		}
		best := math.Inf(1)
		n := numWeightDots(g)
		combos := 1
		for i := 0; i < n; i++ {
			combos *= int(numStrategies)
		}
		for c := 0; c < combos; c++ {
			strat := make([]Strategy, n)
			v := c
			for i := 0; i < n; i++ {
				strat[i] = Strategy(v % int(numStrategies))
				v /= int(numStrategies)
			}
			r := Evaluate(g, sc, strat)
			if r.Latency < best {
				best = r.Latency
			}
		}
		if math.Abs(opt.Latency-best)/best > 1e-9 {
			t.Fatalf("%v: DP found %v, brute force %v", sc, opt.Latency, best)
		}
	}
}

func TestOptimalNeverWorseThanRandom(t *testing.T) {
	m := models.Build(models.GPT3())
	g := m.StageGraph(2, 4, true)
	rng := rand.New(rand.NewSource(7))
	for _, sc := range cluster.Scenarios(cluster.Platform2()) {
		opt := Optimize(g, sc)
		if !opt.Feasible {
			continue
		}
		for trial := 0; trial < 20; trial++ {
			r := Evaluate(g, sc, RandomStrategies(g, rng))
			if r.Feasible && r.Latency < opt.Latency-1e-12 {
				t.Fatalf("%v: random plan %v beats optimal %v", sc, r.Latency, opt.Latency)
			}
		}
	}
}

func TestRandomPlansVaryWidely(t *testing.T) {
	// Precondition for Fig 2: different intra-op plans of the same stage on
	// the same hardware differ substantially in latency.
	m := models.Build(models.GPT3())
	g := m.StageGraph(2, 4, true)
	sc := scenario(cluster.Platform2(), 3, 3)
	rng := rand.New(rand.NewSource(11))
	lo, hi := math.Inf(1), 0.0
	for trial := 0; trial < 40; trial++ {
		r := Evaluate(g, sc, RandomStrategies(g, rng))
		if r.Latency < lo {
			lo = r.Latency
		}
		if r.Latency > hi {
			hi = r.Latency
		}
	}
	if hi/lo < 1.3 {
		t.Fatalf("random plans too uniform: [%v, %v]", lo, hi)
	}
}

func TestModelParallelHelpsBigStages(t *testing.T) {
	// For a many-layer stage, 2-way MP on NVLink must beat replicated
	// single-GPU execution per microbatch.
	m := models.Build(models.GPT3())
	g := m.StageGraph(2, 8, true)
	single := Optimize(g, scenario(cluster.Platform1(), 1, 1))
	mp2 := Optimize(g, scenario(cluster.Platform1(), 2, 2))
	if !single.Feasible || !mp2.Feasible {
		t.Fatal("stage should fit both configs on A40s")
	}
	if mp2.Latency >= single.Latency {
		t.Fatalf("2-way MP (%v) should beat single GPU (%v)", mp2.Latency, single.Latency)
	}
}

func TestCrossNodeMPPaysEthernet(t *testing.T) {
	// 4-way MP on Platform 2 spans the 10 GbE link; for a modest stage the
	// all-reduces can erase the compute gains vs 2-way NVLink MP.
	m := models.Build(models.GPT3())
	g := m.StageGraph(2, 3, true)
	mp2 := Optimize(g, scenario(cluster.Platform2(), 2, 2))
	mp4 := Optimize(g, scenario(cluster.Platform2(), 3, 3))
	if !mp2.Feasible || !mp4.Feasible {
		t.Fatal("both configs should be feasible")
	}
	if mp4.Latency < mp2.Latency*0.8 {
		t.Fatalf("cross-node MP unrealistically fast: mp4=%v mp2=%v", mp4.Latency, mp2.Latency)
	}
}

func TestInfeasibleStage(t *testing.T) {
	m := models.Build(models.GPT3())
	full := m.StageGraph(0, m.NumSegments(), true)
	r := Optimize(full, scenario(cluster.Platform2(), 1, 1))
	if r.Feasible || !math.IsInf(r.Latency, 1) {
		t.Fatal("full GPT-3 training on one A5500 must be infeasible")
	}
}

func TestStrategiesRecorded(t *testing.T) {
	g := smallChain()
	sc := scenario(cluster.Platform2(), 2, 2)
	r := Optimize(g, sc)
	if len(r.Strategies) != numWeightDots(g) {
		t.Fatalf("recorded %d strategies for %d weight dots", len(r.Strategies), numWeightDots(g))
	}
	// Re-evaluating the recorded plan reproduces the optimal latency.
	r2 := Evaluate(g, sc, r.Strategies)
	if math.Abs(r2.Latency-r.Latency)/r.Latency > 1e-9 {
		t.Fatalf("replay mismatch: %v vs %v", r2.Latency, r.Latency)
	}
}

func TestDPConfigSyncsGradients(t *testing.T) {
	// Pure data parallelism must pay a gradient all-reduce: on mesh 2 the
	// same stage is slower under DP-2 than half of the single-GPU latency.
	m := models.Build(models.GPT3())
	g := m.StageGraph(2, 3, true)
	single := Optimize(g, scenario(cluster.Platform2(), 1, 1))
	dp2 := Optimize(g, scenario(cluster.Platform2(), 2, 1))
	if dp2.Latency <= single.Latency/2 {
		t.Fatalf("DP-2 (%v) cannot be a free 2x over single (%v)", dp2.Latency, single.Latency)
	}
}

// TestOptimalNeverWorseThanReplicated: the DP must never lose to the
// all-replicated fallback plan, for any stage and scenario.
func TestOptimalNeverWorseThanReplicated(t *testing.T) {
	m := models.Build(models.MoE())
	for _, r := range [][2]int{{1, 2}, {2, 4}, {0, 3}} {
		g := m.StageGraph(r[0], r[1], true)
		for _, sc := range cluster.Scenarios(cluster.Platform2()) {
			opt := Optimize(g, sc)
			if !opt.Feasible {
				continue
			}
			rep := Evaluate(g, sc, replicatedPlan(numWeightDots(g)))
			if opt.Latency > rep.Latency+1e-12 {
				t.Fatalf("%v stage %v: optimal %v worse than replicated %v", sc, r, opt.Latency, rep.Latency)
			}
		}
	}
}

// TestLatencyScalesWithStageSize: more segments, more latency, everywhere.
func TestLatencyScalesWithStageSize(t *testing.T) {
	m := models.Build(models.GPT3())
	for _, sc := range cluster.Scenarios(cluster.Platform1()) {
		prev := 0.0
		for hi := 3; hi <= 9; hi += 3 {
			g := m.StageGraph(2, hi, true)
			res := Optimize(g, sc)
			if !res.Feasible {
				continue
			}
			if res.Latency <= prev {
				t.Fatalf("%v: latency not increasing at hi=%d (%v <= %v)", sc, hi, res.Latency, prev)
			}
			prev = res.Latency
		}
	}
}

func TestMemGBReported(t *testing.T) {
	m := models.Build(models.GPT3())
	g := m.StageGraph(2, 4, true)
	res := Optimize(g, scenario(cluster.Platform1(), 1, 1))
	if res.MemGB <= 0 {
		t.Fatalf("memory estimate %v", res.MemGB)
	}
}

// optimizePins are Optimize's answers on the benchmark ladder's GPT-3/24
// training stages (segments [2, 2+segs)) under every Platform-2 scenario with
// model parallelism, the only ones whose Viterbi has choices to trace back.
// Strategies are written one digit per weight matmul. They were captured
// while the DP still copied the whole strategy prefix on every move.
var optimizePins = []struct {
	segs, mesh, conf int
	latency          uint64
	strategies       string
}{
	{1, 2, 2, 0x3f7a339a9ca3e4bb, "111111"},
	{1, 3, 2, 0x3fb592ca83917a37, "111111"},
	{1, 3, 3, 0x3f807335074fb9ae, "000001"},
	{8, 2, 2, 0x3fa9d55e09f34ee3, "111112111112111112111112111112111112111112111111"},
	{8, 3, 2, 0x3fe58c662c97a26b, "111112111112111112111112111112111112111112111111"},
	{8, 3, 3, 0x3fa88141dd151969, "000000000000000000000000000000000000000000000001"},
}

func TestOptimizePinnedOnLadderStages(t *testing.T) {
	m := models.Build(models.GPT3())
	for _, pin := range optimizePins {
		g := m.StageGraph(2, 2+pin.segs, true)
		res := Optimize(g, scenario(cluster.Platform2(), pin.mesh, pin.conf))
		var b strings.Builder
		for _, s := range res.Strategies {
			b.WriteByte('0' + byte(s))
		}
		if got := math.Float64bits(res.Latency); got != pin.latency || b.String() != pin.strategies {
			t.Errorf("%d segments, mesh %d conf %d: latency %#x strategies %q, want %#x %q",
				pin.segs, pin.mesh, pin.conf, got, b.String(), pin.latency, pin.strategies)
		}
	}
}
