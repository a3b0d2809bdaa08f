package models_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/intraop"
	"predtop/internal/ir"
	"predtop/internal/models"
	"predtop/internal/sim"
	"predtop/internal/stage"
)

// classFacts is everything the repository derives from one spec's graphs: the
// forward and training graphs, the predictor's encoding of the forward graph,
// and the intra-op optimum and profiling cost of the training graph under
// every scenario of both platforms.
type classFacts struct {
	sp       stage.Spec
	fwd, bwd *ir.Graph
	enc      *stage.Encoded
	opt      []intraop.Result
	cost     []float64
}

var classScenarios = append(cluster.Scenarios(cluster.Platform1()), cluster.Scenarios(cluster.Platform2())...)

func factsOf(m *models.Model, sp stage.Spec) classFacts {
	f := classFacts{sp: sp, fwd: m.StageGraph(sp.Lo, sp.Hi, false), bwd: m.StageGraph(sp.Lo, sp.Hi, true)}
	f.enc = stage.Encode(stage.FromGraph(f.fwd, true))
	prof := sim.DefaultProfiler()
	for _, sc := range classScenarios {
		res := intraop.Optimize(f.bwd, sc)
		f.opt = append(f.opt, res)
		f.cost = append(f.cost, prof.ProfileCostSeconds(f.bwd, sim.NewExec(sc), res.Latency))
	}
	return f
}

// sameGraph reports the first structural difference between two graphs:
// node kind, class, shape, dtype, Param flag, axes and input IDs, and the
// graph's input and output IDs. Labels are names, not structure.
func sameGraph(a, b *ir.Graph) error {
	if len(a.Nodes) != len(b.Nodes) {
		return fmt.Errorf("%d nodes vs %d", len(a.Nodes), len(b.Nodes))
	}
	ids := func(ns []*ir.Node) []int {
		out := make([]int, len(ns))
		for i, n := range ns {
			out[i] = n.ID
		}
		return out
	}
	for i, x := range a.Nodes {
		y := b.Nodes[i]
		if x.Kind != y.Kind || x.Class != y.Class || x.DType != y.DType || x.Param != y.Param ||
			!slices.Equal(x.Shape, y.Shape) || !slices.Equal(x.Axes, y.Axes) || !slices.Equal(ids(x.Ins), ids(y.Ins)) {
			return fmt.Errorf("node %d: %v vs %v", i, x, y)
		}
	}
	if !slices.Equal(ids(a.Inputs), ids(b.Inputs)) || !slices.Equal(ids(a.Outputs), ids(b.Outputs)) {
		return fmt.Errorf("graph inputs/outputs differ")
	}
	return nil
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameEncoding reports the first difference between two encodings: feature
// matrix, reachability mask and neighbour list, all bit for bit, and depths.
func sameEncoding(a, b *stage.Encoded) error {
	if !sameBits(a.X.Data, b.X.Data) || a.X.R != b.X.R {
		return fmt.Errorf("features differ")
	}
	if !sameBits(a.ReachMask.Data, b.ReachMask.Data) {
		return fmt.Errorf("reachability masks differ")
	}
	if a.Nbr.N() != b.Nbr.N() || a.Nbr.Edges() != b.Nbr.Edges() {
		return fmt.Errorf("neighbour lists differ in size")
	}
	for v := 0; v < a.Nbr.N(); v++ {
		ac, av := a.Nbr.Row(v)
		bc, bv := b.Nbr.Row(v)
		if !slices.Equal(ac, bc) || !sameBits(av, bv) {
			return fmt.Errorf("neighbour row %d differs", v)
		}
	}
	if !slices.Equal(a.Depths, b.Depths) {
		return fmt.Errorf("depths differ")
	}
	return nil
}

// sameFacts reports the first difference between the facts of two specs.
func sameFacts(a, b classFacts) error {
	if err := sameGraph(a.fwd, b.fwd); err != nil {
		return fmt.Errorf("forward graph: %v", err)
	}
	if err := sameGraph(a.bwd, b.bwd); err != nil {
		return fmt.Errorf("training graph: %v", err)
	}
	if err := sameEncoding(a.enc, b.enc); err != nil {
		return fmt.Errorf("encoding: %v", err)
	}
	for i, sc := range classScenarios {
		x, y := a.opt[i], b.opt[i]
		if math.Float64bits(x.Latency) != math.Float64bits(y.Latency) || math.Float64bits(x.MemGB) != math.Float64bits(y.MemGB) ||
			x.Feasible != y.Feasible || !slices.Equal(x.Strategies, y.Strategies) {
			return fmt.Errorf("%v: optimum %+v vs %+v", sc, x, y)
		}
		if math.Float64bits(a.cost[i]) != math.Float64bits(b.cost[i]) {
			return fmt.Errorf("%v: profiling cost %v vs %v", sc, a.cost[i], b.cost[i])
		}
	}
	return nil
}

// checkClasses requires every spec of m up to maxLen segments to derive
// exactly the facts of the first spec of its class, and returns the number of
// classes.
func checkClasses(t *testing.T, m *models.Model, maxLen int) int {
	t.Helper()
	first := map[models.StageClass]classFacts{}
	for _, sp := range stage.AllSpecs(m.NumSegments(), maxLen) {
		class := m.StageClass(sp.Lo, sp.Hi)
		f := factsOf(m, sp)
		rep, ok := first[class]
		if !ok {
			first[class] = f
			continue
		}
		if err := sameFacts(rep, f); err != nil {
			t.Fatalf("%s: %v and %v share a class but differ: %v", m.Config.Name, rep.sp, sp, err)
		}
	}
	return len(first)
}

func withLayers(cfg models.Config, layers int) models.Config {
	cfg.Layers = layers
	return cfg
}

// TestStageClassDeterminesGraph guards the key every per-graph cache uses:
// over the benchmark's and the paper tables' stage universes, specs of one
// class build structurally identical graphs, encode to the same bits, and
// get the same intra-op optimum and profiling cost under every scenario.
func TestStageClassDeterminesGraph(t *testing.T) {
	for _, u := range []struct {
		name    string
		cfg     models.Config
		maxLen  int
		classes int
	}{
		{"Table V/VI GPT-3/24", models.GPT3(), 3, 9},
		{"Table V/VI MoE/32", models.MoE(), 2, 8},
		{"plan_profiled GPT-3/24", models.GPT3(), 8, 24},
		{"plan_profiled MoE/20", withLayers(models.MoE(), 20), 8, 32},
	} {
		if got := checkClasses(t, models.Build(u.cfg), u.maxLen); got != u.classes {
			t.Errorf("%s: %d classes, want %d", u.name, got, u.classes)
		}
	}
}

// FuzzStageClass runs the same guard over model shapes the benchmarks do not
// use: depth, expert count and placement, hidden size and heads.
func FuzzStageClass(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(0), uint8(2), uint8(4))
	f.Add(uint8(6), uint8(4), uint8(2), uint8(4), uint8(2))
	f.Add(uint8(7), uint8(8), uint8(3), uint8(1), uint8(8))
	f.Add(uint8(5), uint8(2), uint8(1), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, layers, experts, moeEvery, heads, headDim uint8) {
		heads, headDim = 1+heads%8, 1+headDim%8
		hidden := 8 * int(heads) * int(headDim)
		cfg := models.Config{
			Name: "fuzz", SeqLen: 64, Hidden: hidden, Layers: 1 + int(layers%8), Heads: int(heads),
			Vocab: 512, Experts: int(experts % 9), ExpertHidden: 2 * hidden, MoEEvery: int(moeEvery % 4),
			Act: ir.BF16,
		}
		checkClasses(t, models.Build(cfg), 4)
	})
}
