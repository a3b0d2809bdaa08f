package planner

import (
	"math"
	"math/rand"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/intraop"
	"predtop/internal/ir"
	"predtop/internal/models"
	"predtop/internal/pipeline"
	"predtop/internal/stage"
)

// refTrueStageLatency is the ground truth as it was computed before the
// labeler became the one label path: the spec's own training graph g,
// optimized under each of the mesh's configurations, the best kept.
func refTrueStageLatency(g *ir.Graph, mesh cluster.Mesh) (float64, bool) {
	best := math.Inf(1)
	for _, conf := range cluster.ConfigsFor(mesh) {
		res := intraop.Optimize(g, cluster.Scenario{Mesh: mesh, Config: conf})
		if res.Feasible && res.Latency < best {
			best = res.Latency
		}
	}
	return best, !math.IsInf(best, 1)
}

// refRandomPlanLatency is Fig 2's random-plan latency as it was computed
// before it drew its strategies on the labeler's class graphs: a training
// graph built per stage of every draw. It also returns the specs it built a
// graph for, in order.
func refRandomPlanLatency(mdl *models.Model, p cluster.Platform, rng *rand.Rand, microbatches int) (float64, bool, []stage.Spec) {
	plan := RandomPlan(mdl, p, rng)
	lats := make([]float64, len(plan.Stages))
	var built []stage.Spec
	for i, sp := range plan.Stages {
		g := mdl.StageGraph(sp.Lo, sp.Hi, true)
		built = append(built, sp)
		confs := cluster.ConfigsFor(plan.Meshes[i])
		conf := confs[rng.Intn(len(confs))]
		sc := cluster.Scenario{Mesh: plan.Meshes[i], Config: conf}
		res := intraop.Evaluate(g, sc, intraop.RandomStrategies(g, rng))
		if !res.Feasible {
			return 0, false, built
		}
		lats[i] = res.Latency
	}
	return pipeline.Latency(lats, microbatches), true, built
}

// TestTrueStageLatencyMatchesPerSpecGraphs holds the labeler's ground truth to
// the per-spec formula it replaced, bit for bit: every stage of up to five
// segments of GPT-3 and MoE at 12 layers, on every mesh of both platforms,
// through one labeler per model (so a class labeled on one platform is
// relabeled, not reused, on the other).
func TestTrueStageLatencyMatchesPerSpecGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes every stage of two 12-layer models under nine scenarios twice")
	}
	platforms := []cluster.Platform{cluster.Platform1(), cluster.Platform2()}
	for _, cfg := range []models.Config{models.GPT3(), models.MoE()} {
		cfg.Layers = 12
		mdl := models.Build(cfg)
		lab := newLabeler(mdl)
		pairs := 0
		for _, sp := range stage.AllSpecs(mdl.NumSegments(), 5) {
			g := mdl.StageGraph(sp.Lo, sp.Hi, true)
			for _, p := range platforms {
				for _, mesh := range cluster.Meshes(p) {
					want, wantOK := refTrueStageLatency(g, mesh)
					got, gotOK := TrueStageLatency(lab, sp, mesh)
					if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %v on %v: labeler %v (ok %v), per-spec graph %v (ok %v)",
							cfg.Name, sp, mesh, got, gotOK, want, wantOK)
					}
					pairs++
				}
			}
		}
		if pairs < 250 {
			t.Fatalf("%s: only %d (stage, mesh) pairs compared", cfg.Name, pairs)
		}
	}
}

// TestRandomPlanLatencyMatchesPerSpecGraphs holds Fig 2's random plans, costed
// on the labeler's class graphs, to the per-spec-graph version bit for bit:
// 40 draws each of GPT-3 and MoE at Table IV depth on Platform 2, from one
// seed, with each path consuming its own copy of the random stream.
func TestRandomPlanLatencyMatchesPerSpecGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every drawn stage of two Table IV models")
	}
	p := cluster.Platform2()
	for _, cfg := range []models.Config{models.GPT3(), models.MoE()} {
		mdl := models.Build(cfg)
		lab := newLabeler(mdl)
		got, want := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		feasible := 0
		for draw := range 40 {
			gotLat, gotOK := RandomPlanLatency(lab, p, got, 16)
			wantLat, wantOK, _ := refRandomPlanLatency(mdl, p, want, 16)
			if gotOK != wantOK || math.Float64bits(gotLat) != math.Float64bits(wantLat) {
				t.Fatalf("%s draw %d: class graphs %v (ok %v), per-spec graphs %v (ok %v)",
					cfg.Name, draw, gotLat, gotOK, wantLat, wantOK)
			}
			if gotOK {
				feasible++
			}
		}
		if feasible == 0 {
			t.Fatalf("%s: no feasible draw", cfg.Name)
		}
	}
}
