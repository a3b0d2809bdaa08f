package planner

import (
	"math/rand"
	"sort"

	"predtop/internal/cluster"
	"predtop/internal/intraop"
	"predtop/internal/models"
	"predtop/internal/pipeline"
	"predtop/internal/predictor"
	"predtop/internal/stage"
)

// compositions enumerates the ways the cluster's devices can be tiled by the
// available submesh sizes (order matters: stage i gets part i).
func compositions(total int, sizes []int) [][]int {
	var out [][]int
	var rec func(rem int, cur []int)
	rec = func(rem int, cur []int) {
		if rem == 0 {
			out = append(out, append([]int{}, cur...))
			return
		}
		for _, s := range sizes {
			if s <= rem {
				rec(rem-s, append(cur, s))
			}
		}
	}
	rec(total, nil)
	return out
}

// RandomPlan draws a uniformly random parallelization plan: a random device
// tiling, a random contiguous segment partition with one stage per submesh,
// and (implicitly) random intra-operator strategies chosen by the caller.
func RandomPlan(mdl *models.Model, p cluster.Platform, rng *rand.Rand) Plan {
	meshBySize := map[int]cluster.Mesh{}
	var sizes []int
	for _, m := range cluster.Meshes(p) {
		meshBySize[m.NumDevices()] = m
		sizes = append(sizes, m.NumDevices())
	}
	comps := compositions(p.Nodes*p.GPUsPerNode, sizes)
	L := mdl.NumSegments()

	for {
		comp := comps[rng.Intn(len(comps))]
		s := len(comp)
		if s > L {
			continue
		}
		// Random composition of L segments into s non-empty parts.
		cuts := rng.Perm(L - 1)[:s-1]
		bounds := append([]int{0}, cuts...)
		bounds = append(bounds, L)
		sort.Ints(bounds)
		ok := true
		var plan Plan
		for i := 0; i < s; i++ {
			if bounds[i] == bounds[i+1] {
				ok = false
				break
			}
			plan.Stages = append(plan.Stages, stage.Spec{Lo: bounds[i], Hi: bounds[i+1]})
			plan.Meshes = append(plan.Meshes, meshBySize[comp[i]])
		}
		if ok {
			return plan
		}
	}
}

// RandomPlanLatency evaluates a random plan of lab's model with random
// per-stage configurations and random intra-op sharding strategies, drawn on
// lab's class training graphs — the Fig-2 experiment showing how widely plan
// latencies vary on fixed hardware. ok is false when the drawn plan is
// infeasible (stage exceeds device memory).
func RandomPlanLatency(lab *predictor.Labeler, p cluster.Platform, rng *rand.Rand, microbatches int) (float64, bool) {
	plan := RandomPlan(lab.Model(), p, rng)
	lats := make([]float64, len(plan.Stages))
	for i, sp := range plan.Stages {
		g := lab.TrainingGraph(sp)
		confs := cluster.ConfigsFor(plan.Meshes[i])
		conf := confs[rng.Intn(len(confs))]
		sc := cluster.Scenario{Mesh: plan.Meshes[i], Config: conf}
		res := intraop.Evaluate(g, sc, intraop.RandomStrategies(g, rng))
		if !res.Feasible {
			return 0, false
		}
		lats[i] = res.Latency
	}
	return pipeline.Latency(lats, microbatches), true
}
