package planner

import (
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/graphnn"
	"predtop/internal/ir"
	"predtop/internal/models"
	"predtop/internal/obs"
	"predtop/internal/pipeline"
	"predtop/internal/predictor"
	"predtop/internal/sim"
	"predtop/internal/stage"
)

// tinyModel is a scaled-down GPT-like config that keeps planner tests fast.
func tinyModel() *models.Model {
	return models.Build(models.Config{
		Name: "tiny", SeqLen: 256, Hidden: 512, Layers: 6, Heads: 8,
		Vocab: 8000, Act: ir.BF16,
	})
}

// syntheticLatency is a deterministic fake latency source for DP testing.
func syntheticLatency(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
	base := float64(sp.Len()) * 10 / math.Sqrt(float64(mesh.NumDevices()))
	base += float64(sp.Lo) * 0.37 // break symmetry
	return base, true
}

// bruteForce enumerates every partition/assignment and returns the best
// Eqn-4 latency.
func bruteForce(numSegments int, p cluster.Platform, lat LatencyFn, B int) float64 {
	meshes := cluster.Meshes(p)
	total := p.Nodes * p.GPUsPerNode
	best := math.Inf(1)
	var rec func(lo, devLeft int, lats []float64)
	rec = func(lo, devLeft int, lats []float64) {
		if lo == numSegments {
			if devLeft == 0 {
				if t := pipeline.Latency(lats, B); t < best {
					best = t
				}
			}
			return
		}
		for hi := lo + 1; hi <= numSegments; hi++ {
			for _, m := range meshes {
				if m.NumDevices() > devLeft {
					continue
				}
				if t, ok := lat(stage.Spec{Lo: lo, Hi: hi}, m); ok {
					rec(hi, devLeft-m.NumDevices(), append(lats, t))
				}
			}
		}
	}
	rec(0, total, nil)
	return best
}

func TestOptimizeMatchesBruteForce(t *testing.T) {
	for _, p := range []cluster.Platform{cluster.Platform1(), cluster.Platform2()} {
		for _, L := range []int{3, 5, 6} {
			plan, ok := Optimize(L, p, syntheticLatency, Options{Microbatches: 8})
			if !ok {
				t.Fatalf("%s L=%d: no plan", p.Name, L)
			}
			want := bruteForce(L, p, syntheticLatency, 8)
			if math.Abs(plan.Est-want)/want > 1e-9 {
				t.Fatalf("%s L=%d: DP %v, brute force %v", p.Name, L, plan.Est, want)
			}
		}
	}
}

func TestPlanStructureValid(t *testing.T) {
	p := cluster.Platform2()
	plan, ok := Optimize(8, p, syntheticLatency, Options{Microbatches: 4})
	if !ok {
		t.Fatal("no plan")
	}
	// Stages must partition [0, 8) contiguously.
	at := 0
	dev := 0
	for i, sp := range plan.Stages {
		if sp.Lo != at || sp.Hi <= sp.Lo {
			t.Fatalf("stage %d not contiguous: %+v", i, plan.Stages)
		}
		at = sp.Hi
		dev += plan.Meshes[i].NumDevices()
	}
	if at != 8 {
		t.Fatalf("stages do not cover the model: %+v", plan.Stages)
	}
	if dev != p.Nodes*p.GPUsPerNode {
		t.Fatalf("meshes use %d devices, cluster has %d", dev, p.Nodes*p.GPUsPerNode)
	}
}

func TestOptimizeRespectsMaxStageLen(t *testing.T) {
	plan, ok := Optimize(8, cluster.Platform2(), syntheticLatency, Options{Microbatches: 4, MaxStageLen: 3})
	if !ok {
		t.Fatal("no plan")
	}
	for _, sp := range plan.Stages {
		if sp.Len() > 3 {
			t.Fatalf("stage %v exceeds max length", sp)
		}
	}
}

func TestOptimizeInfeasibleWhenNoLatencies(t *testing.T) {
	none := func(stage.Spec, cluster.Mesh) (float64, bool) { return 0, false }
	if _, ok := Optimize(4, cluster.Platform1(), none, Options{}); ok {
		t.Fatal("plan found with no usable latencies")
	}
}

func TestEndToEndPlanWithTrueLatency(t *testing.T) {
	mdl := tinyModel()
	p := cluster.Platform1()
	plan, ok := Optimize(mdl.NumSegments(), p, TrueLatency(mdl), Options{Microbatches: 8})
	if !ok {
		t.Fatal("no plan for tiny model on platform 1")
	}
	lat, ok := EvaluatePlan(mdl, plan, 8)
	if !ok || lat <= 0 {
		t.Fatalf("plan evaluation failed: %v %v", lat, ok)
	}
	// The DP plan must beat (or match) the trivial whole-model-on-mesh-2 plan.
	meshes := cluster.Meshes(p)
	trivial := Plan{
		Stages: []stage.Spec{{Lo: 0, Hi: mdl.NumSegments()}},
		Meshes: []cluster.Mesh{meshes[1]},
	}
	trivLat, trivOK := EvaluatePlan(mdl, trivial, 8)
	if trivOK && lat > trivLat*1.0001 {
		t.Fatalf("optimized plan (%v) worse than trivial plan (%v)", lat, trivLat)
	}
}

func TestFullProfilingMetersCost(t *testing.T) {
	mdl := tinyModel()
	meter := &Meter{}
	latFn := FullProfiling(mdl, sim.DefaultProfiler(), meter)
	mesh := cluster.Meshes(cluster.Platform1())[0]
	t1, ok := latFn(stage.Spec{Lo: 1, Hi: 3}, mesh)
	if !ok || t1 <= 0 {
		t.Fatalf("profiling failed: %v %v", t1, ok)
	}
	if meter.ProfileSeconds <= 0 || meter.StagesProfiled == 0 {
		t.Fatalf("cost not metered: %+v", meter)
	}
	// Memoized: a second query charges nothing more.
	before := meter.ProfileSeconds
	latFn(stage.Spec{Lo: 1, Hi: 3}, mesh)
	if meter.ProfileSeconds != before {
		t.Fatal("memoized query re-charged profiling cost")
	}
}

func TestPartialProfilingSkipsImbalanced(t *testing.T) {
	mdl := tinyModel() // 8 segments
	meterFull, meterPart := &Meter{}, &Meter{}
	full := FullProfiling(mdl, sim.DefaultProfiler(), meterFull)
	part := PartialProfiling(mdl, sim.DefaultProfiler(), meterPart, 2.5)
	p2 := cluster.Platform2()
	count := func(f LatencyFn) int {
		n := 0
		for _, sp := range stage.AllSpecs(mdl.NumSegments(), 0) {
			for _, mesh := range cluster.Meshes(p2) {
				if _, ok := f(sp, mesh); ok {
					n++
				}
			}
		}
		return n
	}
	nf, np := count(full), count(part)
	if np >= nf {
		t.Fatalf("partial profiling kept %d of %d pairs", np, nf)
	}
	if np == 0 {
		t.Fatal("partial profiling kept nothing")
	}
	if meterPart.ProfileSeconds >= meterFull.ProfileSeconds {
		t.Fatal("partial profiling should cost less")
	}
}

func TestPredictorProviderEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	mdl := tinyModel()
	p := cluster.Platform1()
	meter := &Meter{}
	latFn := TrainPredictorProvider(mdl, p, PredictorOptions{
		Kind:       KindTransformer,
		SampleFrac: 0.5,
		Train:      predictor.TrainConfig{Epochs: 25, Patience: 25, BatchSize: 8},
		Tran:       graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2},
		Seed:       1,
	}, sim.DefaultProfiler(), meter)
	if meter.TrainSeconds <= 0 || meter.ProfileSeconds <= 0 {
		t.Fatalf("training costs not metered: %+v", meter)
	}
	mesh := cluster.Meshes(p)[1]
	pred, ok := latFn(stage.Spec{Lo: 1, Hi: 3}, mesh)
	if !ok || pred <= 0 {
		t.Fatalf("prediction failed: %v %v", pred, ok)
	}
	if meter.InferSeconds <= 0 {
		t.Fatal("inference cost not metered")
	}
	// Sanity: prediction within an order of magnitude of truth even with
	// this deliberately under-trained test configuration.
	truth, _ := TrueStageLatency(mdl, stage.Spec{Lo: 1, Hi: 3}, mesh)
	if pred > truth*10 || pred < truth/10 {
		t.Fatalf("prediction %v wildly off truth %v", pred, truth)
	}
	// A full planner run on predictions must yield a valid plan.
	plan, ok := Optimize(mdl.NumSegments(), p, latFn, Options{Microbatches: 4})
	if !ok {
		t.Fatal("no plan from predictions")
	}
	if _, ok := EvaluatePlan(mdl, plan, 4); !ok {
		t.Fatal("predicted plan infeasible under ground truth")
	}
}

func TestRandomPlansValidAndVaried(t *testing.T) {
	mdl := tinyModel()
	p := cluster.Platform2()
	rng := rand.New(rand.NewSource(2))
	lats := map[int]bool{}
	lo, hi := math.Inf(1), 0.0
	for i := 0; i < 30; i++ {
		plan := RandomPlan(mdl, p, rng)
		at, dev := 0, 0
		for j, sp := range plan.Stages {
			if sp.Lo != at {
				t.Fatalf("random plan not contiguous: %+v", plan.Stages)
			}
			at = sp.Hi
			dev += plan.Meshes[j].NumDevices()
		}
		if at != mdl.NumSegments() || dev != 4 {
			t.Fatalf("random plan invalid: %+v", plan)
		}
		lats[len(plan.Stages)] = true

		if t2, ok := RandomPlanLatency(mdl, p, rng, 8); ok {
			if t2 < lo {
				lo = t2
			}
			if t2 > hi {
				hi = t2
			}
		}
	}
	if len(lats) < 2 {
		t.Fatal("random plans never varied stage count")
	}
	if hi/lo < 1.5 {
		t.Fatalf("Fig-2 precondition failed: latencies in [%v, %v]", lo, hi)
	}
}

func TestCompositions(t *testing.T) {
	got := compositions(4, []int{1, 2, 4})
	// [4] [2,2] [2,1,1] [1,2,1] [1,1,2] [1,1,1,1]
	if len(got) != 6 {
		t.Fatalf("compositions of 4: %v", got)
	}
	for _, c := range got {
		s := 0
		for _, v := range c {
			s += v
		}
		if s != 4 {
			t.Fatalf("composition %v does not sum to 4", c)
		}
	}
}

func TestTrueLatencyRepeatable(t *testing.T) {
	mdl := tinyModel()
	latFn := TrueLatency(mdl)
	mesh := cluster.Meshes(cluster.Platform1())[0]
	a, ok1 := latFn(stage.Spec{Lo: 1, Hi: 3}, mesh)
	b, ok2 := latFn(stage.Spec{Lo: 1, Hi: 3}, mesh)
	if !ok1 || !ok2 || a != b {
		t.Fatalf("oracle inconsistent across calls: %v %v", a, b)
	}
}

func TestDedup(t *testing.T) {
	got := dedup([]float64{1, 1, 2, 3, 3, 3})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("dedup: %v", got)
	}
	if len(dedup(nil)) != 0 {
		t.Fatal("dedup nil")
	}
}

// TestRandomPlanBoundsSorted is the regression guard for replacing the
// hand-rolled insertion sort with sort.Ints: random plans must still emit
// strictly increasing contiguous stage bounds.
func TestRandomPlanBoundsSorted(t *testing.T) {
	mdl := tinyModel()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		plan := RandomPlan(mdl, cluster.Platform2(), rng)
		at := 0
		for _, sp := range plan.Stages {
			if sp.Lo != at || sp.Hi <= sp.Lo {
				t.Fatalf("bounds not sorted/contiguous: %+v", plan.Stages)
			}
			at = sp.Hi
		}
		if at != mdl.NumSegments() {
			t.Fatalf("plan does not cover the model: %+v", plan.Stages)
		}
	}
}

// TestOptimizeValidatesInput: degenerate input must come back infeasible,
// never panic.
func TestOptimizeValidatesInput(t *testing.T) {
	valid := cluster.Platform1()
	cases := []struct {
		name     string
		segments int
		platform cluster.Platform
		lat      LatencyFn
	}{
		{"zero segments", 0, valid, syntheticLatency},
		{"negative segments", -3, valid, syntheticLatency},
		{"nil latency fn", 4, valid, nil},
		{"empty platform", 4, cluster.Platform{}, syntheticLatency},
		{"zero gpus per node", 4, cluster.Platform{Nodes: 2}, syntheticLatency},
		{"negative devices", 4, cluster.Platform{Nodes: -1, GPUsPerNode: 2}, syntheticLatency},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stats SearchStats
			plan, ok := Optimize(tc.segments, tc.platform, tc.lat, Options{Stats: &stats})
			if ok {
				t.Fatalf("got a plan from degenerate input: %+v", plan)
			}
			if len(plan.Stages) != 0 {
				t.Fatalf("infeasible result carries stages: %+v", plan)
			}
		})
	}
}

func TestPredictorKindStrings(t *testing.T) {
	for _, k := range []PredictorKind{KindTransformer, KindGCN, KindGAT} {
		if k.String() == "PredTOP-?" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
}

// TestOptimizeProfiledIdenticalPlan: attaching a span profiler must not
// change the plan, and must build the planner.optimize → estimate/dp tree
// with one span per (stage, mesh) pair.
func TestOptimizeProfiledIdenticalPlan(t *testing.T) {
	p := cluster.Platform1()
	ref, ok := Optimize(4, p, syntheticLatency, Options{Microbatches: 8})
	if !ok {
		t.Fatal("no reference plan")
	}
	prof := obs.NewProfiler()
	got, ok := Optimize(4, p, syntheticLatency, Options{Microbatches: 8, Prof: prof})
	if !ok {
		t.Fatal("no profiled plan")
	}
	if got.Est != ref.Est || len(got.Stages) != len(ref.Stages) {
		t.Fatalf("profiling changed the plan: %+v vs %+v", got, ref)
	}
	for i := range ref.Stages {
		if got.Stages[i] != ref.Stages[i] || got.Meshes[i].NumDevices() != ref.Meshes[i].NumDevices() {
			t.Fatalf("profiling changed stage %d", i)
		}
	}
	var buf strings.Builder
	if err := prof.WriteProfileTree(&buf); err != nil {
		t.Fatal(err)
	}
	tree := buf.String()
	for _, want := range []string{"planner.optimize", "  estimate", "    s0:1/m0", "  dp", "    tmax"} {
		if !strings.Contains(tree, want+" ") {
			t.Fatalf("planner profile missing %q:\n%s", want, tree)
		}
	}
}

// TestOptimizeReportedIdenticalPlan is the reported-plan row of the
// determinism table: running the search with both of its instruments (span
// profiler, search stats) must yield a plan bitwise identical — stages, meshes, Est, and every StageEst — to a
// bare run, and the search stats must tally with the exploration the bare
// run implies.
func TestOptimizeReportedIdenticalPlan(t *testing.T) {
	p := cluster.Platform2()
	ref, ok := Optimize(6, p, syntheticLatency, Options{Microbatches: 8})
	if !ok {
		t.Fatal("no reference plan")
	}

	prof := obs.NewProfiler()
	var stats SearchStats
	got, ok := Optimize(6, p, syntheticLatency, Options{Microbatches: 8, Prof: prof, Stats: &stats})
	if !ok {
		t.Fatal("no observed plan")
	}
	if math.Float64bits(got.Est) != math.Float64bits(ref.Est) {
		t.Fatalf("telemetry changed Est: %v vs %v", got.Est, ref.Est)
	}
	if len(got.Stages) != len(ref.Stages) || len(got.StageEst) != len(ref.StageEst) {
		t.Fatalf("telemetry changed plan shape: %+v vs %+v", got, ref)
	}
	for i := range ref.Stages {
		if got.Stages[i] != ref.Stages[i] ||
			got.Meshes[i].Index != ref.Meshes[i].Index ||
			got.Meshes[i].Nodes != ref.Meshes[i].Nodes ||
			got.Meshes[i].GPUsPerNode != ref.Meshes[i].GPUsPerNode {
			t.Fatalf("telemetry changed stage %d", i)
		}
		if math.Float64bits(got.StageEst[i]) != math.Float64bits(ref.StageEst[i]) {
			t.Fatalf("telemetry changed StageEst[%d]: %v vs %v", i, got.StageEst[i], ref.StageEst[i])
		}
	}
	// StageEst must decompose the reported Est: Σ StageEst + (B−1)·max.
	sum, max := 0.0, 0.0
	for _, e := range got.StageEst {
		sum += e
		if e > max {
			max = e
		}
	}
	if diff := math.Abs(sum + 7*max - got.Est); diff > 1e-9*got.Est {
		t.Fatalf("StageEst does not decompose Est: Σ=%v max=%v Est=%v", sum, max, got.Est)
	}

	// Search stats must be internally consistent.
	if stats.Segments != 6 || stats.Meshes != 3 || stats.Devices != 4 {
		t.Fatalf("wrong search dimensions: %+v", stats)
	}
	if stats.LatencyLookups != stats.Feasible+stats.Infeasible || stats.LatencyLookups == 0 {
		t.Fatalf("lookup tallies inconsistent: %+v", stats)
	}
	if stats.TmaxCandidates == 0 || stats.DPStates == 0 || stats.DPTransitions == 0 || stats.Improvements == 0 {
		t.Fatalf("search stats empty: %+v", stats)
	}
	// One estimate span per lookup: the span tree and the stats are two
	// readings of the same loop, the only two the search keeps.
	var tree strings.Builder
	if err := prof.WriteProfileTree(&tree); err != nil {
		t.Fatal(err)
	}
	if got := int64(len(regexp.MustCompile(`(?m)^    s\d+:\d+/m\d+ `).FindAllString(tree.String(), -1))); got != stats.LatencyLookups {
		t.Fatalf("span tree holds %d estimate spans, stats counted %d lookups:\n%s", got, stats.LatencyLookups, tree.String())
	}
}

// TrueLatency returns the oracle latency source (simulator-exact optimal
// stage latencies, no noise, no cost) — useful for tests and upper-bound
// comparisons.
func TrueLatency(mdl *models.Model) LatencyFn {
	return func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
		return TrueStageLatency(mdl, sp, mesh)
	}
}
