package planner

import (
	"fmt"
	"maps"
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

// holeyLatency is syntheticLatency with a seeded subset of pairs made
// unusable in each way a latency source can say so: ok=false, +Inf, zero and
// negative estimates.
func holeyLatency(seed int64, numSegments int, p cluster.Platform) LatencyFn {
	type key struct{ lo, hi, mesh int }
	rng := rand.New(rand.NewSource(seed))
	holes := map[key]int{}
	for _, sp := range stage.AllSpecs(numSegments, 0) {
		for _, m := range cluster.Meshes(p) {
			if r := rng.Intn(10); r < 4 {
				holes[key{sp.Lo, sp.Hi, m.Index}] = r + 1
			}
		}
	}
	return func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
		t, _ := syntheticLatency(sp, mesh)
		switch holes[key{sp.Lo, sp.Hi, mesh.Index}] {
		case 1:
			return t, false
		case 2:
			return math.Inf(1), true
		case 3:
			return 0, true
		case 4:
			return -t, true
		}
		return t, true
	}
}

// bruteForce enumerates every partition/assignment with stages of at most
// maxLen segments (0 = unbounded) and returns the best Eqn-4 latency over
// the pairs Optimize counts as feasible.
func bruteForce(numSegments int, p cluster.Platform, lat LatencyFn, B, maxLen int) float64 {
	meshes := cluster.Meshes(p)
	total := p.Nodes * p.GPUsPerNode
	if maxLen <= 0 {
		maxLen = numSegments
	}
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
		for hi := lo + 1; hi <= numSegments && hi-lo <= maxLen; hi++ {
			for _, m := range meshes {
				if m.NumDevices() > devLeft {
					continue
				}
				if t, ok := lat(stage.Spec{Lo: lo, Hi: hi}, m); ok && t > 0 && !math.IsInf(t, 1) {
					rec(hi, devLeft-m.NumDevices(), append(lats, t))
				}
			}
		}
	}
	rec(0, total, nil)
	return best
}

// TestOptimizeMatchesBruteForce holds the DP to exhaustive enumeration on
// both platforms, on a hole-free source and on seeded holey ones, with and
// without a stage-length cap below the segment count, and pins the search
// statistics of every case to literals. It also counts the lookups: the
// search asks for every pair of stage.AllSpecs × meshes exactly once and for
// no other pair, which is why no latency source keeps a memo.
func TestOptimizeMatchesBruteForce(t *testing.T) {
	p1, p2 := cluster.Platform1(), cluster.Platform2()
	cases := []struct {
		p        cluster.Platform
		segments int
		maxLen   int
		holeSeed int64 // 0 = no holes
		want     SearchStats
	}{
		{p: p1, segments: 3,
			want: SearchStats{Segments: 3, Meshes: 2, Devices: 2, MaxStageLen: 3, LatencyLookups: 12, Feasible: 12, Infeasible: 0, TmaxCandidates: 12, DPStates: 144, DPTransitions: 432, Improvements: 2}},
		{p: p1, segments: 5,
			want: SearchStats{Segments: 5, Meshes: 2, Devices: 2, MaxStageLen: 5, LatencyLookups: 30, Feasible: 30, Infeasible: 0, TmaxCandidates: 30, DPStates: 540, DPTransitions: 2700, Improvements: 1}},
		{p: p1, segments: 6,
			want: SearchStats{Segments: 6, Meshes: 2, Devices: 2, MaxStageLen: 6, LatencyLookups: 42, Feasible: 42, Infeasible: 0, TmaxCandidates: 42, DPStates: 882, DPTransitions: 5292, Improvements: 1}},
		{p: p2, segments: 3,
			want: SearchStats{Segments: 3, Meshes: 3, Devices: 4, MaxStageLen: 3, LatencyLookups: 18, Feasible: 18, Infeasible: 0, TmaxCandidates: 16, DPStates: 320, DPTransitions: 1440, Improvements: 1}},
		{p: p2, segments: 5,
			want: SearchStats{Segments: 5, Meshes: 3, Devices: 4, MaxStageLen: 5, LatencyLookups: 45, Feasible: 45, Infeasible: 0, TmaxCandidates: 39, DPStates: 1170, DPTransitions: 8775, Improvements: 2}},
		{p: p2, segments: 6,
			want: SearchStats{Segments: 6, Meshes: 3, Devices: 4, MaxStageLen: 6, LatencyLookups: 63, Feasible: 63, Infeasible: 0, TmaxCandidates: 54, DPStates: 1890, DPTransitions: 17010, Improvements: 2}},
		{p: p1, segments: 6, maxLen: 3,
			want: SearchStats{Segments: 6, Meshes: 2, Devices: 2, MaxStageLen: 3, LatencyLookups: 30, Feasible: 30, Infeasible: 0, TmaxCandidates: 30, DPStates: 630, DPTransitions: 2700, Improvements: 1}},
		{p: p2, segments: 6, maxLen: 4,
			want: SearchStats{Segments: 6, Meshes: 3, Devices: 4, MaxStageLen: 4, LatencyLookups: 54, Feasible: 54, Infeasible: 0, TmaxCandidates: 46, DPStates: 1610, DPTransitions: 12420, Improvements: 2}},
		{p: p1, segments: 5, holeSeed: 1,
			want: SearchStats{Segments: 5, Meshes: 2, Devices: 2, MaxStageLen: 5, LatencyLookups: 30, Feasible: 22, Infeasible: 8, TmaxCandidates: 22, DPStates: 396, DPTransitions: 1980, Improvements: 1}},
		{p: p2, segments: 6, holeSeed: 2,
			want: SearchStats{Segments: 6, Meshes: 3, Devices: 4, MaxStageLen: 6, LatencyLookups: 63, Feasible: 43, Infeasible: 20, TmaxCandidates: 38, DPStates: 1330, DPTransitions: 11970, Improvements: 3}},
		{p: p2, segments: 7, maxLen: 3, holeSeed: 3,
			want: SearchStats{Segments: 7, Meshes: 3, Devices: 4, MaxStageLen: 3, LatencyLookups: 54, Feasible: 34, Infeasible: 20, TmaxCandidates: 31, DPStates: 1240, DPTransitions: 8370, Improvements: 1}},
		{p: p1, segments: 7, maxLen: 5, holeSeed: 4,
			want: SearchStats{Segments: 7, Meshes: 2, Devices: 2, MaxStageLen: 5, LatencyLookups: 50, Feasible: 33, Infeasible: 17, TmaxCandidates: 33, DPStates: 792, DPTransitions: 4950, Improvements: 1}},
		{p: p2, segments: 8, maxLen: 3, holeSeed: 5,
			want: SearchStats{Segments: 8, Meshes: 3, Devices: 4, MaxStageLen: 3, LatencyLookups: 63, Feasible: 43, Infeasible: 20, TmaxCandidates: 39, DPStates: 1755, DPTransitions: 12285, Improvements: 1}},
		{p: p2, segments: 8, maxLen: 2, holeSeed: 5,
			want: SearchStats{Segments: 8, Meshes: 3, Devices: 4, MaxStageLen: 2, LatencyLookups: 45, Feasible: 29, Infeasible: 16, TmaxCandidates: 25, DPStates: 1125, DPTransitions: 5625, Improvements: 0}}, // no plan: too few feasible stages
	}
	for _, tc := range cases {
		lat := syntheticLatency
		if tc.holeSeed != 0 {
			lat = holeyLatency(tc.holeSeed, tc.segments, tc.p)
		}
		type pair struct{ lo, hi, mesh int }
		asked := map[pair]int{}
		counted := func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
			asked[pair{sp.Lo, sp.Hi, mesh.Index}]++
			return lat(sp, mesh)
		}
		plan, ok := Optimize(tc.segments, tc.p, counted, Options{Microbatches: 8, MaxStageLen: tc.maxLen})
		want := bruteForce(tc.segments, tc.p, lat, 8, tc.maxLen)
		name := fmt.Sprintf("%s L=%d cap=%d holes=%d", tc.p.Name, tc.segments, tc.maxLen, tc.holeSeed)
		once := map[pair]int{}
		for _, sp := range stage.AllSpecs(tc.segments, tc.maxLen) {
			for _, mesh := range cluster.Meshes(tc.p) {
				once[pair{sp.Lo, sp.Hi, mesh.Index}] = 1
			}
		}
		if !maps.Equal(asked, once) {
			t.Errorf("%s: asked %v, want every pair of AllSpecs × meshes once: %v", name, asked, once)
		}
		if ok != !math.IsInf(want, 1) {
			t.Fatalf("%s: DP found a plan %v, brute force best %v", name, ok, want)
		}
		if ok && math.Abs(plan.Est-want)/want > 1e-9 {
			t.Fatalf("%s: DP %v, brute force %v", name, plan.Est, want)
		}
		for _, sp := range plan.Stages {
			if tc.maxLen > 0 && sp.Len() > tc.maxLen {
				t.Fatalf("%s: stage %v exceeds the cap", name, sp)
			}
		}
		if plan.Search != tc.want {
			t.Errorf("%s: stats %+v, want %+v", name, plan.Search, tc.want)
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
	lat, ok := EvaluatePlan(newLabeler(mdl), plan, 8)
	if !ok || lat <= 0 {
		t.Fatalf("plan evaluation failed: %v %v", lat, ok)
	}
	// The DP plan must beat (or match) the trivial whole-model-on-mesh-2 plan.
	meshes := cluster.Meshes(p)
	trivial := Plan{
		Stages: []stage.Spec{{Lo: 0, Hi: mdl.NumSegments()}},
		Meshes: []cluster.Mesh{meshes[1]},
	}
	trivLat, trivOK := EvaluatePlan(newLabeler(mdl), trivial, 8)
	if trivOK && lat > trivLat*1.0001 {
		t.Fatalf("optimized plan (%v) worse than trivial plan (%v)", lat, trivLat)
	}
}

func TestFullProfilingMetersCost(t *testing.T) {
	mdl := tinyModel()
	meter := &Meter{}
	latFn := FullProfiling(newLabeler(mdl), meter)
	mesh := cluster.Meshes(cluster.Platform1())[0]
	t1, ok := latFn(stage.Spec{Lo: 1, Hi: 3}, mesh)
	if !ok || t1 <= 0 {
		t.Fatalf("profiling failed: %v %v", t1, ok)
	}
	if meter.ProfileSeconds <= 0 || meter.StagesProfiled == 0 {
		t.Fatalf("cost not metered: %+v", meter)
	}
	// No memo: a second query is profiled and charged again.
	profiled := meter.StagesProfiled
	latFn(stage.Spec{Lo: 1, Hi: 3}, mesh)
	if meter.StagesProfiled != 2*profiled || meter.CacheMisses != 2 {
		t.Fatalf("a repeated query profiled %d labels after %d, answering %d lookups",
			meter.StagesProfiled-profiled, profiled, meter.CacheMisses)
	}
}

func TestPartialProfilingSkipsImbalanced(t *testing.T) {
	mdl := tinyModel() // 8 segments
	meterFull, meterPart := &Meter{}, &Meter{}
	full := FullProfiling(newLabeler(mdl), meterFull)
	part := PartialProfiling(newLabeler(mdl), meterPart, 2.5)
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
	latFn := TrainPredictorProvider(newLabeler(mdl), predictor.NewEncoder(mdl, true), p, PredictorOptions{
		Kind:       KindTransformer,
		SampleFrac: 0.5,
		Train:      predictor.TrainConfig{Epochs: 25, Patience: 25, BatchSize: 8},
		Tran:       graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2},
		Seed:       1,
	}, meter)
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
	truth, _ := TrueStageLatency(newLabeler(mdl), stage.Spec{Lo: 1, Hi: 3}, mesh)
	if pred > truth*10 || pred < truth/10 {
		t.Fatalf("prediction %v wildly off truth %v", pred, truth)
	}
	// A full planner run on predictions must yield a valid plan.
	plan, ok := Optimize(mdl.NumSegments(), p, latFn, Options{Microbatches: 4})
	if !ok {
		t.Fatal("no plan from predictions")
	}
	if _, ok := EvaluatePlan(newLabeler(mdl), plan, 4); !ok {
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

		if t2, ok := RandomPlanLatency(newLabeler(mdl), p, rng, 8); ok {
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
			plan, ok := Optimize(tc.segments, tc.platform, tc.lat, Options{})
			if ok {
				t.Fatalf("got a plan from degenerate input: %+v", plan)
			}
			if len(plan.Stages) != 0 || plan.Search != (SearchStats{}) {
				t.Fatalf("infeasible result carries stages or stats: %+v", plan)
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
	for _, want := range []string{"planner.optimize", "  estimate", "  dp", "    tmax"} {
		if !strings.Contains(tree, want+" ") {
			t.Fatalf("planner profile missing %q:\n%s", want, tree)
		}
	}
}

// TestOptimizeReportedIdenticalPlan is the reported-plan row of the
// determinism table: running the search under a span profiler must yield a
// plan bitwise identical — stages, meshes, Est, every StageEst and its search
// stats — to a bare run, and the search stats must tally with the
// exploration the bare run implies.
func TestOptimizeReportedIdenticalPlan(t *testing.T) {
	p := cluster.Platform2()
	ref, ok := Optimize(6, p, syntheticLatency, Options{Microbatches: 8})
	if !ok {
		t.Fatal("no reference plan")
	}

	prof := obs.NewProfiler()
	got, ok := Optimize(6, p, syntheticLatency, Options{Microbatches: 8, Prof: prof})
	if !ok {
		t.Fatal("no observed plan")
	}
	stats := got.Search
	if stats != ref.Search {
		t.Fatalf("telemetry changed the search stats: %+v vs %+v", stats, ref.Search)
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
	// One estimate span around all the lookups, with no child per lookup:
	// their count is the stats' reading, their time the span's.
	var tree strings.Builder
	if err := prof.WriteProfileTree(&tree); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^  estimate +\S+ +\S+ +1\n(\S|  \S|\z)`).MatchString(tree.String()) {
		t.Fatalf("span tree does not hold one childless estimate span:\n%s", tree.String())
	}
}

// TrueLatency returns the oracle latency source (simulator-exact optimal
// stage latencies, no noise, no cost), answered through one labeler —
// useful for tests and upper-bound comparisons.
func TrueLatency(mdl *models.Model) LatencyFn {
	lab := newLabeler(mdl)
	return func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
		return TrueStageLatency(lab, sp, mesh)
	}
}

// newLabeler returns a fresh labeler of mdl's stages, as the tools build one.
func newLabeler(mdl *models.Model) *predictor.Labeler {
	return predictor.NewLabeler(mdl, sim.DefaultProfiler())
}
