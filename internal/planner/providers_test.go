package planner

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/graphnn"
	"predtop/internal/intraop"
	"predtop/internal/models"
	"predtop/internal/obs"
	"predtop/internal/predictor"
	"predtop/internal/sim"
	"predtop/internal/stage"
)

// graphsBuilt returns how many StageGraph calls mdl has served since its
// profiler was attached: every call, forward or training, records one
// stage_graph[lo:hi) span, and the profile tree carries the counts.
func graphsBuilt(t *testing.T, mdl *models.Model) int {
	t.Helper()
	var buf strings.Builder
	if err := mdl.Prof.WriteProfileTree(&buf); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "stage_graph[") {
			continue
		}
		f := strings.Fields(line)
		n, err := strconv.Atoi(f[len(f)-1])
		if err != nil {
			t.Fatalf("profile line %q: %v", line, err)
		}
		total += n
	}
	return total
}

// TestGraphsBuiltPerUnitOfWork pins what the labeling path pays in stage-graph
// constructions, the dominant cost of a lookup. Work is keyed by stage class:
// a profiled miss on a new class builds its training graph once whatever the
// mesh's configuration count, a predicted miss on a new class builds the
// training graph for the memory screen and the forward graph the predictor
// reads, provider construction builds one training and one forward graph per
// sampled class, and a miss on a spec of an already-built class builds
// nothing. The meter still moves per spec exactly as labeling each spec from
// scratch does, and a repeated query builds and charges nothing. Ground truth
// pays the same way: EvaluatePlan builds one training graph per class of the
// plan, plans evaluated through one labeler (Fig 10) build only the classes
// no earlier plan had, and Fig 2's draws through one labeler build one graph
// per class they reach.
func TestGraphsBuiltPerUnitOfWork(t *testing.T) {
	prof := sim.DefaultProfiler()
	sp := stage.Spec{Lo: 1, Hi: 3}
	same := stage.Spec{Lo: 3, Hi: 5} // decoder × 2, like sp

	mdl := tinyModel()
	mdl.Prof = obs.NewProfiler()
	meter := &Meter{}
	full := FullProfiling(mdl, prof, meter)
	mesh := cluster.Meshes(cluster.Platform2())[2] // three Table-III configurations
	full(sp, mesh)
	if got := graphsBuilt(t, mdl); got != 1 {
		t.Fatalf("one FullProfiling miss built %d stage graphs, want 1", got)
	}
	charged := *meter
	full(sp, mesh)
	if got := graphsBuilt(t, mdl); got != 1 {
		t.Fatalf("a repeated FullProfiling query built %d more stage graphs", got-1)
	}
	charged.CacheHits++
	if *meter != charged {
		t.Fatalf("a repeated FullProfiling query moved the meter: %+v, want %+v", *meter, charged)
	}
	// What profiling same from scratch charges: its own graph, optimized and
	// costed under each configuration in order.
	g := tinyModel().StageGraph(same.Lo, same.Hi, true)
	charged.CacheMisses++
	for _, conf := range cluster.ConfigsFor(mesh) {
		sc := cluster.Scenario{Mesh: mesh, Config: conf}
		if res := intraop.Optimize(g, sc); res.Feasible {
			charged.ProfileSeconds += prof.ProfileCostSeconds(g, sim.NewExec(sc), res.Latency)
			charged.StagesProfiled++
		}
	}
	full(same, mesh)
	if got := graphsBuilt(t, mdl); got != 1 {
		t.Fatalf("a FullProfiling miss on a built class built %d more stage graphs", got-1)
	}
	if *meter != charged {
		t.Fatalf("a FullProfiling miss on a built class charged %+v, want %+v", *meter, charged)
	}

	mdl = tinyModel()
	mdl.Prof = obs.NewProfiler()
	meter = &Meter{}
	p := cluster.Platform1()
	const maxLen = 2
	pred := TrainPredictorProvider(mdl, p, PredictorOptions{
		Kind:        KindTransformer,
		SampleFrac:  1, // the sample is the whole universe, so its size is known here
		MaxStageLen: maxLen,
		Train:       predictor.TrainConfig{Epochs: 1, Patience: 1, BatchSize: 8},
		Tran:        graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2},
		Seed:        1,
	}, prof, meter)
	universe := stage.AllSpecs(mdl.NumSegments(), maxLen)
	scenarios := len(cluster.Scenarios(p))
	if meter.StagesProfiled != len(universe)*scenarios {
		t.Fatalf("profiled %d labels, want every spec under every scenario (%d)", meter.StagesProfiled, len(universe)*scenarios)
	}
	classes := map[models.StageClass]bool{}
	for _, u := range universe {
		classes[mdl.StageClass(u.Lo, u.Hi)] = true
	}
	built := graphsBuilt(t, mdl)
	if want := 2 * len(classes); built != want {
		t.Fatalf("provider construction built %d stage graphs, want %d (%d classes labeled and encoded)",
			built, want, len(classes))
	}
	long := stage.Spec{Lo: 1, Hi: maxLen + 3} // decoder × 4: outside the sample, not encoded yet
	predMesh := cluster.Meshes(p)[1]
	pred(long, predMesh)
	if got := graphsBuilt(t, mdl) - built; got != 2 {
		t.Fatalf("one lazy predictor miss built %d stage graphs, want 2 (memory screen + encoder)", got)
	}
	charged = *meter
	pred(long, predMesh)
	if got := graphsBuilt(t, mdl) - built; got != 2 {
		t.Fatalf("a repeated predictor query built %d more stage graphs", got-2)
	}
	charged.CacheHits++
	if *meter != charged {
		t.Fatalf("a repeated predictor query moved the meter: %+v, want %+v", *meter, charged)
	}
	// A spec of long's class: no graph, and one inference charged per
	// configuration whose memory screen passes, as for long itself.
	g = tinyModel().StageGraph(long.Lo, long.Hi, true)
	charged.CacheMisses++
	for _, conf := range cluster.ConfigsFor(predMesh) {
		if sim.NewExec(cluster.Scenario{Mesh: predMesh, Config: conf}).FitsMemory(g) {
			charged.InferSeconds += simInferSeconds
		}
	}
	pred(stage.Spec{Lo: long.Lo + 1, Hi: long.Hi + 1}, predMesh)
	if got := graphsBuilt(t, mdl) - built; got != 2 {
		t.Fatalf("a predictor miss on a built class built %d more stage graphs", got-2)
	}
	if *meter != charged {
		t.Fatalf("a predictor miss on a built class charged %+v, want %+v", *meter, charged)
	}

	// Ground truth: EvaluatePlan builds one training graph per stage class of
	// the plan, whatever its stage and configuration counts.
	mdl = tinyModel()
	mdl.Prof = obs.NewProfiler()
	p2 := cluster.Platform2()
	meshes := cluster.Meshes(p2)
	plan := Plan{ // [1,3) and [3,5) are both decoder × 2
		Stages: []stage.Spec{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 3}, {Lo: 3, Hi: 5}, {Lo: 5, Hi: 8}},
		Meshes: []cluster.Mesh{meshes[0], meshes[2], meshes[1], meshes[0]},
	}
	classesOf := func(specs []stage.Spec) map[models.StageClass]bool {
		set := map[models.StageClass]bool{}
		for _, sp := range specs {
			set[mdl.StageClass(sp.Lo, sp.Hi)] = true
		}
		return set
	}
	lab := newLabeler(mdl)
	if _, ok := EvaluatePlan(lab, plan, 8); !ok {
		t.Fatal("plan infeasible")
	}
	if got, want := graphsBuilt(t, mdl), len(classesOf(plan.Stages)); got != want {
		t.Fatalf("EvaluatePlan built %d stage graphs for a plan of %d classes", got, want)
	}
	// Fig 10's evaluation: plans evaluated through one labeler build only the
	// classes no earlier plan had, and an identical plan builds none.
	built = graphsBuilt(t, mdl)
	other := Plan{
		Stages: []stage.Spec{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 3}, {Lo: 3, Hi: 6}, {Lo: 6, Hi: 8}},
		Meshes: []cluster.Mesh{meshes[1], meshes[1], meshes[0], meshes[0]},
	}
	for _, pl := range []Plan{plan, other, other, plan} {
		if _, ok := StageLatencies(lab, pl); !ok {
			t.Fatal("plan infeasible")
		}
	}
	newClasses := 0
	for class := range classesOf(other.Stages) {
		if !classesOf(plan.Stages)[class] {
			newClasses++
		}
	}
	if got := graphsBuilt(t, mdl) - built; got != newClasses {
		t.Fatalf("evaluating plans through one labeler built %d more stage graphs, want %d (the new classes)", got, newClasses)
	}

	// Fig 2: one labeler per benchmark, so its random draws build one graph
	// per class they reach. The per-spec reference, on a model of its own and
	// a copy of the random stream, says which stages the draws reached.
	mdl = tinyModel()
	mdl.Prof = obs.NewProfiler()
	lab = newLabeler(mdl)
	got, ref := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	var reached []stage.Spec
	for range 20 {
		RandomPlanLatency(lab, p2, got, 8)
		_, _, specs := refRandomPlanLatency(tinyModel(), p2, ref, 8)
		reached = append(reached, specs...)
	}
	want := len(classesOf(reached))
	if built := graphsBuilt(t, mdl); built != want || len(reached) <= want {
		t.Fatalf("20 random draws reached %d stages of %d classes and built %d stage graphs", len(reached), want, built)
	}
}

// TestTrainPredictorProviderWorkerInvariant checks the provider's concurrent
// trainings keep every bit: built under GOMAXPROCS 1 (serial) and 3
// (concurrent), with shared hooks attached as the Fig-10 harness attaches
// them, the weight fingerprint, every lookup over the stage universe × meshes
// and every meter field must be identical — labeling and split draws stay in
// scenario order, and the training cost is folded in that order too.
func TestTrainPredictorProviderWorkerInvariant(t *testing.T) {
	p := cluster.Platform2()
	const maxLen = 2
	type lookup struct {
		t  uint64
		ok bool
	}
	type result struct {
		info    ProviderInfo
		lookups []lookup
		meter   Meter
	}
	run := func(procs int) result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		mdl := tinyModel()
		// The meter starts from a non-round charge, as a meter reused across
		// sources would, and patience 1 ends each scenario's training at its
		// own epoch: the training costs then differ and their sum shows the
		// order they were added in.
		r := result{meter: Meter{TrainSeconds: 0.7}}
		lat := TrainPredictorProvider(mdl, p, PredictorOptions{
			Kind:        KindTransformer,
			SampleFrac:  0.5,
			MaxStageLen: maxLen,
			Train: predictor.TrainConfig{Epochs: 12, Patience: 1, BatchSize: 4,
				Prof: obs.NewProfiler(), Flight: obs.NewFlightRecorder(0)},
			Tran: graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2, FFNDim: 32},
			Seed: 5,
			Info: &r.info,
		}, sim.DefaultProfiler(), &r.meter)
		for _, sp := range stage.AllSpecs(mdl.NumSegments(), maxLen) {
			for _, mesh := range cluster.Meshes(p) {
				v, ok := lat(sp, mesh)
				r.lookups = append(r.lookups, lookup{math.Float64bits(v), ok})
			}
		}
		return r
	}
	serial, concurrent := run(1), run(3)
	if serial.info.Predictors != len(cluster.Scenarios(p)) {
		t.Fatalf("trained %d predictors, want one per scenario (%d)", serial.info.Predictors, len(cluster.Scenarios(p)))
	}
	if concurrent.info != serial.info {
		t.Fatalf("provenance: GOMAXPROCS=3 %+v != GOMAXPROCS=1 %+v", concurrent.info, serial.info)
	}
	for i, want := range serial.lookups {
		if got := concurrent.lookups[i]; got != want {
			t.Fatalf("lookup %d: GOMAXPROCS=3 %+v != GOMAXPROCS=1 %+v", i, got, want)
		}
	}
	// Compare every field by its bits: == on floats would miss a -0 or NaN.
	bits := func(m Meter) [7]uint64 {
		return [7]uint64{math.Float64bits(m.ProfileSeconds), math.Float64bits(m.TrainSeconds),
			math.Float64bits(m.InferSeconds), uint64(m.StagesProfiled), uint64(m.CacheHits), uint64(m.CacheMisses),
			math.Float64bits(m.Total())}
	}
	if bits(concurrent.meter) != bits(serial.meter) {
		t.Fatalf("meter: GOMAXPROCS=3 %+v != GOMAXPROCS=1 %+v", concurrent.meter, serial.meter)
	}
}

// TestFullProfilingWorkerInvariant checks the labeler's concurrent fill of a
// mesh's configurations keeps every bit: planned under GOMAXPROCS 1 (serial)
// and 3 (more workers than cores), every answer the search asked for, the
// plan, its search statistics and every meter field must be identical — the
// labels land in their own slots and the meter is charged in configuration
// order. It runs under -short so the race pass covers the fan-out.
func TestFullProfilingWorkerInvariant(t *testing.T) {
	p := cluster.Platform2()
	type lookup struct {
		t  uint64
		ok bool
	}
	type result struct {
		lookups []lookup
		plan    Plan
		stats   SearchStats
		meter   Meter
	}
	run := func(procs int) result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		mdl := tinyModel()
		// A non-round opening charge makes the sum show the order the
		// profiles were added in.
		r := result{meter: Meter{ProfileSeconds: 0.3}}
		full := FullProfiling(mdl, sim.DefaultProfiler(), &r.meter)
		lat := func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
			v, ok := full(sp, mesh)
			r.lookups = append(r.lookups, lookup{math.Float64bits(v), ok})
			return v, ok
		}
		var found bool
		r.plan, found = Optimize(mdl.NumSegments(), p, lat, Options{Microbatches: 8, Stats: &r.stats})
		if !found {
			t.Fatalf("GOMAXPROCS=%d: no plan", procs)
		}
		// A second sweep is all cache hits.
		for _, sp := range stage.AllSpecs(mdl.NumSegments(), 0) {
			for _, mesh := range cluster.Meshes(p) {
				lat(sp, mesh)
			}
		}
		return r
	}
	serial, concurrent := run(1), run(3)
	if len(concurrent.lookups) != len(serial.lookups) {
		t.Fatalf("GOMAXPROCS=3 asked %d lookups, GOMAXPROCS=1 %d", len(concurrent.lookups), len(serial.lookups))
	}
	for i, want := range serial.lookups {
		if got := concurrent.lookups[i]; got != want {
			t.Fatalf("lookup %d: GOMAXPROCS=3 %+v != GOMAXPROCS=1 %+v", i, got, want)
		}
	}
	if concurrent.stats != serial.stats {
		t.Fatalf("stats: GOMAXPROCS=3 %+v != GOMAXPROCS=1 %+v", concurrent.stats, serial.stats)
	}
	sp, cp := serial.plan, concurrent.plan
	if math.Float64bits(cp.Est) != math.Float64bits(sp.Est) || len(cp.Stages) != len(sp.Stages) {
		t.Fatalf("plan: GOMAXPROCS=3 %+v != GOMAXPROCS=1 %+v", cp, sp)
	}
	for i := range sp.Stages {
		if cp.Stages[i] != sp.Stages[i] || cp.Meshes[i].Index != sp.Meshes[i].Index ||
			math.Float64bits(cp.StageEst[i]) != math.Float64bits(sp.StageEst[i]) {
			t.Fatalf("plan stage %d: GOMAXPROCS=3 %+v != GOMAXPROCS=1 %+v", i, cp, sp)
		}
	}
	bits := func(m Meter) [7]uint64 {
		return [7]uint64{math.Float64bits(m.ProfileSeconds), math.Float64bits(m.TrainSeconds),
			math.Float64bits(m.InferSeconds), uint64(m.StagesProfiled), uint64(m.CacheHits), uint64(m.CacheMisses),
			math.Float64bits(m.Total())}
	}
	if bits(concurrent.meter) != bits(serial.meter) {
		t.Fatalf("meter: GOMAXPROCS=3 %+v != GOMAXPROCS=1 %+v", concurrent.meter, serial.meter)
	}
	if serial.meter.CacheHits == 0 || serial.meter.StagesProfiled == 0 {
		t.Fatalf("the runs profiled %d labels and hit the cache %d times", serial.meter.StagesProfiled, serial.meter.CacheHits)
	}
}
