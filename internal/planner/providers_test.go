package planner

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// spanCounts returns the invocation count of every span in prof's profile
// tree, keyed by its path ("planner.answers/predict").
func spanCounts(t *testing.T, prof *obs.Profiler) map[string]int64 {
	t.Helper()
	var buf strings.Builder
	if err := prof.WriteProfileTree(&buf); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	var path []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		depth := (len(line) - len(strings.TrimLeft(line, " "))) / 2
		f := strings.Fields(line)
		n, err := strconv.ParseInt(f[len(f)-1], 10, 64)
		if err != nil || depth > len(path) {
			t.Fatalf("profile line %q: %v", line, err)
		}
		path = append(path[:depth], f[0])
		counts[strings.Join(path, "/")] += n
	}
	return counts
}

// graphsBuilt returns how many StageGraph calls mdl has served since its
// profiler was attached: every call, forward or training, records one
// stage_graph[lo:hi) span, and the profile tree carries the counts.
func graphsBuilt(t *testing.T, mdl *models.Model) int {
	t.Helper()
	total := 0
	for path, n := range spanCounts(t, mdl.Prof) {
		if strings.HasPrefix(path, "stage_graph[") && !strings.Contains(path, "/") {
			total += int(n)
		}
	}
	return total
}

// TestGraphsBuiltPerUnitOfWork pins what the labeling path pays in stage-graph
// constructions, the dominant cost of a lookup. Work is keyed by stage class:
// a profiled miss on a new class builds its training graph once whatever the
// mesh's configuration count, provider construction builds one training and
// one forward graph per class of the universe (sampled or not: the answer
// table screens and predicts them all), a search over the universe then
// builds nothing and runs no forward, a predicted miss outside the universe
// builds the training graph for the memory screen and the forward graph the
// predictor reads, and a miss on a spec of an already-built class builds
// nothing. The meter still moves per spec exactly as labeling each spec from
// scratch does, and a repeated query builds nothing. Ground truth
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
	full := FullProfiling(newLabeler(mdl), meter)
	mesh := cluster.Meshes(cluster.Platform2())[2] // three Table-III configurations
	full(sp, mesh)
	if got := graphsBuilt(t, mdl); got != 1 {
		t.Fatalf("one FullProfiling miss built %d stage graphs, want 1", got)
	}
	full(sp, mesh)
	if got := graphsBuilt(t, mdl); got != 1 {
		t.Fatalf("a repeated FullProfiling query built %d more stage graphs", got-1)
	}
	charged := *meter
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
	pred := TrainPredictorProvider(newLabeler(mdl), predictor.NewEncoder(mdl, true), p, PredictorOptions{
		Kind:        KindTransformer,
		SampleFrac:  1, // the sample is the whole universe, so its size is known here
		MaxStageLen: maxLen,
		Train:       predictor.TrainConfig{Epochs: 1, Patience: 1, BatchSize: 8},
		Tran:        graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2},
		Seed:        1,
	}, meter)
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
		t.Fatalf("one predictor miss outside the universe built %d stage graphs, want 2 (memory screen + encoder)", got)
	}
	pred(long, predMesh)
	if got := graphsBuilt(t, mdl) - built; got != 2 {
		t.Fatalf("a repeated predictor query built %d more stage graphs", got-2)
	}
	charged = *meter
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

	// A sample smaller than the universe: construction still builds both
	// graphs of every class of the universe, and the answer table runs every
	// forward before the search starts, so the search builds nothing and its
	// lookups leave the planner.answers span alone. Eight sampled specs
	// cannot reach the universe's classes.
	mdl = tinyModel()
	mdl.Prof = obs.NewProfiler()
	trainProf := obs.NewProfiler()
	const sampledLen = 4
	pred = TrainPredictorProvider(newLabeler(mdl), predictor.NewEncoder(mdl, true), p, PredictorOptions{
		Kind:        KindTransformer,
		SampleFrac:  0.2,
		MaxStageLen: sampledLen,
		Train:       predictor.TrainConfig{Epochs: 1, Patience: 1, BatchSize: 8, Prof: trainProf},
		Tran:        graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2},
		Seed:        1,
	}, &Meter{})
	universe = stage.AllSpecs(mdl.NumSegments(), sampledLen)
	classes = map[models.StageClass]bool{}
	for _, u := range universe {
		classes[mdl.StageClass(u.Lo, u.Hi)] = true
	}
	if len(classes) <= 8 || float64(len(universe))*0.2 >= 8 {
		t.Fatalf("a sample of 8 specs could reach all %d classes of %d specs", len(classes), len(universe))
	}
	built = graphsBuilt(t, mdl)
	if want := 2 * len(classes); built != want {
		t.Fatalf("sampled provider construction built %d stage graphs, want %d (%d universe classes)", built, want, len(classes))
	}
	spans := spanCounts(t, trainProf)
	if spans["planner.answers"] != 1 || spans["planner.answers/predict"] == 0 {
		t.Fatalf("construction recorded planner.answers %d times over %d forwards, want once over some",
			spans["planner.answers"], spans["planner.answers/predict"])
	}
	if _, ok := Optimize(mdl.NumSegments(), p, pred, Options{MaxStageLen: sampledLen}); !ok {
		t.Fatal("no plan over the sampled provider")
	}
	if got := graphsBuilt(t, mdl) - built; got != 0 {
		t.Fatalf("a search over the universe built %d stage graphs, want 0", got)
	}
	if after := spanCounts(t, trainProf); after["planner.answers"] != spans["planner.answers"] ||
		after["planner.answers/predict"] != spans["planner.answers/predict"] {
		t.Fatalf("a search over the universe moved the answer spans: %d fills and %d forwards, were %d and %d",
			after["planner.answers"], after["planner.answers/predict"], spans["planner.answers"], spans["planner.answers/predict"])
	}
	long = stage.Spec{Lo: 1, Hi: sampledLen + 3}
	pred(long, predMesh)
	if got := graphsBuilt(t, mdl) - built; got != 2 {
		t.Fatalf("a sampled provider's miss outside the universe built %d stage graphs, want 2", got)
	}
	if after := spanCounts(t, trainProf); after["planner.answers"] != spans["planner.answers"]+1 {
		t.Fatalf("a miss outside the universe recorded %d fills, want one more than %d", after["planner.answers"], spans["planner.answers"])
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

// TestPredictedLatencyIsTheLeastPrediction holds every lookup of the answer
// table, over the universe × meshes and one spec outside the universe, to a
// reference computed here from the primitives: the least PredictEncoded over
// the mesh's configurations whose predictor exists and whose training graph
// fits in memory, with ok false when none does. The predictors are untrained
// models of distinct seeds; on the second mesh their predictions cross, so
// the least is not always the first configuration's. Two scenarios are left
// without one, as when a sample is too small to train: the first mesh then
// has no answer, and the last keeps two of its three configurations.
func TestPredictedLatencyIsTheLeastPrediction(t *testing.T) {
	mdl := tinyModel()
	p := cluster.Platform2()
	meshes := cluster.Meshes(p)
	const maxLen = 3
	universe := stage.AllSpecs(mdl.NumSegments(), maxLen)
	trained := map[scKey]predictor.Trained{}
	for i, sc := range cluster.Scenarios(p) {
		if i == 0 || i == 4 {
			continue
		}
		model := graphnn.NewDAGTransformer(rand.New(rand.NewSource(int64(i+1))),
			graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2, FFNDim: 32})
		trained[scKey{sc.Mesh.Index, sc.Config.Index}] = predictor.Trained{Model: model, Scale: 1}
	}
	meter := &Meter{}
	lat := predictedLatency(meshes, universe, trained, newLabeler(mdl), predictor.NewEncoder(mdl, true), nil, meter)

	ref := func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
		g := mdl.StageGraph(sp.Lo, sp.Hi, true)
		e := stage.Encode(stage.FromGraph(mdl.StageGraph(sp.Lo, sp.Hi, false), true))
		best := math.Inf(1)
		for _, conf := range cluster.ConfigsFor(mesh) {
			tr, ok := trained[scKey{mesh.Index, conf.Index}]
			if !ok || !sim.NewExec(cluster.Scenario{Mesh: mesh, Config: conf}).FitsMemory(g) {
				continue
			}
			if pred := tr.PredictEncoded(e); pred < best {
				best = pred
			}
		}
		return best, !math.IsInf(best, 1)
	}
	specs := append(slices.Clip(universe), stage.Spec{Lo: 1, Hi: maxLen + 3})
	distinct := map[uint64]bool{}
	unusable := 0
	for _, sp := range specs {
		for _, mesh := range meshes {
			got, gotOK := lat(sp, mesh)
			want, wantOK := ref(sp, mesh)
			if math.Float64bits(got) != math.Float64bits(want) || gotOK != wantOK {
				t.Fatalf("%v on mesh %d: table %v (ok %v), reference %v (ok %v)", sp, mesh.Index, got, gotOK, want, wantOK)
			}
			distinct[math.Float64bits(got)] = true
			if !gotOK {
				unusable++
			}
		}
	}
	if len(distinct) < 4 || unusable != len(specs) {
		t.Fatalf("%d lookups took %d distinct values, %d unusable (want one per spec)",
			len(specs)*len(meshes), len(distinct), unusable)
	}
	if meter.CacheMisses != len(specs)*len(meshes) {
		t.Fatalf("%d lookups counted %d misses", len(specs)*len(meshes), meter.CacheMisses)
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
		lat := TrainPredictorProvider(newLabeler(mdl), predictor.NewEncoder(mdl, true), p, PredictorOptions{
			Kind:        KindTransformer,
			SampleFrac:  0.5,
			MaxStageLen: maxLen,
			Train: predictor.TrainConfig{Epochs: 12, Patience: 1, BatchSize: 4,
				Prof: obs.NewProfiler(), Flight: obs.NewFlightRecorder(0)},
			Tran: graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2, FFNDim: 32},
			Seed: 5,
			Info: &r.info,
		}, &r.meter)
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
	bits := func(m Meter) [6]uint64 {
		return [6]uint64{math.Float64bits(m.ProfileSeconds), math.Float64bits(m.TrainSeconds),
			math.Float64bits(m.InferSeconds), uint64(m.StagesProfiled), uint64(m.CacheMisses),
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
		meter   Meter
	}
	run := func(procs int) result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		mdl := tinyModel()
		// A non-round opening charge makes the sum show the order the
		// profiles were added in.
		r := result{meter: Meter{ProfileSeconds: 0.3}}
		full := FullProfiling(newLabeler(mdl), &r.meter)
		lat := func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
			v, ok := full(sp, mesh)
			r.lookups = append(r.lookups, lookup{math.Float64bits(v), ok})
			return v, ok
		}
		var found bool
		r.plan, found = Optimize(mdl.NumSegments(), p, lat, Options{Microbatches: 8})
		if !found {
			t.Fatalf("GOMAXPROCS=%d: no plan", procs)
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
	if concurrent.plan.Search != serial.plan.Search {
		t.Fatalf("stats: GOMAXPROCS=3 %+v != GOMAXPROCS=1 %+v", concurrent.plan.Search, serial.plan.Search)
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
	bits := func(m Meter) [6]uint64 {
		return [6]uint64{math.Float64bits(m.ProfileSeconds), math.Float64bits(m.TrainSeconds),
			math.Float64bits(m.InferSeconds), uint64(m.StagesProfiled), uint64(m.CacheMisses),
			math.Float64bits(m.Total())}
	}
	if bits(concurrent.meter) != bits(serial.meter) {
		t.Fatalf("meter: GOMAXPROCS=3 %+v != GOMAXPROCS=1 %+v", concurrent.meter, serial.meter)
	}
	if serial.meter.StagesProfiled == 0 {
		t.Fatal("the runs profiled no labels")
	}
}
