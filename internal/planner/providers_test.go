package planner

import (
	"math"
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
// scratch does, and a repeated query builds and charges nothing.
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
				Hooks: &predictor.TrainHooks{Profiler: obs.NewProfiler(), Flight: obs.NewFlightRecorder(0)}},
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
