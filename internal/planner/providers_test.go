package planner

import (
	"strconv"
	"strings"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/graphnn"
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
// constructions, the dominant cost of a lookup: a profiled miss builds its
// training graph once whatever the mesh's configuration count, a predicted
// miss builds the training graph for the memory screen and (for a spec not
// yet encoded) the forward graph the predictor reads, provider construction
// builds one training graph per sampled spec and scenario plus one forward
// graph per spec, and a repeated query builds and charges nothing.
func TestGraphsBuiltPerUnitOfWork(t *testing.T) {
	prof := sim.DefaultProfiler()
	sp := stage.Spec{Lo: 1, Hi: 3}

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
	specs := len(stage.AllSpecs(mdl.NumSegments(), maxLen))
	scenarios := len(cluster.Scenarios(p))
	if meter.StagesProfiled != specs*scenarios {
		t.Fatalf("profiled %d labels, want every spec under every scenario (%d)", meter.StagesProfiled, specs*scenarios)
	}
	built := graphsBuilt(t, mdl)
	if want := specs*scenarios + specs; built != want {
		t.Fatalf("provider construction built %d stage graphs, want %d (%d specs × %d scenarios labeled, %d encoded)",
			built, want, specs, scenarios, specs)
	}
	long := stage.Spec{Lo: 0, Hi: maxLen + 2} // outside the sample: not encoded yet
	pred(long, cluster.Meshes(p)[1])
	if got := graphsBuilt(t, mdl) - built; got != 2 {
		t.Fatalf("one lazy predictor miss built %d stage graphs, want 2 (memory screen + encoder)", got)
	}
	charged = *meter
	pred(long, cluster.Meshes(p)[1])
	if got := graphsBuilt(t, mdl) - built; got != 2 {
		t.Fatalf("a repeated predictor query built %d more stage graphs", got-2)
	}
	charged.CacheHits++
	if *meter != charged {
		t.Fatalf("a repeated predictor query moved the meter: %+v, want %+v", *meter, charged)
	}
}
