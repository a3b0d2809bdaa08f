package predtop

import (
	"math/rand"
	"testing"
)

// tinyGPT is a shrunken GPT config used to keep facade tests fast.
func tinyGPT() ModelConfig {
	cfg := GPT3Config()
	cfg.Layers = 6
	return cfg
}

func TestFacadeModelBuilding(t *testing.T) {
	m := BuildModel(tinyGPT())
	if m.NumSegments() != 8 {
		t.Fatalf("segments %d", m.NumSegments())
	}
	if BuildModel(MoEConfig()).NumSegments() != 34 {
		t.Fatal("MoE segments wrong")
	}
}

func TestFacadePlatforms(t *testing.T) {
	if len(Scenarios(Platform1())) != 3 || len(Scenarios(Platform2())) != 6 {
		t.Fatal("scenario counts diverge from Tables V/VI")
	}
}

func TestFacadeProfilingAndEncoding(t *testing.T) {
	m := BuildModel(tinyGPT())
	sc := Scenarios(Platform1())[0]
	trueLat, measured, ok := ProfileStage(m, StageSpec{Lo: 1, Hi: 3}, sc, DefaultProfiler())
	if !ok || trueLat <= 0 || measured <= 0 {
		t.Fatalf("profiling failed: %v %v %v", trueLat, measured, ok)
	}
	enc := NewEncoder(m, true)
	e := enc.Encode(StageSpec{Lo: 1, Hi: 3})
	if e.N() == 0 {
		t.Fatal("empty encoding")
	}
}

func TestFacadeDatasetAndSplit(t *testing.T) {
	m := BuildModel(tinyGPT())
	rng := rand.New(rand.NewSource(1))
	specs := SampleStages(m, rng, 10, 2)
	if len(specs) != 10 {
		t.Fatalf("sampled %d", len(specs))
	}
	if len(AllStages(m, 2)) != 8+7 {
		t.Fatal("stage universe wrong")
	}
	ds := BuildDataset(NewEncoder(m, true), specs, Scenarios(Platform1())[0], DefaultProfiler())
	if len(ds.Samples) == 0 {
		t.Fatal("empty dataset")
	}
	train, val, test := Split(rng, len(ds.Samples), 0.5, 0.2)
	if len(train)+len(val)+len(test) != len(ds.Samples) {
		t.Fatal("split does not partition")
	}
}

func TestFacadePredictors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, net := range []PredictorModel{
		NewDAGTransformer(rng, TransformerConfig{Layers: 1, Dim: 16, Heads: 2}),
		NewGCN(rng, GCNConfig{Layers: 2, Dim: 16}),
		NewGAT(rng, GATConfig{Layers: 1, Dim: 8, Heads: 2}),
	} {
		if net.Name() == "" || len(net.Params()) == 0 {
			t.Fatalf("predictor %T incomplete", net)
		}
	}
}

func TestFacadePipeline(t *testing.T) {
	lats := []float64{1, 3, 1, 1}
	if PipelineLatency(lats, 3) != 12 {
		t.Fatal("Eqn 4 wrong")
	}
	makespan, tasks := SimulatePipeline(lats, 3)
	if makespan != 12 || len(tasks) != 12 {
		t.Fatalf("simulator: %v, %d tasks", makespan, len(tasks))
	}
}

func TestFacadePlannerEndToEnd(t *testing.T) {
	m := BuildModel(tinyGPT())
	p := Platform1()
	meter := &CostMeter{}
	plan, ok := OptimizePlan(m.NumSegments(), p,
		FullProfiling(m, DefaultProfiler(), meter), PlanOptions{Microbatches: 4})
	if !ok {
		t.Fatal("no plan")
	}
	lat, ok := EvaluatePlan(m, plan, 4)
	if !ok || lat <= 0 {
		t.Fatalf("evaluation: %v %v", lat, ok)
	}
	if meter.Total() <= 0 {
		t.Fatal("cost not metered")
	}
	if _, ok := TrueStageLatency(m, StageSpec{Lo: 0, Hi: 2}, Scenarios(p)[0].Mesh); !ok {
		t.Fatal("true stage latency failed")
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	m := BuildModel(tinyGPT())
	rng := rand.New(rand.NewSource(5))
	ds := BuildDataset(NewEncoder(m, true), SampleStages(m, rng, 10, 2),
		Scenarios(Platform1())[0], DefaultProfiler())
	train, val, _ := Split(rng, len(ds.Samples), 0.6, 0.2)
	net := NewDAGTransformer(rng, TransformerConfig{Layers: 1, Dim: 16, Heads: 2})
	trained, _ := Train(net, ds, train, val, TrainConfig{Epochs: 2, Patience: 2, BatchSize: 4})
	path := t.TempDir() + "/m.predtop"
	if err := SaveTrained(path, trained); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrained(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.PredictEncoded(ds.Samples[0].Encoded) != trained.PredictEncoded(ds.Samples[0].Encoded) {
		t.Fatal("round-trip prediction drift")
	}
}
