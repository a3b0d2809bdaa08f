package predictor

import (
	"math"
	"math/rand"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/graphnn"
	"predtop/internal/models"
	"predtop/internal/sim"
	"predtop/internal/stage"
)

func testScenario() cluster.Scenario {
	return cluster.Scenarios(cluster.Platform1())[0] // mesh 1, single A40
}

func smallDataset(t testing.TB, count int) (*Encoder, *Dataset) {
	t.Helper()
	m := models.Build(models.GPT3())
	rng := rand.New(rand.NewSource(1))
	specs := CollectStages(m, rng, count, 3)
	enc := NewEncoder(m, true)
	ds := BuildDataset(enc, specs, testScenario(), sim.DefaultProfiler())
	if len(ds.Samples) < count*3/4 {
		t.Fatalf("only %d of %d stages feasible", len(ds.Samples), count)
	}
	return enc, ds
}

func TestBuildDatasetLabels(t *testing.T) {
	_, ds := smallDataset(t, 24)
	for _, s := range ds.Samples {
		if s.True <= 0 || s.Measured <= 0 {
			t.Fatalf("non-positive latency for %v", s.Spec)
		}
		if math.Abs(s.Measured-s.True)/s.True > 0.1 {
			t.Fatalf("measurement noise too large: %v vs %v", s.Measured, s.True)
		}
		if s.Encoded == nil || s.Encoded.N() == 0 {
			t.Fatalf("missing encoding for %v", s.Spec)
		}
	}
	// Longer stages must take longer (latency grows with work).
	var one, three float64
	var n1, n3 int
	for _, s := range ds.Samples {
		switch s.Spec.Len() {
		case 1:
			one += s.True
			n1++
		case 3:
			three += s.True
			n3++
		}
	}
	if n1 > 0 && n3 > 0 && three/float64(n3) <= one/float64(n1) {
		t.Fatal("3-segment stages should exceed 1-segment latency on average")
	}
}

func TestEncoderCachesAndIsScenarioIndependent(t *testing.T) {
	m := models.Build(models.GPT3())
	enc := NewEncoder(m, true)
	sp := stage.Spec{Lo: 2, Hi: 4}
	a := enc.Encode(sp)
	b := enc.Encode(sp)
	if a != b {
		t.Fatal("encoder did not cache")
	}
}

func TestInfeasibleStagesSkipped(t *testing.T) {
	m := models.Build(models.GPT3())
	enc := NewEncoder(m, true)
	// The full model cannot be trained on a single 24 GB A5500.
	sc := cluster.Scenarios(cluster.Platform2())[0]
	specs := []stage.Spec{{Lo: 0, Hi: m.NumSegments()}, {Lo: 2, Hi: 3}}
	ds := BuildDataset(enc, specs, sc, sim.DefaultProfiler())
	if len(ds.Samples) != 1 {
		t.Fatalf("expected 1 feasible sample, got %d", len(ds.Samples))
	}
}

// naiveMRE is the error of always predicting the training mean.
func naiveMRE(ds *Dataset, trainIdx, testIdx []int) float64 {
	mean := 0.0
	for _, i := range trainIdx {
		mean += ds.Samples[i].Measured
	}
	mean /= float64(len(trainIdx))
	total := 0.0
	for _, i := range testIdx {
		total += math.Abs(mean-ds.Samples[i].Measured) / ds.Samples[i].Measured
	}
	return total / float64(len(testIdx)) * 100
}

func TestTransformerLearnsLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	_, ds := smallDataset(t, 48)
	rng := rand.New(rand.NewSource(2))
	train, val, test := stage.Split(rng, len(ds.Samples), 0.6, 0.15)
	model := graphnn.NewDAGTransformer(rng, graphnn.TransformerConfig{Layers: 2, Dim: 32, Heads: 2})
	trained, res := Train(model, ds, train, val, TrainConfig{Epochs: 30, Patience: 30, BatchSize: 8, Seed: 3})
	if res.EpochsRun == 0 || res.Scale <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	mre := trained.MRE(ds, test)
	base := naiveMRE(ds, train, test)
	if mre >= base {
		t.Fatalf("transformer MRE %.2f%% no better than naive %.2f%%", mre, base)
	}
	if mre > 40 {
		t.Fatalf("transformer MRE %.2f%% too high", mre)
	}
}

func TestEarlyStoppingRestoresBest(t *testing.T) {
	_, ds := smallDataset(t, 20)
	rng := rand.New(rand.NewSource(4))
	train, val, _ := stage.Split(rng, len(ds.Samples), 0.6, 0.2)
	model := graphnn.NewDAGTransformer(rng, graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2})
	_, res := Train(model, ds, train, val, TrainConfig{Epochs: 12, Patience: 2, BatchSize: 8, Seed: 5})
	if res.EpochsRun > 12 {
		t.Fatalf("ran %d epochs", res.EpochsRun)
	}
	if math.IsInf(res.BestValLoss, 1) {
		t.Fatal("no best validation loss recorded")
	}
}

func TestMAEDefaultLoss(t *testing.T) {
	cfg := TrainConfig{}.withDefaults()
	if cfg.Loss != MAE {
		t.Fatal("paper selects MAE (§IV-B7)")
	}
	if cfg.Epochs != 500 || cfg.BatchSize != 32 || cfg.Patience != 200 || baseLR != 1e-3 || clipNorm != 5 {
		t.Fatalf("defaults diverge from §IV-B6/B8: %+v", cfg)
	}
}

func TestCollectStagesCounts(t *testing.T) {
	m := models.Build(models.GPT3())
	rng := rand.New(rand.NewSource(6))
	all := CollectStages(m, rng, 0, 4)
	if len(all) != 26+25+24+23 {
		t.Fatalf("universe size %d", len(all))
	}
	some := CollectStages(m, rng, 40, 4)
	if len(some) != 40 {
		t.Fatalf("sampled %d", len(some))
	}
}
