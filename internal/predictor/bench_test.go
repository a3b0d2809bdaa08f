package predictor

import (
	"math/rand"
	"testing"

	"predtop/internal/graphnn"
	"predtop/internal/obs"
	"predtop/internal/stage"
)

// BenchmarkTrainEpoch is the training rung: one epoch of each architecture,
// at the sizes of the benchmark's train workload, over that workload's
// dataset (GPT-3/12, stages of up to three segments, batch 8). samples/op is
// the sample-steps an epoch trains, graphs/op the forward and backward
// passes it runs (fewer: duplicates of a graph share them under MAE).
func BenchmarkTrainEpoch(b *testing.B) {
	ds := gptDataset(b, 12)
	trainIdx, valIdx, _ := stage.Split(rand.New(rand.NewSource(1)), len(ds.Samples), 0.7, 0.2)
	archs := []struct {
		name  string
		build func(*rand.Rand) graphnn.Model
	}{
		{"tran", func(r *rand.Rand) graphnn.Model {
			return graphnn.NewDAGTransformer(r, graphnn.TransformerConfig{Layers: 2, Dim: 32, Heads: 2, FFNDim: 64})
		}},
		{"gcn", func(r *rand.Rand) graphnn.Model { return graphnn.NewGCN(r, graphnn.GCNConfig{Layers: 6, Dim: 64}) }},
		{"gat", func(r *rand.Rand) graphnn.Model {
			return graphnn.NewGAT(r, graphnn.GATConfig{Layers: 6, Dim: 24, Heads: 3})
		}},
	}
	for _, a := range archs {
		b.Run(a.name, func(b *testing.B) {
			cfg := TrainConfig{Epochs: 1, BatchSize: 8, Seed: 7}
			for range b.N {
				Train(a.build(rand.New(rand.NewSource(7))), ds, trainIdx, valIdx, cfg)
			}
			b.StopTimer()
			cfg.Prof = obs.NewProfiler()
			Train(a.build(rand.New(rand.NewSource(7))), ds, trainIdx, valIdx, cfg)
			b.ReportMetric(float64(len(trainIdx)), "samples/op")
			b.ReportMetric(float64(trainedGraphs(b, cfg.Prof)), "graphs/op")
		})
	}
}
