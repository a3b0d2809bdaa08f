package predictor

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"predtop/internal/graphnn"
	"predtop/internal/stage"
)

// trainTiny fits a small transformer on a small dataset, shared across the
// batch tests.
func trainTiny(t testing.TB) (Trained, *Dataset) {
	t.Helper()
	_, ds := smallDataset(t, 16)
	net := graphnn.NewDAGTransformer(rand.New(rand.NewSource(3)),
		graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2, FFNDim: 32})
	tr, _ := Train(net, ds, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, TrainConfig{
		Epochs: 2, Patience: 2, BatchSize: 4, Seed: 1,
	})
	return tr, ds
}

// TestPredictEncodedBatchBitwise is batch-composition invariance at the
// predictor level: a graph's prediction inside any batch — any neighbours,
// any position, duplicates of itself, more graphs than one 64-graph chunk
// holds, any worker count — is bitwise what it is alone at B=1
// (PredictEncoded).
func TestPredictEncodedBatchBitwise(t *testing.T) {
	tr, ds := trainTiny(t)
	alone := make(map[*stage.Encoded]float64, len(ds.Samples))
	pool := make([]*stage.Encoded, len(ds.Samples))
	for i := range ds.Samples {
		pool[i] = ds.Samples[i].Encoded
		alone[pool[i]] = tr.PredictEncoded(pool[i])
	}
	reversed := make([]*stage.Encoded, len(pool))
	for i, e := range pool {
		reversed[len(pool)-1-i] = e
	}
	chunked := make([]*stage.Encoded, predictBatchChunk+7) // spans two chunks
	for i := range chunked {
		chunked[i] = pool[(i*5)%len(pool)]
	}
	batches := map[string][]*stage.Encoded{
		"all":      pool,
		"dups":     append(append([]*stage.Encoded{}, pool...), pool[0], pool[1]),
		"reversed": reversed,
		"pair":     {pool[len(pool)-1], pool[0]},
		"chunked":  chunked,
	}
	for name, es := range batches {
		for _, workers := range []int{1, 2, 0} {
			got := tr.PredictEncodedBatch(es, workers)
			if len(got) != len(es) {
				t.Fatalf("%s workers=%d: got %d results for %d graphs", name, workers, len(got), len(es))
			}
			for i := range got {
				if want := alone[es[i]]; math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s workers=%d graph %d: in batch %v != alone %v", name, workers, i, got[i], want)
				}
			}
		}
	}
	if got := tr.PredictEncodedBatch(nil, 0); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// TestPredictEncodedBatchConcurrent: concurrent batched forwards through the
// shared context pool must not interfere (run with -race in make ci).
func TestPredictEncodedBatchConcurrent(t *testing.T) {
	tr, ds := trainTiny(t)
	es := make([]*stage.Encoded, len(ds.Samples))
	want := make([]float64, len(ds.Samples))
	for i := range ds.Samples {
		es[i] = ds.Samples[i].Encoded
		want[i] = tr.PredictEncoded(es[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				got := tr.PredictEncodedBatch(es, 2)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						panic("concurrent batch diverged from direct prediction")
					}
				}
			}
		}()
	}
	wg.Wait()
}
