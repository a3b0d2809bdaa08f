package predictor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"predtop/internal/models"
	"predtop/internal/obs"
	"predtop/internal/sim"
	"predtop/internal/stage"
	"predtop/internal/tensor"
)

// gptDataset profiles every stage of up to three segments of a GPT-3 of the
// given depth: the specs of one stage class share one *Encoded, so the
// samples are many more than the distinct graphs (GPT-3/12: 39 and 9).
func gptDataset(t testing.TB, layers int) *Dataset {
	t.Helper()
	cfg := models.GPT3()
	cfg.Layers = layers
	m := models.Build(cfg)
	return BuildDataset(NewEncoder(m, true), CollectStages(m, nil, 0, 3), testScenario(), sim.DefaultProfiler())
}

// distinctGraphs counts the distinct encodings of ds's samples.
func distinctGraphs(ds *Dataset) int {
	seen := map[*stage.Encoded]bool{}
	for _, s := range ds.Samples {
		seen[s.Encoded] = true
	}
	return len(seen)
}

// cloneEncoded copies e into fresh storage: the features, the mask, the
// depths and the neighbour list (rebuilt from its rows, checked equal).
func cloneEncoded(t *testing.T, e *stage.Encoded) *stage.Encoded {
	preds := make([][]int, e.Nbr.N())
	for v := range preds {
		cols, _ := e.Nbr.Row(v)
		preds[v] = slices.Clone(cols)
	}
	nb := tensor.NewNeighbours(preds)
	for v := range preds {
		c0, v0 := e.Nbr.Row(v)
		c1, v1 := nb.Row(v)
		if !slices.Equal(c0, c1) || !slices.Equal(v0, v1) {
			t.Fatalf("rebuilt neighbour row %d differs", v)
		}
	}
	return &stage.Encoded{X: e.X.Clone(), ReachMask: e.ReachMask.Clone(), Nbr: nb, Depths: slices.Clone(e.Depths)}
}

// trainedGraphs is the count of the sample spans under train → batch in
// prof's rendered tree: the forward and backward passes training ran.
func trainedGraphs(tb testing.TB, prof *obs.Profiler) int {
	var buf strings.Builder
	if err := prof.WriteProfileTree(&buf); err != nil {
		tb.Fatal(err)
	}
	parent := ""
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   "):
			parent = f[0]
		case parent == "batch" && strings.HasPrefix(line, "    sample "):
			n, err := strconv.Atoi(f[len(f)-1])
			if err != nil {
				tb.Fatal(err)
			}
			return n
		}
	}
	tb.Fatalf("no train → batch → sample span in:\n%s", buf.String())
	return 0
}

// batchGroups replays Train's shuffle and counts the distinct graphs of
// every minibatch: the graph passes a run makes when no duplicate falls in
// a loss case of its own.
func batchGroups(ds *Dataset, trainIdx []int, seed int64, epochs, batchSize int) int {
	rng := rand.New(rand.NewSource(seed))
	order := slices.Clone(trainIdx)
	groups := 0
	for range epochs {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < len(order); lo += batchSize {
			batch := &Dataset{}
			for _, i := range order[lo:min(lo+batchSize, len(order))] {
				batch.Samples = append(batch.Samples, ds.Samples[i])
			}
			groups += distinctGraphs(batch)
		}
	}
	return groups
}

// TestTrainDedupBitwise: a minibatch runs one forward and backward per
// distinct graph, a duplicate in a loss case already run copying that
// graph's gradient slot, and evaluation one forward per distinct graph.
// Training on a dataset whose duplicates share one *Encoded must match,
// bit for bit, training on the same samples each with an encoding of its
// own, under both losses and at every worker count. Each graph's samples
// alternate between a hundredth and twice their label, so that the graph's
// prediction soon falls between its samples' targets, and the
// shared run's profile must show, under MAE, more graph passes than the
// minibatches' distinct graphs (some duplicate ran in a case of its own) and
// fewer than sample-steps (some copied); under MSE, whose gradient depends
// on the target, one pass per sample-step.
func TestTrainDedupBitwise(t *testing.T) {
	shared := gptDataset(t, 6)
	rank := map[*stage.Encoded]int{}
	for i := range shared.Samples {
		s := &shared.Samples[i]
		s.Measured *= [2]float64{0.01, 2}[rank[s.Encoded]%2]
		rank[s.Encoded]++
	}
	own := &Dataset{Model: shared.Model, Scenario: shared.Scenario, Samples: slices.Clone(shared.Samples)}
	for i := range own.Samples {
		own.Samples[i].Encoded = cloneEncoded(t, own.Samples[i].Encoded)
	}
	n := len(shared.Samples)
	if d := distinctGraphs(shared); d*2 > n || distinctGraphs(own) != n {
		t.Fatalf("premise: %d samples over %d shared graphs, %d own", n, d, distinctGraphs(own))
	}
	trainIdx, valIdx, _ := stage.Split(rand.New(rand.NewSource(2)), n, 0.7, 0.3)
	const epochs, batchSize, seed = 12, 8, 5
	steps := epochs * len(trainIdx)
	groups := batchGroups(shared, trainIdx, seed, epochs, batchSize)

	for _, arch := range []string{"Tran", "GCN", "GAT"} {
		for _, loss := range []Loss{MAE, MSE} {
			cfg := TrainConfig{Epochs: epochs, Patience: epochs, BatchSize: batchSize, Seed: seed, Loss: loss, Workers: 1}
			cfg.Prof = obs.NewProfiler()
			ref, refRes := Train(buildArch(arch, 2), own, trainIdx, valIdx, cfg)
			if got := trainedGraphs(t, cfg.Prof); got != steps {
				t.Fatalf("%s loss %d: one graph per sample ran %d passes for %d sample-steps", arch, loss, got, steps)
			}
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s loss %d workers %d", arch, loss, workers)
				cfg.Workers, cfg.Prof = workers, obs.NewProfiler()
				got, gotRes := Train(buildArch(arch, 2), shared, trainIdx, valIdx, cfg)
				passes := trainedGraphs(t, cfg.Prof)
				if loss == MAE && (passes <= groups || passes >= steps) || loss == MSE && passes != steps {
					t.Fatalf("%s: %d graph passes for %d distinct graphs in %d sample-steps", label, passes, groups, steps)
				}
				if gotRes.BestEpoch != refRes.BestEpoch ||
					math.Float64bits(gotRes.BestValLoss) != math.Float64bits(refRes.BestValLoss) ||
					len(gotRes.History) != len(refRes.History) {
					t.Fatalf("%s: best epoch %d loss %v over %d epochs, want %d, %v, %d", label,
						gotRes.BestEpoch, gotRes.BestValLoss, len(gotRes.History), refRes.BestEpoch, refRes.BestValLoss, len(refRes.History))
				}
				for e, a := range refRes.History {
					b := gotRes.History[e]
					if math.Float64bits(a.TrainLoss) != math.Float64bits(b.TrainLoss) ||
						math.Float64bits(a.ValLoss) != math.Float64bits(b.ValLoss) ||
						math.Float64bits(a.GradNorm) != math.Float64bits(b.GradNorm) {
						t.Fatalf("%s: epoch %d %+v, want %+v", label, e+1, b, a)
					}
				}
				refP, gotP := ref.Model.Params(), got.Model.Params()
				for i := range refP {
					for j, a := range refP[i].V.Data {
						if b := gotP[i].V.Data[j]; math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("%s: %s[%d] = %x, want %x", label, refP[i].Name, j, math.Float64bits(b), math.Float64bits(a))
						}
					}
				}
			}
		}
	}
}
