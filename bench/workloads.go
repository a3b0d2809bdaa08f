package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"predtop"
)

// Sizes the predictors are built at. They are the repository's "paper" and
// "quick" experiment presets, written out here because the benchmark calls
// only the facade and may not follow a preset that a later change retunes.
var (
	paperTran = predtop.TransformerConfig{Layers: 2, Dim: 32, Heads: 2, FFNDim: 64}
	paperGCN  = predtop.GCNConfig{Layers: 6, Dim: 64}
	paperGAT  = predtop.GATConfig{Layers: 6, Dim: 24, Heads: 3}
	quickTran = predtop.TransformerConfig{Layers: 2, Dim: 24, Heads: 2, FFNDim: 48}
)

var archNames = []string{"tran", "gcn", "gat"}

// newArch builds architecture k of archNames at the paper sizes.
func newArch(k int, rng *rand.Rand) predtop.PredictorModel {
	switch k {
	case 0:
		return predtop.NewDAGTransformer(rng, paperTran)
	case 1:
		return predtop.NewGCN(rng, paperGCN)
	default:
		return predtop.NewGAT(rng, paperGAT)
	}
}

// outcome is what one repetition computed. sig holds every output bit for
// bit: a rep whose sig differs from the first rep's is a failed operation.
type outcome struct {
	sig     string
	ok      bool
	quality map[string]float64
}

// repWorkload is a set-up workload that repeats one fixed unit of work.
type repWorkload struct {
	// units is how many user-visible units one rep completes (training
	// sample-steps, plans), the numerator of throughput_per_s.
	units float64
	// rep runs one unit, recording spans under parent when rec is non-nil.
	rep func(rec *recorder, parent, id int) outcome
}

func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func gpt3(layers int) *predtop.Model {
	cfg := predtop.GPT3Config()
	cfg.Layers = layers
	return predtop.BuildModel(cfg)
}

func moe(layers int) *predtop.Model {
	cfg := predtop.MoEConfig()
	cfg.Layers = layers
	return predtop.BuildModel(cfg)
}

// gpt3Dataset profiles the whole stage universe of up to maxLen segments of a
// GPT-3 of the given depth under the first Platform-1 scenario.
func gpt3Dataset(layers, maxLen int) *predtop.Dataset {
	m := gpt3(layers)
	return predtop.BuildDataset(predtop.NewEncoder(m, true), predtop.AllStages(m, maxLen),
		predtop.Scenarios(predtop.Platform1())[0], predtop.DefaultProfiler())
}

// setupTrain builds the train workload: all stages of up to three segments
// of a 12-layer GPT-3 (39 samples, 113 nodes on average, 185 at most), split
// 70/20/10. One rep trains the three architectures for four epochs at batch
// 8 and evaluates each on the test split.
func setupTrain(cfg runCfg) (*repWorkload, error) {
	layers, epochs := 12, 4
	if cfg.smoke {
		layers, epochs = 4, 1
	}
	ds := gpt3Dataset(layers, 3)
	// The split is the same for every seed: graphs range from 6 to 185 nodes
	// and attention costs n², so which 27 land in the training set would
	// change the work of a rep from seed to seed. The seed draws the initial
	// weights and the minibatch order, which change the numbers computed but
	// not how many.
	trainIdx, valIdx, testIdx := predtop.Split(rand.New(rand.NewSource(1)), len(ds.Samples), 0.7, 0.2)
	if len(trainIdx) == 0 || len(testIdx) == 0 {
		return nil, fmt.Errorf("train: %d samples leave an empty split", len(ds.Samples))
	}
	tc := predtop.TrainConfig{Epochs: epochs, Patience: epochs, BatchSize: 8, Seed: cfg.seed}
	return &repWorkload{
		units: float64(len(archNames) * epochs * len(trainIdx)),
		rep: func(rec *recorder, parent, id int) outcome {
			var trained []predtop.Trained
			mre := 0.0
			for k, name := range archNames {
				net := newArch(k, rand.New(rand.NewSource(cfg.seed+int64(k))))
				s := rec.begin("predictor.train."+name, parent, id)
				tr, _ := predtop.Train(net, ds, trainIdx, valIdx, tc)
				rec.end(s)
				s = rec.begin("predictor.mre."+name, parent, id)
				mre += tr.MRE(ds, testIdx)
				rec.end(s)
				trained = append(trained, tr)
			}
			mre /= float64(len(archNames))
			return outcome{
				sig:     predtop.WeightFingerprint(trained...) + " " + bits(mre),
				ok:      !math.IsNaN(mre) && !math.IsInf(mre, 0),
				quality: map[string]float64{"predictor.test_mre_pct": mre},
			}
		},
	}, nil
}

// planMicrobatches is B of Eqn 4 in every planning workload.
const planMicrobatches = 16

// planOnce is one complete planning run as a user of the planner sees it:
// construct the latency source, search, and evaluate the chosen plan under
// true stage latencies. With a recorder, every query of the latency source
// gets its own span, named by whether the source had to compute the answer.
func planOnce(rec *recorder, parent, id int, m *predtop.Model, maxLen int,
	provider func(*predtop.CostMeter) predtop.LatencyFn) (sig string, iter, cost float64, ok bool) {
	var meter predtop.CostMeter
	s := rec.begin("planner.provider_build", parent, id)
	lat := provider(&meter)
	rec.end(s)

	search := rec.begin("planner.optimize", parent, id)
	if rec != nil {
		inner := lat
		lat = func(sp predtop.StageSpec, mesh predtop.Mesh) (float64, bool) {
			before := meter.CacheMisses
			l := rec.begin("planner.lookup.hit", search, id)
			v, ok := inner(sp, mesh)
			if meter.CacheMisses > before {
				rec.endAs(l, "planner.lookup.miss")
			} else {
				rec.end(l)
			}
			return v, ok
		}
	}
	plan, found := predtop.OptimizePlan(m.NumSegments(), predtop.Platform2(), lat,
		predtop.PlanOptions{Microbatches: planMicrobatches, MaxStageLen: maxLen})
	rec.end(search)

	s = rec.begin("planner.evaluate", parent, id)
	iter, feasible := predtop.EvaluatePlan(m, plan, planMicrobatches)
	rec.end(s)

	var b strings.Builder
	for i, sp := range plan.Stages {
		fmt.Fprintf(&b, "[%d,%d)@%d ", sp.Lo, sp.Hi, plan.Meshes[i].Index)
	}
	cost = meter.Total()
	b.WriteString(bits(plan.Est) + " " + bits(iter) + " " + bits(cost))
	return b.String(), iter, cost, found && feasible
}

// planOutcome folds the plans of one rep into an outcome; the quality
// metrics are means over the rep's plans.
func planOutcome(sigs []string, iters, costs []float64, ok bool) outcome {
	mean := func(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
	return outcome{sig: strings.Join(sigs, " | "), ok: ok, quality: map[string]float64{
		"planner.iter_latency_s": mean(iters), "planner.sim_cost_s": mean(costs),
	}}
}

// setupPlanProfiled builds the Alpa-Full arm of Fig 10: every queried
// (stage, mesh) pair is labeled by intraop under every configuration. One rep
// plans GPT-3 at 24 layers (540 lookups, 1080 profiles) and then MoE at 20.
func setupPlanProfiled(cfg runCfg) (*repWorkload, error) {
	gptLayers, moeLayers, maxLen := 24, 20, 8
	if cfg.smoke {
		gptLayers, moeLayers, maxLen = 4, 4, 3
	}
	ms := []*predtop.Model{gpt3(gptLayers), moe(moeLayers)}
	prof := predtop.DefaultProfiler()
	return &repWorkload{
		units: float64(len(ms)),
		rep: func(rec *recorder, parent, id int) outcome {
			var sigs []string
			var iters, costs []float64
			ok := true
			for _, m := range ms {
				sig, iter, cost, good := planOnce(rec, parent, id, m, maxLen,
					func(meter *predtop.CostMeter) predtop.LatencyFn {
						return predtop.FullProfiling(m, prof, meter)
					})
				sigs, iters, costs, ok = append(sigs, sig), append(iters, iter), append(costs, cost), ok && good
			}
			return planOutcome(sigs, iters, costs, ok)
		},
	}, nil
}

// planPredictedSeed seeds the provider of plan_predicted whatever --seed is.
// The provider draws its stage sample, its split and its initial weights from
// one seed, and the sample decides the work: ten stages of one to five
// segments cost 2.2 to 3.6 s a plan over ten seeds, because profiling and
// attention grow with the square of the node count. A seed-drawn sample would
// make the spread across seeds a property of the draw, not of the code.
const planPredictedSeed = 1

// setupPlanPredicted builds the paper's pipeline end to end for a 10-layer
// GPT-3 on Platform 2: profile a fifth of the stage universe, train one
// DAG Transformer per scenario (six), and let the search query predictions
// lazily, one encode and one forward per configuration for each lookup.
func setupPlanPredicted(cfg runCfg) (*repWorkload, error) {
	layers, maxLen, epochs := 10, 5, 4
	if cfg.smoke {
		layers, maxLen, epochs = 4, 3, 1
	}
	m := gpt3(layers)
	opt := predtop.PredictorOptions{
		Kind: predtop.KindTransformer, SampleFrac: 0.2, MaxStageLen: maxLen,
		Train: predtop.TrainConfig{Epochs: epochs, Patience: epochs, BatchSize: 4},
		Tran:  quickTran, Seed: planPredictedSeed,
	}
	prof := predtop.DefaultProfiler()
	return &repWorkload{
		units: 1,
		rep: func(rec *recorder, parent, id int) outcome {
			sig, iter, cost, ok := planOnce(rec, parent, id, m, maxLen,
				func(meter *predtop.CostMeter) predtop.LatencyFn {
					return predtop.TrainPredictorProvider(m, predtop.Platform2(), opt, prof, meter)
				})
			return planOutcome([]string{sig}, []float64{iter}, []float64{cost}, ok)
		},
	}, nil
}
