package predtop

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"predtop/internal/ag"
	"predtop/internal/planner"
	"predtop/internal/predictor"
	"predtop/internal/stage"
)

// goldenRun is one architecture × loss row of TestGoldenBits. Every number
// was captured at the last commit that still had a finite-difference-checked
// per-item forward (PR 11's tree), where the capture also asserted that the
// per-item path produced the same bits.
type goldenRun struct {
	arch        string
	loss        predictor.Loss
	fresh       [4]uint64 // raw B=1 forwards of the untrained net on the probe graphs
	fingerprint string    // WeightFingerprint after the short Train
	testMRE     uint64    // bits of Trained.MRE over the test split
	bestVal     uint64    // bits of TrainResult.BestValLoss
	trained     [4]uint64 // raw B=1 forwards of the trained net
}

var goldenRuns = []goldenRun{
	{"Tran", predictor.MAE,
		[4]uint64{0x3fa78834140ef045, 0x3fe0e0f53830b293, 0x3fdb0fa27b952b6d, 0x3fbe1b460b52208c},
		"9952f6167e5020ad", 0x40387079bffeb7eb, 0x3fc39e61a7811320,
		[4]uint64{0x3fb71c2936367695, 0x3ff36aa94bed4362, 0x3ff7750ba12c97d2, 0x3fd3f2344d2ec54e}},
	{"Tran", predictor.MSE,
		[4]uint64{0x3fa78834140ef045, 0x3fe0e0f53830b293, 0x3fdb0fa27b952b6d, 0x3fbe1b460b52208c},
		"24945bf971d77bcd", 0x4033e3f934e4d214, 0x3fa09ece5ac3bf8a,
		[4]uint64{0x3fb6d33662bc7b79, 0x3ff2afa957b6fb4f, 0x3ff6a65c15a0a336, 0x3fd60b9724dfd0d5}},
	{"GCN", predictor.MAE,
		[4]uint64{0xbfbd4e010cf897a0, 0xbffff5ac2324d294, 0xc007d17159fe5153, 0xbfda6d9b6f6a3617},
		"b1136a7339b46dce", 0x40589dd2c83d4210, 0x40073d9ae2964968,
		[4]uint64{0xbfaa0dc69f0b1f14, 0xbff19631adfc3bab, 0xbffa5453909de946, 0xbfcb75beb0a9ca2a}},
	{"GCN", predictor.MSE,
		[4]uint64{0xbfbd4e010cf897a0, 0xbffff5ac2324d294, 0xc007d17159fe5153, 0xbfda6d9b6f6a3617},
		"66a8a508180b032b", 0x40589dd2c83d4210, 0x402169b4679b530e,
		[4]uint64{0xbfa9f5b5d2a559b0, 0xbff1953ceabfd578, 0xbffa5345db5a5066, 0xbfcb6fd6b953fafe}},
	{"GAT", predictor.MAE,
		[4]uint64{0x3fd16d4c179727b6, 0x40182c5318ebfe2a, 0x402208c8f0ca1e6d, 0x3ff5d03c566464e7},
		"30fae694540dc4a6", 0x4074edd6644521e0, 0x401328dd68315c77,
		[4]uint64{0x3fc7fecdefbd125e, 0x4012c076cb5cf307, 0x401c0369c6a54675, 0x3ff14ee163931869}},
	{"GAT", predictor.MSE,
		[4]uint64{0x3fd16d4c179727b6, 0x40182c5318ebfe2a, 0x402208c8f0ca1e6d, 0x3ff5d03c566464e7},
		"7e8ba8a7ceaaad92", 0x4074ed54c26c156b, 0x4037a28384ceadff,
		[4]uint64{0x3fc7f70901dcbb45, 0x4012c06c30fa91a3, 0x401c0393fa26e756, 0x3ff1535c81adeb6b}},
}

func goldenArch(name string) PredictorModel {
	switch name {
	case "Tran":
		return NewDAGTransformer(rand.New(rand.NewSource(11)), TransformerConfig{Layers: 2, Dim: 16, Heads: 2, FFNDim: 32})
	case "GCN":
		return NewGCN(rand.New(rand.NewSource(12)), GCNConfig{Layers: 2, Dim: 16})
	}
	return NewGAT(rand.New(rand.NewSource(13)), GATConfig{Layers: 2, Dim: 8, Heads: 2})
}

// rawForward is the unscaled, unfloored forward of one graph on a fresh tape.
func rawForward(net PredictorModel, e *stage.Encoded) float64 {
	return net.Predict(ag.NewContext(), e).Value().Data[0]
}

// TestGoldenBits pins the numeric stack to literal bit patterns: forwards of
// all three architectures, one graph per tape, and the weights, test MRE and
// best validation loss of a short training run under both losses. The
// one-graph tape ops are the only forward/backward implementation, so nothing
// in the tree can serve as a bitwise oracle for them any more; these
// constants are what a refactor of tensor, ag, nn, graphnn or predictor must
// leave unmoved. They were captured on padded multi-graph tapes and hold
// unchanged on one-graph tapes.
func TestGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit patterns were captured on amd64; other ports may fuse multiply-adds")
	}
	m := BuildModel(tinyGPT())
	ds := BuildDataset(NewEncoder(m, true), AllStages(m, 3), Scenarios(Platform1())[0], DefaultProfiler())
	train, val, test := Split(rand.New(rand.NewSource(5)), len(ds.Samples), 0.7, 0.15)
	probe := [4]int{0, 7, 14, len(ds.Samples) - 1}
	forwards := func(net PredictorModel) (out [4]uint64) {
		for k, i := range probe {
			out[k] = math.Float64bits(rawForward(net, ds.Samples[i].Encoded))
		}
		return out
	}
	for _, g := range goldenRuns {
		net := goldenArch(g.arch)
		if got := forwards(net); got != g.fresh {
			t.Errorf("%s loss %d: fresh forwards %#x, want %#x", g.arch, g.loss, got, g.fresh)
		}
		tr, res := Train(net, ds, train, val, TrainConfig{Epochs: 4, Patience: 4, BatchSize: 4, Seed: 3, Loss: g.loss})
		if got := WeightFingerprint(tr); got != g.fingerprint {
			t.Errorf("%s loss %d: weight fingerprint %s, want %s", g.arch, g.loss, got, g.fingerprint)
		}
		if got := math.Float64bits(tr.MRE(ds, test)); got != g.testMRE {
			t.Errorf("%s loss %d: test MRE bits %#x, want %#x", g.arch, g.loss, got, g.testMRE)
		}
		if got := math.Float64bits(res.BestValLoss); got != g.bestVal {
			t.Errorf("%s loss %d: best validation loss bits %#x, want %#x", g.arch, g.loss, got, g.bestVal)
		}
		if got := forwards(tr.Model); got != g.trained {
			t.Errorf("%s loss %d: trained forwards %#x, want %#x", g.arch, g.loss, got, g.trained)
		}
	}
}

// TestGoldenBitsLargestFirst pins the largest-first claim order of Train's
// fan-outs to the weights of the shuffle-order schedule it replaced: on a
// ragged split (6 to 185 nodes) and a seed under which no minibatch's largest
// graph comes first, so every fan-out reorders its claims, each architecture's
// weight fingerprint must be the one captured before the reorder — serially,
// at GOMAXPROCS workers, and with three workers on two cores.
func TestGoldenBitsLargestFirst(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit patterns were captured on amd64; other ports may fuse multiply-adds")
	}
	const seed, epochs, batchSize = 19, 3, 4
	m := BuildModel(tinyGPT())
	ds := BuildDataset(NewEncoder(m, true), AllStages(m, 3), Scenarios(Platform1())[0], DefaultProfiler())
	train, val, _ := Split(rand.New(rand.NewSource(5)), len(ds.Samples), 0.7, 0.15)

	// Replay Train's shuffle (its rng drives nothing else) to hold the data
	// to its premise.
	rng := rand.New(rand.NewSource(seed))
	order := append([]int{}, train...)
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < len(order); lo += batchSize {
			batch := order[lo:min(lo+batchSize, len(order))]
			largest := 0
			for _, i := range batch {
				largest = max(largest, ds.Samples[i].Encoded.N())
			}
			if ds.Samples[batch[0]].Encoded.N() == largest {
				t.Fatalf("epoch %d: the minibatch at %d starts with its largest graph", e, lo)
			}
		}
	}

	want := map[string]string{"Tran": "9eb572d49777d888", "GCN": "6b1ea4a391c7a9db", "GAT": "a1fa3b26b312cd90"}
	for _, arch := range []string{"Tran", "GCN", "GAT"} {
		for _, row := range []struct{ workers, procs int }{{1, 0}, {0, 0}, {0, 3}} {
			run := func() (Trained, TrainResult) {
				if row.procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(row.procs))
				}
				return Train(goldenArch(arch), ds, train, val,
					TrainConfig{Epochs: epochs, Patience: epochs, BatchSize: batchSize, Seed: seed, Workers: row.workers})
			}
			tr, res := run()
			if res.EpochsRun != epochs {
				t.Fatalf("%s: ran %d epochs, want %d", arch, res.EpochsRun, epochs)
			}
			if got := WeightFingerprint(tr); got != want[arch] {
				t.Errorf("%s workers=%d procs=%d: weight fingerprint %s, want %s", arch, row.workers, row.procs, got, want[arch])
			}
		}
	}
}

// planGolden is one latency source × model row of TestGoldenPlans. Every
// number was captured at PR 17's tree, the last commit whose providers labeled
// through ProfileStage once per configuration and charged the training
// sample's cost in a loop of their own. The GPT-3/12 and MoE/8 rows were
// captured while every lookup still built and optimized its own stage graph,
// before that work was keyed by stage class.
type planGolden struct {
	model, source   string
	plan            string // "[lo,hi)@mesh ..." in pipeline order
	est, eval, cost uint64 // bits of plan.Est, EvaluatePlan, meter.Total()
	profiled        int
	misses          int
	fingerprint     string // ProviderInfo.Fingerprint; predictor sources only
}

var goldenPlans = []planGolden{
	{"GPT-3/6", "full", "[0,3)@1 [3,5)@1 [5,8)@2",
		0x3fd09559d0f701b3, 0x3fd0cc93ec9394f4, 0x40a575a0cf39f30e, 126, 63, ""},
	{"GPT-3/6", "partial", "[0,2)@1 [2,4)@1 [4,6)@1 [6,8)@1",
		0x3fd1a33dc012fcc4, 0x3fd1b92b253e3901, 0x409933934f93fd89, 59, 34, ""},
	{"GPT-3/6", "tran", "[0,2)@1 [2,5)@2 [5,8)@1",
		0x3f8c9a866a225404, 0x3fd5d80decf5a0b2, 0x40968a5d43494fd6, 66, 63, "f4fa340cbd65e138"},
	{"MoE/4", "full", "[0,3)@2 [3,6)@2",
		0x3fb65db6fd9f9f5f, 0x3fb624d9b60298a0, 0x40a0107c346cdc63, 90, 45, ""},
	{"MoE/4", "partial", "[0,3)@2 [3,6)@2",
		0x3fb65db6fd9f9f5f, 0x3fb624d9b60298a0, 0x409136e3f9f62190, 36, 19, ""},
	{"MoE/4", "tran", "[0,3)@2 [3,6)@2",
		0x3f431b8d6ef28968, 0x3fb624d9b60298a0, 0x4092799c330aeab3, 48, 45, "275a99572679f4b5"},
	{"GPT-3/12", "full", "[0,4)@1 [4,7)@1 [7,11)@1 [11,14)@1",
		0x3fde09bc65bcbb12, 0x3fde5a0db5fd21e9, 0x40c8abf5379b572d, 360, 180, ""},
	{"GPT-3/12", "tran", "[0,4)@1 [4,7)@1 [7,10)@1 [10,14)@1",
		0x3fea0b0589099251, 0x3fe0202a625e2f2e, 0x40b9f5c0861506c6, 180, 180, "46344534eb7df655"},
	{"MoE/8", "full", "[0,5)@2 [5,8)@1 [8,10)@1",
		0x3fc248ceae5b5226, 0x3fc271384e0f7948, 0x40c1d85c205c432b, 240, 120, ""},
	{"MoE/8", "tran", "[0,5)@2 [5,10)@2",
		0x3f4b70e5e23c8009, 0x3fc29258cde5cbf4, 0x40b354e04d6f7e43, 120, 120, "fed5320b48b57b23"},
}

// TestGoldenPlans pins the labeling path under the planner: for Alpa-Full,
// Alpa-Partial and a PredTOP provider on two small models, the chosen plan,
// its estimated and true Eqn-4 latency, the simulated optimization cost and
// the meter's counts must keep the bits they had before the providers were
// rerouted through one labeling function.
func TestGoldenPlans(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit patterns were captured on amd64; other ports may fuse multiply-adds")
	}
	const microbatches = 8
	gpt12, moe4, moe8 := GPT3Config(), MoEConfig(), MoEConfig()
	gpt12.Layers, moe4.Layers, moe8.Layers = 12, 4, 8
	// The deeper models plan over stages of up to five segments, so most
	// lookups land on a stage class the search has already seen.
	modelsByName := map[string]struct {
		m      *Model
		maxLen int
	}{
		"GPT-3/6":  {BuildModel(tinyGPT()), 3},
		"MoE/4":    {BuildModel(moe4), 3},
		"GPT-3/12": {BuildModel(gpt12), 5},
		"MoE/8":    {BuildModel(moe8), 5},
	}
	p := Platform2()
	for _, g := range goldenPlans {
		m, maxLen := modelsByName[g.model].m, modelsByName[g.model].maxLen
		meter := &CostMeter{}
		var info PlanProviderInfo
		var lat LatencyFn
		switch g.source {
		case "full":
			lat = FullProfiling(m, DefaultProfiler(), meter)
		case "partial":
			lat = planner.PartialProfiling(predictor.NewLabeler(m, DefaultProfiler()), meter, 1.2)
		default:
			// The facade's TrainPredictorProvider with its provenance kept:
			// the same fresh label cache and pruned encoder.
			lab, enc := predictor.NewLabeler(m, DefaultProfiler()), predictor.NewEncoder(m, true)
			lat, info = planner.TrainPredictorProvider(lab, enc, p, PredictorOptions{
				Kind: KindTransformer, SampleFrac: 0.5, MaxStageLen: maxLen,
				Train: TrainConfig{Epochs: 2, Patience: 2, BatchSize: 4},
				Tran:  TransformerConfig{Layers: 1, Dim: 16, Heads: 2, FFNDim: 32},
				Seed:  3,
			}, meter)
		}
		plan, ok := OptimizePlan(m.NumSegments(), p, lat, PlanOptions{Microbatches: microbatches, MaxStageLen: maxLen})
		if !ok {
			t.Fatalf("%s %s: no plan", g.model, g.source)
		}
		eval, ok := EvaluatePlan(m, plan, microbatches)
		if !ok {
			t.Fatalf("%s %s: plan infeasible under true latencies", g.model, g.source)
		}
		var sig []string
		for i, sp := range plan.Stages {
			sig = append(sig, fmt.Sprintf("[%d,%d)@%d", sp.Lo, sp.Hi, plan.Meshes[i].Index))
		}
		got := planGolden{g.model, g.source, strings.Join(sig, " "),
			math.Float64bits(plan.Est), math.Float64bits(eval), math.Float64bits(meter.Total()),
			meter.StagesProfiled, meter.CacheMisses, info.Fingerprint}
		if got != g {
			t.Errorf("%s %s:\n got %#v\nwant %#v", g.model, g.source, got, g)
		}
	}
}
