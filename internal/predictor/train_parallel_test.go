package predictor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"predtop/internal/graphnn"
	"predtop/internal/obs"
	"predtop/internal/tensor"
)

func buildArch(name string, seed int64) graphnn.Model {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "Tran":
		return graphnn.NewDAGTransformer(rng, graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2, FFNDim: 32})
	case "GCN":
		return graphnn.NewGCN(rng, graphnn.GCNConfig{Layers: 2, Dim: 16})
	case "GAT":
		return graphnn.NewGAT(rng, graphnn.GATConfig{Layers: 1, Dim: 8, Heads: 2})
	}
	panic("unknown arch " + name)
}

// TestParallelTrainingBitwiseDeterministic is the tentpole guarantee: the
// same seeds trained with 1 worker and with many workers must produce
// bitwise-identical weights, loss, and predictions for every architecture —
// with a profiler and flight recorder attached or absent (they observe, never
// perturb). Not skipped in -short mode so `go test -race -short` exercises
// the concurrent instrumented training path.
func TestParallelTrainingBitwiseDeterministic(t *testing.T) {
	_, ds := smallDataset(t, 12)
	n := len(ds.Samples)
	trainIdx := make([]int, 0, n*2/3)
	valIdx := make([]int, 0, n/3)
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			valIdx = append(valIdx, i)
		} else {
			trainIdx = append(trainIdx, i)
		}
	}

	for _, arch := range []string{"Tran", "GCN", "GAT"} {
		t.Run(arch, func(t *testing.T) {
			run := func(workers, procs int, traced, simdOff bool) (Trained, TrainResult) {
				if simdOff {
					defer tensor.SetSIMD(tensor.SetSIMD(false))
				}
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				cfg := TrainConfig{
					Epochs: 3, Patience: 3, BatchSize: 5, Seed: 13, Workers: workers,
				}
				if traced {
					// The traced case carries the full observation surface
					// Train takes — span profiling (per-layer
					// forward/backward attribution) and a live, traced
					// flight recorder — so the table proves traced runs are
					// bitwise identical too.
					fr := obs.NewFlightRecorder(64)
					fr.SetTraceContext(obs.NewTraceContext(13, "determinism-table"))
					cfg.Prof, cfg.Flight = obs.NewProfiler(), fr
				}
				return Train(buildArch(arch, 42), ds, trainIdx, valIdx, cfg)
			}
			ref, refRes := run(1, 0, false, false)
			// The determinism table: every worker count, instrumented and
			// not, the default count (Workers 0) under GOMAXPROCS 3, plus the
			// AVX2 kernels vs the scalar path (SIMD off), must all match the
			// serial uninstrumented reference bitwise.
			type row struct {
				workers, procs  int // procs > 0 sets GOMAXPROCS for the run
				traced, simdOff bool
			}
			var rows []row
			for _, workers := range []int{1, 4, 7} {
				for _, traced := range []bool{false, true} {
					if workers == 1 && !traced {
						continue
					}
					rows = append(rows, row{workers, 0, traced, false})
				}
			}
			rows = append(rows, row{0, 3, false, false}) // GOMAXPROCS workers
			if tensor.SIMDAvailable() {
				rows = append(rows,
					row{1, 0, false, true}, // scalar kernels
					row{4, 0, true, true},  // scalar kernels, instrumented
				)
			}
			for _, rw := range rows {
				got, gotRes := run(rw.workers, rw.procs, rw.traced, rw.simdOff)
				label := fmt.Sprintf("workers=%d procs=%d traced=%v simd=%v", rw.workers, rw.procs, rw.traced, !rw.simdOff)
				if math.Float64bits(gotRes.BestValLoss) != math.Float64bits(refRes.BestValLoss) {
					t.Fatalf("%s BestValLoss %v != %v", label, gotRes.BestValLoss, refRes.BestValLoss)
				}
				if gotRes.EpochsRun != refRes.EpochsRun {
					t.Fatalf("%s EpochsRun %d != %d", label, gotRes.EpochsRun, refRes.EpochsRun)
				}
				if gotRes.BestEpoch != refRes.BestEpoch {
					t.Fatalf("%s BestEpoch %d != %d", label, gotRes.BestEpoch, refRes.BestEpoch)
				}
				if len(gotRes.History) != len(refRes.History) {
					t.Fatalf("%s history length %d != %d", label, len(gotRes.History), len(refRes.History))
				}
				for e := range refRes.History {
					a, b := refRes.History[e], gotRes.History[e]
					if math.Float64bits(a.TrainLoss) != math.Float64bits(b.TrainLoss) ||
						math.Float64bits(a.ValLoss) != math.Float64bits(b.ValLoss) ||
						math.Float64bits(a.GradNorm) != math.Float64bits(b.GradNorm) {
						t.Fatalf("%s history[%d] diverged: %+v != %+v", label, e, b, a)
					}
				}
				refP, gotP := ref.Model.Params(), got.Model.Params()
				if len(refP) != len(gotP) {
					t.Fatalf("param count mismatch")
				}
				for i := range refP {
					for j := range refP[i].V.Data {
						a, b := refP[i].V.Data[j], gotP[i].V.Data[j]
						if math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("%s param %s[%d]: %x != %x",
								label, refP[i].Name, j, math.Float64bits(a), math.Float64bits(b))
						}
					}
				}
			}
		})
	}
}

// TestTrainHistory checks the record a run leaves: a run that cannot exhaust
// its patience runs every epoch and reports no early stop, History has one
// entry per epoch run, numbered from 1, with plausible stats, and BestEpoch
// points at the entry whose validation loss is BestValLoss.
func TestTrainHistory(t *testing.T) {
	_, ds := smallDataset(t, 12)
	n := len(ds.Samples)
	var trainIdx, valIdx []int
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			valIdx = append(valIdx, i)
		} else {
			trainIdx = append(trainIdx, i)
		}
	}
	_, res := Train(buildArch("GCN", 7), ds, trainIdx, valIdx, TrainConfig{
		Epochs: 4, Patience: 4, BatchSize: 5, Seed: 3,
	})
	// The first epoch always improves, so four epochs cannot exhaust a
	// patience of four.
	if res.EarlyStopped || res.EpochsRun != 4 {
		t.Fatalf("EarlyStopped %v after %d of 4 epochs at patience 4", res.EarlyStopped, res.EpochsRun)
	}
	if len(res.History) != res.EpochsRun {
		t.Fatalf("history %d entries for %d epochs", len(res.History), res.EpochsRun)
	}
	for i, e := range res.History {
		if e.Epoch != i+1 {
			t.Fatalf("epoch numbering: %d at index %d", e.Epoch, i)
		}
		if math.IsNaN(e.TrainLoss) || e.TrainLoss < 0 || e.GradNorm < 0 {
			t.Fatalf("implausible stats %+v", e)
		}
		if e.LR < 0 || e.LR > baseLR {
			t.Fatalf("lr %v outside cosine-decay range", e.LR)
		}
	}
	if res.BestEpoch < 1 || res.BestEpoch > res.EpochsRun {
		t.Fatalf("BestEpoch %d out of range", res.BestEpoch)
	}
	if res.History[res.BestEpoch-1].ValLoss != res.BestValLoss {
		t.Fatalf("BestEpoch val %v != BestValLoss %v", res.History[res.BestEpoch-1].ValLoss, res.BestValLoss)
	}
}

// TestTrainEarlyStop: an exhausted patience shows in the result alone —
// EarlyStopped is set, the run ends before its horizon, History stops at the
// last epoch run, and that entry's BadEpochs is the patience.
func TestTrainEarlyStop(t *testing.T) {
	_, ds := smallDataset(t, 12)
	n := len(ds.Samples)
	var trainIdx, valIdx []int
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			valIdx = append(valIdx, i)
		} else {
			trainIdx = append(trainIdx, i)
		}
	}
	_, res := Train(buildArch("GCN", 7), ds, trainIdx, valIdx, TrainConfig{
		Epochs: 50, Patience: 1, BatchSize: 5, Seed: 3,
	})
	if !res.EarlyStopped {
		t.Skip("no early stop triggered at this seed")
	}
	if res.EpochsRun >= 50 {
		t.Fatalf("early stop reported after all %d epochs", res.EpochsRun)
	}
	if len(res.History) != res.EpochsRun {
		t.Fatalf("history %d entries for %d epochs", len(res.History), res.EpochsRun)
	}
	if last := res.History[len(res.History)-1]; last.BadEpochs != 1 {
		t.Fatalf("last epoch %+v: BadEpochs %d, want the patience 1", last, last.BadEpochs)
	}
}

// TestNilRegistryHotPathZeroAlloc guards the obs no-op contract where it
// matters: the exact instruments the minibatch hot path uses — the
// phase/sample spans from a disabled (nil) profiler and breadcrumbs into a
// disabled (nil) flight recorder — must add zero allocations per batch. (The
// name predates the training loop losing its metrics registry.)
func TestNilRegistryHotPathZeroAlloc(t *testing.T) {
	var prof *obs.Profiler
	trainSpan := prof.Start("train")
	var flight *obs.FlightRecorder
	allocs := testing.AllocsPerRun(500, func() {
		bs := trainSpan.Start("batch")
		ss := bs.Start("sample")
		ss.End()
		st := bs.Start("step")
		st.End()
		bs.End()
		flight.Note("train", "batch")
		if flight.Enabled() {
			t.Error("nil recorder reports enabled")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocated %.1f per batch", allocs)
	}
}

// TestTrainProfilerBuildsPhaseTree: with a profiler attached, one short run
// must produce the train → data/batch{sample,step}/eval phase tree with
// per-layer forward spans and a backward attribution subtree under sample.
func TestTrainProfilerBuildsPhaseTree(t *testing.T) {
	_, ds := smallDataset(t, 12)
	n := len(ds.Samples)
	var trainIdx, valIdx []int
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			valIdx = append(valIdx, i)
		} else {
			trainIdx = append(trainIdx, i)
		}
	}
	prof := obs.NewProfiler()
	trained, _ := Train(buildArch("Tran", 42), ds, trainIdx, valIdx, TrainConfig{
		Epochs: 2, Patience: 2, BatchSize: 5, Seed: 13, Workers: 4,
		Prof: prof,
	})
	// Training ran on tapes of its own, so predictions after the run record
	// nothing into its profile.
	for _, s := range ds.Samples {
		trained.PredictEncoded(s.Encoded)
	}
	var buf strings.Builder
	if err := prof.WriteProfileTree(&buf); err != nil {
		t.Fatal(err)
	}
	tree := buf.String()
	for _, want := range []string{
		"train", "  data", "  batch", "    sample", "    step", "  eval",
		"      embed", "      l0.attn", "      l0.ffn", "      head",
		"      backward", "        l0.attn",
	} {
		if !strings.Contains(tree, want+" ") {
			t.Fatalf("profile tree missing %q:\n%s", want, tree)
		}
	}
	// The same instrumentation points must render identically on a second
	// pass, after more predictions — the report is deterministic in layout
	// and closed to later forwards.
	for _, s := range ds.Samples {
		trained.PredictEncoded(s.Encoded)
	}
	var again strings.Builder
	if err := prof.WriteProfileTree(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != tree {
		t.Fatal("profile tree render not deterministic")
	}
}

// TestTrainEmptyValSet guards the NaN regression: with no validation
// samples, training must run to completion, report a finite train-set loss
// as BestValLoss, and keep the final (not zero-initialized best) weights.
func TestTrainEmptyValSet(t *testing.T) {
	_, ds := smallDataset(t, 10)
	trainIdx := make([]int, len(ds.Samples))
	for i := range trainIdx {
		trainIdx[i] = i
	}
	trained, res := Train(buildArch("GCN", 5), ds, trainIdx, nil, TrainConfig{
		Epochs: 2, Patience: 1, BatchSize: 4, Seed: 9,
	})
	if math.IsNaN(res.BestValLoss) || math.IsInf(res.BestValLoss, 0) {
		t.Fatalf("BestValLoss not finite: %v", res.BestValLoss)
	}
	if res.EpochsRun != 2 {
		t.Fatalf("empty val set must disable early stopping: ran %d epochs", res.EpochsRun)
	}
	mre := trained.MRE(ds, trainIdx)
	if math.IsNaN(mre) || math.IsInf(mre, 0) {
		t.Fatalf("trained model unusable: MRE %v", mre)
	}
}

// TestTrainEmptyTrainSet: degenerate input must not panic or divide by zero.
func TestTrainEmptyTrainSet(t *testing.T) {
	_, ds := smallDataset(t, 6)
	trained, res := Train(buildArch("GCN", 5), ds, nil, nil, TrainConfig{
		Epochs: 2, BatchSize: 4, Seed: 9,
	})
	if res.EpochsRun != 0 {
		t.Fatalf("trained on nothing for %d epochs", res.EpochsRun)
	}
	if trained.Scale != 1 {
		t.Fatalf("degenerate scale %v", trained.Scale)
	}
}

// TestPredictSteadyStateAllocBudget pins the arena payoff on the serving
// path: once the pooled prediction contexts are warm, PredictEncoded must
// stay within a small fixed allocation budget per call (model forward glue
// like per-head slices — not O(tensor) heap traffic).
func TestPredictSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode degrades sync.Pool; steady-state counts not meaningful")
	}
	_, ds := smallDataset(t, 6)
	var trainIdx []int
	for i := range ds.Samples {
		trainIdx = append(trainIdx, i)
	}
	trained, _ := Train(buildArch("Tran", 42), ds, trainIdx, nil, TrainConfig{
		Epochs: 1, BatchSize: 4, Seed: 13,
	})
	e := ds.Samples[0].Encoded
	trained.PredictEncoded(e) // warm the context pool + arena
	trained.PredictEncoded(e)
	allocs := testing.AllocsPerRun(200, func() { trained.PredictEncoded(e) })
	// Measured steady state is 0 allocs (the per-head operand lists stay on
	// the stack); the budget leaves room for a pool refill after a GC but
	// would catch any return to per-tensor heap allocation (previously
	// hundreds/call).
	const budget = 4
	if allocs > budget {
		t.Fatalf("PredictEncoded allocates %.1f per call, budget %d", allocs, budget)
	}
	t.Logf("PredictEncoded steady-state allocs: %.1f", allocs)
}

// TestTrainPanicsOnNonFiniteLoss feeds a +Inf label: on the training side it
// makes the label scale infinite and its sample's loss NaN, on the
// validation side the validation loss +Inf. Either way Train stops with a
// panic that names where, instead of training on or early-stopping against
// a loss that can no longer compare.
func TestTrainPanicsOnNonFiniteLoss(t *testing.T) {
	_, ds := smallDataset(t, 10)
	for _, tc := range []struct {
		name             string
		trainIdx, valIdx []int
		want             string
	}{
		{"train", []int{0, 1, 2, 3, 4, 5, 6, 7}, []int{8, 9}, "non-finite training loss NaN at epoch 1, batch "},
		{"validation", []int{1, 2, 3, 4, 5, 6, 7, 8}, []int{0, 9}, "non-finite validation loss +Inf at epoch 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := *ds
			bad.Samples = append([]Sample(nil), ds.Samples...)
			bad.Samples[0].Measured = math.Inf(1)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one containing %q", msg, tc.want)
				}
			}()
			Train(buildArch("GCN", 5), &bad, tc.trainIdx, tc.valIdx, TrainConfig{Epochs: 2, BatchSize: 4, Seed: 9})
		})
	}
}
