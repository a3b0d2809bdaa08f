package predictor

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"predtop/internal/ag"
	"predtop/internal/graphnn"
	"predtop/internal/obs"
	"predtop/internal/optim"
	"predtop/internal/parallel"
	"predtop/internal/stage"
	"predtop/internal/tensor"
)

// Loss selects the training objective. The paper evaluated both and found
// MAE to always outperform MSE (§IV-B7).
type Loss uint8

// Training losses.
const (
	MAE Loss = iota
	MSE
)

// TrainConfig carries the training hyper-parameters of §IV-B6/B8. The zero
// value is replaced by the paper's settings.
type TrainConfig struct {
	Epochs    int     // cosine-decay horizon (paper: 500)
	BatchSize int     // paper: 32
	BaseLR    float64 // paper: 1e-3 decaying to 0
	Patience  int     // early-stopping patience in epochs (paper: 200)
	Loss      Loss    // paper: MAE
	Seed      int64
	ClipNorm  float64 // gradient clipping (0 = paper default 5)
	// Workers bounds the goroutines a minibatch's graphs, and the
	// validation and final-loss samples, fan across: 0 = GOMAXPROCS, 1 =
	// serial. Any setting produces bitwise-identical results — per-graph
	// gradient parts and losses fold through trees whose shapes depend on
	// the batch and index set alone.
	Workers int
	// Hooks, when non-nil, observes training progress (per-epoch stats,
	// early stop, weight restore, phase spans, flight breadcrumbs). Hooks
	// only observe — they never perturb the shuffle or any summation order —
	// so trained weights stay bitwise identical with hooks attached or
	// absent, at every Workers setting.
	Hooks *TrainHooks
}

// EpochStats is one epoch of a training run, as recorded in
// TrainResult.History and delivered to TrainHooks.OnEpoch. TrainLoss is the
// mean per-sample minibatch loss over the epoch (in label-normalized units,
// accumulated in fixed batch order, so it is bitwise deterministic);
// GradNorm is the mean pre-clip gradient norm over the epoch's batches;
// WallSeconds is cumulative since Train started.
type EpochStats struct {
	Epoch       int     `json:"epoch"` // 1-based
	LR          float64 `json:"lr"`
	TrainLoss   float64 `json:"train_loss"`
	ValLoss     float64 `json:"val_loss"` // 0 when no validation set
	GradNorm    float64 `json:"grad_norm"`
	BadEpochs   int     `json:"bad_epochs"` // epochs since the last val improvement
	WallSeconds float64 `json:"wall_s"`
}

// TrainHooks observes a training run. Every field is optional; the zero
// value observes nothing. Callbacks run on the training goroutine between
// epochs (never inside the data-parallel minibatch loop), so they may block
// but must not mutate the model. One TrainHooks handed to concurrent Train
// calls (the MRE grid, the ablation and the planner's predictor provider all
// do) is called from each of them at once, so hooks shared that way must be
// safe for concurrent use; obs.Profiler and obs.FlightRecorder are.
type TrainHooks struct {
	// OnEpoch fires once per epoch, after the optimizer steps and the
	// validation pass.
	OnEpoch func(EpochStats)
	// OnEarlyStop fires at most once, when patience is exhausted; epoch is
	// the 1-based last epoch run.
	OnEarlyStop func(epoch int)
	// OnRestore fires when best-validation weights are restored at the end
	// of a run with a validation set.
	OnRestore func(bestEpoch int, bestValLoss float64)
	// Profiler, when non-nil, receives hierarchical phase spans
	// (train → data / batch{sample, step} / eval) with per-layer
	// forward/backward attribution from the model tapes — the run's only
	// wall-clock record besides EpochStats.WallSeconds. A nil profiler keeps
	// every span inert and allocation-free, and spans only observe — trained
	// weights stay bitwise identical with profiling on or off.
	Profiler *obs.Profiler
	// Flight, when non-nil, receives breadcrumbs (one static note per batch,
	// one per epoch) into the crash ring buffer, so a worker panic dump shows
	// where training was. A nil recorder is a zero-allocation no-op, and
	// notes only observe — determinism is untouched.
	Flight *obs.FlightRecorder
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 500
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.BaseLR == 0 {
		c.BaseLR = 1e-3
	}
	if c.Patience == 0 {
		c.Patience = 200
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	return c
}

// TrainResult reports a completed training run.
type TrainResult struct {
	EpochsRun   int
	BestValLoss float64
	// BestEpoch is the 1-based epoch whose weights the run kept: the best
	// validation epoch, or the final epoch when no validation set was given
	// (0 when nothing was trained).
	BestEpoch int
	Scale     float64 // label normalization divisor
	// History holds one entry per epoch run (len == EpochsRun), so callers
	// can plot loss curves without attaching hooks.
	History     []EpochStats
	WallSeconds float64
}

// Trained couples a fitted model with its label scale for inference.
type Trained struct {
	Model graphnn.Model
	Scale float64
}

// Train fits model on ds.Samples[trainIdx], early-stopping on valIdx, and
// restores the best-validation weights (§IV-B8). An empty trainIdx returns
// the untouched model; an empty valIdx disables early stopping, keeps the
// final-epoch weights, and reports the final training loss as BestValLoss.
//
// Each graph of a minibatch runs forward and backward on its own B=1 tape,
// and the graphs fan across cfg.Workers worker tapes. Every tape writes its
// parameter-gradient part into the graph's slot of one ag.PanelGrads, which
// folds them into Param.Grad through a tree fixed by the batch size alone.
// Evaluation runs one sample per iteration on the same tapes, and its
// losses fold through a fixed-shape tree. Every cfg.Workers setting
// therefore yields bitwise-identical weights.
func Train(model graphnn.Model, ds *Dataset, trainIdx, valIdx []int, cfg TrainConfig) (Trained, TrainResult) {
	cfg = cfg.withDefaults()
	start := time.Now()
	if len(trainIdx) == 0 {
		return Trained{Model: model, Scale: 1}, TrainResult{Scale: 1, WallSeconds: time.Since(start).Seconds()}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Normalize labels so the output head operates near unit scale.
	scale := 0.0
	for _, i := range trainIdx {
		scale += ds.Samples[i].Measured
	}
	scale /= float64(len(trainIdx))
	if scale <= 0 {
		scale = 1
	}

	params := model.Params()
	opt := optim.NewAdam(params)

	// Phase spans nest under one "train" root; with no profiler or flight
	// recorder attached every span and note below is an inert no-op (guarded
	// by TestNilRegistryHotPathZeroAlloc).
	hooks := cfg.Hooks
	var prof *obs.Profiler
	var flight *obs.FlightRecorder
	if hooks != nil {
		prof, flight = hooks.Profiler, hooks.Flight
	}
	trainSpan := prof.Start("train")
	defer trainSpan.End()

	// The worker tapes, the gradient slots and the loss buffers are made
	// once per run. A tape holds one graph's intermediates at a time; its
	// private arena recycles them across graphs and epochs.
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batchCap := min(cfg.BatchSize, len(trainIdx))
	// tapes is the free list: buffered to hold every tape, so returning one
	// never blocks, and an iteration waits only when all are in use.
	tapes := make(chan *tape, min(workers, batchCap))
	for range cap(tapes) {
		tapes <- newTape()
	}
	grads := ag.NewPanelGrads(params, batchCap)
	lossVals := make([]float64, batchCap)
	evalVals := make([]float64, max(len(valIdx), len(trainIdx)))

	// lossOf evaluates forward-only, one sample per iteration; the losses
	// fold through a tree whose shape depends on len(idx) alone.
	lossOf := func(idx []int) float64 {
		if len(idx) == 0 {
			return 0
		}
		es := trainSpan.Start("eval")
		vals := evalVals[:len(idx)]
		parallel.ForLimit(len(idx), cfg.Workers, func(k int) {
			tp := <-tapes
			s := ds.Samples[idx[k]]
			ss := es.Start("sample")
			tp.ctx.Reset()
			tp.ctx.SetSpan(ss)
			pred := model.PredictBatch(tp.ctx, tp.one(s.Encoded)).Value().Data[0]
			vals[k] = sampleLoss(pred, s.Measured/scale, cfg.Loss)
			ss.End()
			tapes <- tp
		})
		total := parallel.TreeReduce(vals, func(a, b float64) float64 { return a + b })
		es.End()
		return total / float64(len(idx))
	}

	useVal := len(valIdx) > 0
	best := math.Inf(1)
	bestParams := snapshot(params)
	bad := 0
	res := TrainResult{Scale: scale}

	// runGraph runs graph k of the minibatch on a worker tape: forward, its
	// loss into lossVals[k], and backward into slot k of grads. The loss is
	// not mean-reduced: slot k holds the gradient of graph k's own loss,
	// Param.Grad their tree sum after grads.Fold, and the 1/len(batch) mean
	// is applied after (ScaleGrads below).
	runGraph := func(batch []int, k int, bs obs.Span) {
		tp := <-tapes
		ctx := tp.ctx
		ctx.Reset()
		ctx.RouteGrads(grads, k)
		s := ds.Samples[batch[k]]
		// One span covers the graph's forward/backward; the model's layer
		// marks nest under it for forward timing, and BackwardVec hangs its
		// per-layer attribution subtree off the same node.
		ss := bs.Start("sample")
		ctx.SetSpan(ss)
		pred := model.PredictBatch(ctx, tp.one(s.Encoded))
		target := ctx.Arena().GetUninit(1, 1)
		target.Data[0] = s.Measured / scale
		diff := ctx.Sub(pred, ctx.Const(target))
		var loss *ag.Node
		if cfg.Loss == MSE {
			loss = ctx.Square(diff)
		} else {
			loss = ctx.Abs(diff)
		}
		lossVals[k] = loss.Value().Data[0]
		ctx.BackwardVec(loss)
		ss.End()
		tapes <- tp
	}

	order := append([]int{}, trainIdx...)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := optim.CosineDecay(cfg.BaseLR, epoch, cfg.Epochs)
		dsp := trainSpan.Start("data")
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		dsp.End()
		epochLoss, normSum, numBatches := 0.0, 0.0, 0
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			batch := order[lo:hi]
			bs := trainSpan.Start("batch")
			parallel.ForLimit(len(batch), cfg.Workers, func(k int) { runGraph(batch, k, bs) })
			st := bs.Start("step")
			grads.Fold(len(batch))
			optim.ScaleGrads(params, 1/float64(len(batch)))
			norm := optim.ClipGradNorm(params, cfg.ClipNorm)
			opt.Step(lr)
			st.End()
			bs.End()
			flight.Note("train", "batch")
			// Observation only: per-sample losses fold through the same
			// fixed-shape tree as the gradient parts and accumulate serially
			// in batch order, so History is as deterministic as the weights.
			epochLoss += parallel.TreeReduce(lossVals[:len(batch)], func(a, b float64) float64 { return a + b })
			normSum += norm
			numBatches++
		}
		res.EpochsRun = epoch + 1

		stats := EpochStats{
			Epoch:     epoch + 1,
			LR:        lr,
			TrainLoss: epochLoss / float64(len(order)),
			GradNorm:  normSum / float64(numBatches),
		}
		stopped := false
		if useVal {
			val := lossOf(valIdx)
			stats.ValLoss = val
			if val < best {
				best = val
				res.BestEpoch = epoch + 1
				copyInto(bestParams, params)
				bad = 0
			} else {
				bad++
				stopped = bad >= cfg.Patience
			}
			stats.BadEpochs = bad
		}
		stats.WallSeconds = time.Since(start).Seconds()
		res.History = append(res.History, stats)
		if flight.Enabled() { // guard: the message is formatted only when live
			flight.Note("train", "epoch "+strconv.Itoa(epoch+1)+" done")
		}
		if hooks != nil && hooks.OnEpoch != nil {
			hooks.OnEpoch(stats)
		}
		if stopped {
			if hooks != nil && hooks.OnEarlyStop != nil {
				hooks.OnEarlyStop(epoch + 1)
			}
			flight.Note("train", "early stop")
			break
		}
	}
	if useVal {
		restore(params, bestParams)
		res.BestValLoss = best
		if hooks != nil && hooks.OnRestore != nil {
			hooks.OnRestore(res.BestEpoch, best)
		}
	} else {
		res.BestValLoss = lossOf(trainIdx)
		res.BestEpoch = res.EpochsRun
	}
	res.WallSeconds = time.Since(start).Seconds()
	return Trained{Model: model, Scale: scale}, res
}

// tape pairs an autodiff context with the batch descriptor stacked on its
// arena, so a pooled tape recycles both and a warm forward allocates next to
// nothing.
type tape struct {
	ctx *ag.Context
	nb  stage.Batch
	es  [1]*stage.Encoded // the graph list one stacks, so it allocates nothing
}

func newTape() *tape { return &tape{ctx: ag.NewContext()} }

// stack restacks es as the tape's padded panel batch; the tape must have been
// Reset since its last forward. stage.Batch.Reset fails only on a zero-node
// graph, which no encoder produces (Encoded's contract is N ≥ 1), so a
// failure here is a caller bug and panics.
func (t *tape) stack(es []*stage.Encoded) *stage.Batch {
	if err := t.nb.Reset(es, t.ctx.Arena()); err != nil {
		panic("predictor: " + err.Error())
	}
	return &t.nb
}

// one stacks e alone: the B=1 batch of a training or evaluation step.
func (t *tape) one(e *stage.Encoded) *stage.Batch {
	t.es[0] = e
	return t.stack(t.es[:])
}

// predictTapes recycles forward-only tapes across predictions; a tape goes
// back Reset. The pool is safe for concurrent use; results never depend on
// which pooled tape serves a call because every intermediate buffer is fully
// written before it is read.
var predictTapes = sync.Pool{New: func() any { return newTape() }}

// PredictEncoded returns the trained model's latency prediction in seconds
// for one encoded stage graph: PredictEncodedBatch at B=1.
func (t Trained) PredictEncoded(e *stage.Encoded) float64 {
	var out [1]float64
	t.predictChunk([]*stage.Encoded{e}, out[:])
	return out[0]
}

// predictBatchChunk bounds how many graphs fuse into one padded stack: past
// this, padding waste and the stacked tensors' cache footprint grow without
// amortizing any more per-graph tape overhead.
const predictBatchChunk = 64

// PredictEncodedBatch predicts a whole batch of encoded stage graphs in one
// call: chunks of up to 64 graphs fuse into a single padded forward on one
// pooled tape, and chunks fan across workers (0 = GOMAXPROCS, 1 = serial).
// This is the forward the planner's validation pass and Evaluate drive. Each
// out[i] depends on es[i] alone — bitwise identical at any worker count, any
// chunking and any batch composition, because panels of the padded stack
// never mix.
func (t Trained) PredictEncodedBatch(es []*stage.Encoded, workers int) []float64 {
	out := make([]float64, len(es))
	nchunks := (len(es) + predictBatchChunk - 1) / predictBatchChunk
	parallel.ForLimit(nchunks, workers, func(ci int) {
		lo := ci * predictBatchChunk
		hi := min(lo+predictBatchChunk, len(es))
		t.predictChunk(es[lo:hi], out[lo:hi])
	})
	return out
}

// predictChunk runs one chunk as a single padded forward. Latency is a
// positive quantity, so raw network outputs are floored at 1% of the label
// scale.
func (t Trained) predictChunk(es []*stage.Encoded, out []float64) {
	tp := predictTapes.Get().(*tape)
	preds := t.Model.PredictBatch(tp.ctx, tp.stack(es)).Value()
	floor := 0.01 * t.Scale
	for i := range out {
		p := preds.Data[i] * t.Scale
		if p < floor {
			p = floor
		}
		out[i] = p
	}
	tp.ctx.Reset()
	predictTapes.Put(tp)
}

// MRE is the mean relative error (Eqn 5, in percent) of the trained model
// over the given sample indices against the profiled ground truth:
// Evaluate's MREPct.
func (t Trained) MRE(ds *Dataset, idx []int) float64 { return t.Evaluate(ds, idx).MREPct }

// sampleLoss is one sample's contribution to the evaluation objective.
func sampleLoss(pred, target float64, l Loss) float64 {
	diff := pred - target
	if l == MSE {
		return diff * diff
	}
	return math.Abs(diff)
}

func snapshot(params []*ag.Param) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		out[i] = p.V.Clone()
	}
	return out
}

func copyInto(dst []*tensor.Tensor, params []*ag.Param) {
	for i, p := range params {
		copy(dst[i].Data, p.V.Data)
	}
}

func restore(params []*ag.Param, src []*tensor.Tensor) {
	for i, p := range params {
		copy(p.V.Data, src[i].Data)
	}
}
