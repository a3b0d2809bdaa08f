package predictor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// The paper's optimizer schedule (§IV-B6): the learning rate decays by a
// cosine from baseLR to 0 over the run, and gradients are clipped to
// clipNorm.
const (
	baseLR   = 1e-3
	clipNorm = 5
)

// TrainConfig carries the training hyper-parameters of §IV-B6/B8. The zero
// value is replaced by the paper's settings.
type TrainConfig struct {
	Epochs    int  // cosine-decay horizon (paper: 500)
	BatchSize int  // paper: 32
	Patience  int  // early-stopping patience in epochs (paper: 200)
	Loss      Loss // paper: MAE
	Seed      int64
	// Workers bounds the goroutines a minibatch's distinct graphs, and the
	// validation and final-loss samples' distinct graphs, fan across: 0 =
	// GOMAXPROCS, 1 = serial. Any setting produces bitwise-identical
	// results — per-position gradient parts and losses fold through trees
	// whose shapes depend on the batch and index set alone.
	Workers int
	// Prof, when non-nil, receives hierarchical phase spans
	// (train → data / batch{sample, step} / eval) with per-layer
	// forward/backward attribution from the model tapes — the run's only
	// wall-clock record besides EpochStats.WallSeconds. Flight, when non-nil,
	// receives breadcrumbs (one static note per batch, one per epoch) into
	// the crash ring buffer, so a worker panic dump shows where training
	// was. Both only observe: nil handles are inert and allocation-free, and
	// trained weights stay bitwise identical with either attached or absent,
	// at every Workers setting. Concurrent Train calls sharing one config
	// (the MRE grid, the ablation and the planner's predictor provider all
	// do) report to both at once; obs.Profiler and obs.FlightRecorder are
	// safe for that.
	Prof   *obs.Profiler
	Flight *obs.FlightRecorder
}

// EpochStats is one epoch of a training run, as recorded in
// TrainResult.History. TrainLoss is the mean per-sample minibatch loss over
// the epoch (in label-normalized units, accumulated in fixed batch order, so
// it is bitwise deterministic); GradNorm is the mean pre-clip gradient norm
// over the epoch's batches; WallSeconds is cumulative since Train started.
type EpochStats struct {
	Epoch       int     `json:"epoch"` // 1-based
	LR          float64 `json:"lr"`
	TrainLoss   float64 `json:"train_loss"`
	ValLoss     float64 `json:"val_loss"` // 0 when no validation set
	GradNorm    float64 `json:"grad_norm"`
	BadEpochs   int     `json:"bad_epochs"` // epochs since the last val improvement
	WallSeconds float64 `json:"wall_s"`
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 500
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.Patience == 0 {
		c.Patience = 200
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
	// EarlyStopped reports that the validation loss went Patience epochs
	// without improving, which ends the run (possibly at its last epoch).
	// History then ends in the entry whose BadEpochs reached the patience.
	EarlyStopped bool
	// History holds one entry per epoch run (len == EpochsRun).
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
// Each distinct graph (*stage.Encoded) of a minibatch runs forward and
// backward on its own tape, the graphs fanned across cfg.Workers worker
// tapes, claimed largest first so a big graph never starts last. Each
// position's gradient part lands in its slot of one ag.PanelGrads, which
// folds them into Param.Grad through a tree fixed by the batch size alone;
// under MAE a duplicate copies the slot of a run in its ag.AbsCase (see
// runGroup). Evaluation runs one forward per distinct graph, and its
// per-sample losses fold through a fixed-shape tree. Every cfg.Workers
// setting and claim order therefore yields bitwise-identical weights, equal
// to one run per sample. A NaN or infinite minibatch loss panics before its
// optimizer step, naming the epoch and batch; a non-finite validation loss
// panics naming the epoch.
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
	trainSpan := cfg.Prof.Start("train")
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
	tapes := make(chan *ag.Context, min(workers, batchCap))
	for range cap(tapes) {
		tapes <- ag.NewContext()
	}
	grads := ag.NewPanelGrads(params, batchCap)
	lossVals := make([]float64, batchCap)
	evalLen := max(len(valIdx), len(trainIdx))
	evalVals := make([]float64, evalLen)
	// claim holds a fan-out's graph positions in the order workers take
	// them, next the later positions of each one's graph (see claimGraphs).
	claim := make([]int, max(batchCap, evalLen))
	next := make([]int, len(claim))

	// lossOf scores every sample by one forward of its distinct graph; the
	// losses fold through a tree whose shape depends on len(idx) alone.
	lossOf := func(idx []int) float64 {
		if len(idx) == 0 {
			return 0
		}
		es := trainSpan.Start("eval")
		vals := evalVals[:len(idx)]
		lead := claimGraphs(claim[:len(idx)], next, func(k int) *stage.Encoded { return ds.Samples[idx[k]].Encoded }, true)
		parallel.ForLimit(len(lead), cfg.Workers, func(j int) {
			k := lead[j]
			ctx := <-tapes
			ss := es.Start("sample")
			ctx.Reset()
			ctx.SetSpan(ss)
			pred := model.Predict(ctx, ds.Samples[idx[k]].Encoded).Value().Data[0]
			for ; k >= 0; k = next[k] {
				vals[k] = sampleLoss(pred, ds.Samples[idx[k]].Measured/scale, cfg.Loss)
			}
			ss.End()
			tapes <- ctx
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

	// runGraph runs graph k of the minibatch on tape ctx: forward, its loss
	// into lossVals[k], and backward into slot k of grads, and returns the
	// prediction. The loss is not mean-reduced: slot k holds the gradient of
	// graph k's own loss, Param.Grad their tree sum after grads.Fold, and the
	// 1/len(batch) mean is applied after (ScaleGrads below).
	runGraph := func(ctx *ag.Context, batch []int, k int, bs obs.Span) float64 {
		ctx.Reset()
		ctx.RouteGrads(grads, k)
		s := ds.Samples[batch[k]]
		// One span covers the graph's forward/backward; the model's layer
		// marks nest under it for forward timing, and BackwardVec hangs its
		// per-layer attribution subtree off the same node.
		ss := bs.Start("sample")
		ctx.SetSpan(ss)
		pred := model.Predict(ctx, s.Encoded)
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
		return pred.Value().Data[0]
	}

	// runGroup runs position k's graph on one worker tape, then settles the
	// graph's later positions (next; none under MSE, whose gradient depends
	// on the target). Under MAE the gradient reaching pred is ±1 or 0 by
	// pred − target's ag.AbsCase, so a position in a case already run copies
	// that slot, the bits its own backward would write.
	runGroup := func(batch []int, k int, bs obs.Span) {
		ctx := <-tapes
		pred := runGraph(ctx, batch, k, bs)
		ran := [3]int{-1, -1, -1} // the position run in each case, by case+1
		ran[ag.AbsCase(pred-ds.Samples[batch[k]].Measured/scale)+1] = k
		for m := next[k]; m >= 0; m = next[m] {
			target := ds.Samples[batch[m]].Measured / scale
			c := ag.AbsCase(pred-target) + 1
			if ran[c] < 0 {
				runGraph(ctx, batch, m, bs)
				ran[c] = m
				continue
			}
			lossVals[m] = sampleLoss(pred, target, MAE)
			grads.CopySlot(m, ran[c])
		}
		tapes <- ctx
	}

	order := append([]int{}, trainIdx...)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := optim.CosineDecay(baseLR, epoch, cfg.Epochs)
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
			lead := claimGraphs(claim[:len(batch)], next, func(k int) *stage.Encoded { return ds.Samples[batch[k]].Encoded }, cfg.Loss == MAE)
			parallel.ForLimit(len(lead), cfg.Workers, func(j int) { runGroup(batch, lead[j], bs) })
			// Per-sample losses fold through the same fixed-shape tree as the
			// gradient parts, so History is as deterministic as the weights.
			// A non-finite one (a NaN or infinite label, an overflow) would
			// reach every weight through the step: the run stops here.
			batchLoss := parallel.TreeReduce(lossVals[:len(batch)], func(a, b float64) float64 { return a + b })
			if math.IsNaN(batchLoss) || math.IsInf(batchLoss, 0) {
				panic(fmt.Sprintf("predictor: non-finite training loss %v at epoch %d, batch %d", batchLoss, epoch+1, numBatches+1))
			}
			st := bs.Start("step")
			grads.Fold(len(batch))
			optim.ScaleGrads(params, 1/float64(len(batch)))
			norm := optim.ClipGradNorm(params, clipNorm)
			opt.Step(lr)
			st.End()
			bs.End()
			cfg.Flight.Note("train", "batch")
			epochLoss += batchLoss
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
			if math.IsNaN(val) || math.IsInf(val, 0) {
				panic(fmt.Sprintf("predictor: non-finite validation loss %v at epoch %d", val, epoch+1))
			}
			stats.ValLoss = val
			if val < best {
				best = val
				res.BestEpoch = epoch + 1
				for i, p := range params {
					copy(bestParams[i].Data, p.V.Data)
				}
				bad = 0
			} else {
				bad++
				stopped = bad >= cfg.Patience
			}
			stats.BadEpochs = bad
		}
		stats.WallSeconds = time.Since(start).Seconds()
		res.History = append(res.History, stats)
		if cfg.Flight.Enabled() { // guard: the message is formatted only when live
			cfg.Flight.Note("train", "epoch "+strconv.Itoa(epoch+1)+" done")
		}
		if stopped {
			cfg.Flight.Note("train", "early stop")
			res.EarlyStopped = true
			break
		}
	}
	if useVal {
		for i, p := range params {
			copy(p.V.Data, bestParams[i].Data)
		}
		res.BestValLoss = best
	} else {
		res.BestValLoss = lossOf(trainIdx)
		res.BestEpoch = res.EpochsRun
	}
	res.WallSeconds = time.Since(start).Seconds()
	return Trained{Model: model, Scale: scale}, res
}

// claimGraphs fills claim with the positions 0..len(claim)-1 in descending
// node count, ties in position order, and returns its prefix of each distinct
// graph's first position: the order a fan-out's workers claim graphs in.
// Attention costs n², so a big graph claimed last would leave every other
// worker idle at the barrier. next[k] becomes the following position of k's
// graph, -1 after its last; with share false every position is its own
// graph. Each position still writes its own slot, so the order moves no
// result bit.
func claimGraphs(claim, next []int, graph func(k int) *stage.Encoded, share bool) []int {
	for k := range claim {
		claim[k] = k
	}
	slices.SortStableFunc(claim, func(a, b int) int { return graph(b).N() - graph(a).N() })
	last := make(map[*stage.Encoded]int, len(claim))
	lead := claim[:0]
	for _, k := range claim {
		next[k] = -1
		if j, ok := last[graph(k)]; ok && share {
			next[j] = k
		} else {
			lead = append(lead, k)
		}
		last[graph(k)] = k
	}
	return lead
}

// predictTapes recycles forward-only tapes across predictions; a tape goes
// back Reset. The pool is safe for concurrent use; results never depend on
// which pooled tape serves a call because every intermediate buffer is fully
// written before it is read. It is the daemon's and the evaluation's pool,
// apart from Train's worker tapes: sharing training arenas with the serving
// path costs the daemon its warm, small tapes.
var predictTapes = sync.Pool{New: func() any { return ag.NewContext() }}

// PredictEncoded returns the trained model's latency prediction in seconds
// for one encoded stage graph. Latency is a positive quantity, so the raw
// network output is floored at 1% of the label scale.
func (t Trained) PredictEncoded(e *stage.Encoded) float64 {
	ctx := predictTapes.Get().(*ag.Context)
	p := t.Model.Predict(ctx, e).Value().Data[0] * t.Scale
	ctx.Reset()
	predictTapes.Put(ctx)
	return max(p, 0.01*t.Scale)
}

// PredictEncodedBatch predicts a batch of encoded stage graphs, one
// PredictEncoded per distinct pointer fanned across workers (0 = GOMAXPROCS,
// 1 = serial) and claimed largest first, copied to every position holding
// it. Each out[i] depends on es[i] alone, so it is bitwise identical at any
// worker count. Evaluate drives it.
func (t Trained) PredictEncodedBatch(es []*stage.Encoded, workers int) []float64 {
	out := make([]float64, len(es))
	next := make([]int, len(es))
	lead := claimGraphs(make([]int, len(es)), next, func(k int) *stage.Encoded { return es[k] }, true)
	parallel.ForLimit(len(lead), workers, func(j int) {
		p := t.PredictEncoded(es[lead[j]])
		for k := lead[j]; k >= 0; k = next[k] {
			out[k] = p
		}
	})
	return out
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
