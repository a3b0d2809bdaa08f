package planner

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"time"

	"predtop/internal/cluster"
	"predtop/internal/graphnn"
	"predtop/internal/ir"
	"predtop/internal/models"
	"predtop/internal/obs"
	"predtop/internal/parallel"
	"predtop/internal/predictor"
	"predtop/internal/sim"
	"predtop/internal/stage"
)

// Meter accumulates the optimization-cost components of Fig 10a, all on the
// simulated platform clock: profiling (compile + transfer + timed runs),
// predictor training (per-graph-step GPU cost × steps), and prediction
// inference.
type Meter struct {
	ProfileSeconds float64
	TrainSeconds   float64
	InferSeconds   float64
	StagesProfiled int
	// CacheMisses counts the lookups a source answered, each at its full
	// profile or predict cost; PartialProfiling's pruned pairs are not
	// answered. Optimize asks for every (stage, mesh) pair once. The field
	// keeps its name because the benchmark harness reads it.
	CacheMisses int
}

// Total returns the end-to-end optimization cost in simulated seconds.
func (m *Meter) Total() float64 { return m.ProfileSeconds + m.TrainSeconds + m.InferSeconds }

// Simulated per-graph costs of running the predictor on the platform's own
// hardware (the paper trains PredTOP on the same machines it profiles on):
// one training step and one inference pass over a stage DAG.
const (
	simTrainStepSeconds = 0.004
	simInferSeconds     = 0.002
)

// FullProfiling returns vanilla Alpa's latency source: every query of a
// (stage, mesh) pair is intra-op-optimized, compiled, and profiled under
// every Table-III configuration, charging the full cost to meter. The
// simulated platform pays for every pair; the simulator itself labels each
// stage class once per configuration in the caller's lab, which the run's
// other sources share (Labeler.MeshLabels: the mesh's configurations
// concurrently), and the meter is charged serially in configuration order.
func FullProfiling(lab *predictor.Labeler, meter *Meter) LatencyFn {
	return func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
		meter.CacheMisses++
		best := math.Inf(1)
		for _, l := range lab.MeshLabels(sp, mesh) {
			if !l.OK {
				continue
			}
			meter.ProfileSeconds += l.Cost
			meter.StagesProfiled++
			if l.Measured < best {
				best = l.Measured
			}
		}
		return best, !math.IsInf(best, 1)
	}
}

// PartialProfiling wraps full profiling through lab with vanilla Alpa's
// pruning heuristic (§VII-D): skip stage–mesh pairs whose model-fraction to
// device-fraction ratio is imbalanced beyond alpha, profiling only the
// plausible ones. alpha must exceed 1 (Fig 10 uses 1.6).
func PartialProfiling(lab *predictor.Labeler, meter *Meter, alpha float64) LatencyFn {
	full := FullProfiling(lab, meter)
	numSegments := float64(lab.Model().NumSegments())
	return func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
		totalDev := float64(mesh.Platform.Nodes * mesh.Platform.GPUsPerNode)
		stageFrac := float64(sp.Len()) / numSegments
		devFrac := float64(mesh.NumDevices()) / totalDev
		ratio := stageFrac / devFrac
		if ratio > alpha || ratio < 1/(2*alpha*alpha) {
			return 0, false
		}
		return full(sp, mesh)
	}
}

// PredictorKind selects which black-box architecture PredTOP uses.
type PredictorKind uint8

// Predictor architectures (Fig 10's five versions include these three).
const (
	KindTransformer PredictorKind = iota
	KindGCN
	KindGAT
)

// kindArch maps each kind to its graphnn architecture name — the one place
// the planner's version names ("PredTOP-" + arch) are tied to the
// architectures graphnn.ModelSpec.Build knows.
var kindArch = [...]string{KindTransformer: "Tran", KindGCN: "GCN", KindGAT: "GAT"}

// String implements fmt.Stringer: the Fig-10 version name.
func (k PredictorKind) String() string {
	if int(k) >= len(kindArch) {
		return "PredTOP-?"
	}
	return "PredTOP-" + kindArch[k]
}

// ProviderInfo identifies the latency source a plan came from — the
// provenance block of a plan report. For predictor-backed sources the
// Fingerprint pins the exact trained weights (FNV-1a over every parameter
// tensor plus the scale, in cluster.Scenarios order), so two reports with
// equal fingerprints were produced by bitwise-identical predictors.
type ProviderInfo struct {
	// Source names the latency source ("Alpa-Full", "Alpa-Partial", or a
	// PredictorKind string for PredTOP versions).
	Source string `json:"source"`
	// Kind is the predictor architecture ("PredTOP-Tran", ...); empty for
	// profiling-based sources.
	Kind string `json:"kind,omitempty"`
	// Seed is the predictor training seed (omitted for profiling sources).
	Seed int64 `json:"seed,omitempty"`
	// Fingerprint is the 16-hex-digit weight hash described above.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Predictors counts the per-(mesh, configuration) models trained.
	Predictors int `json:"predictors,omitempty"`
	// SampleFrac is the fraction of the stage universe profiled for
	// training data.
	SampleFrac float64 `json:"sample_frac,omitempty"`
}

// WeightFingerprint hashes trained predictors into the 16-hex-digit FNV-1a
// weight fingerprint that ProviderInfo carries: per predictor, the output
// scale followed by every parameter tensor's name and raw float64 bits, in
// the model's canonical Params order. Callers pass predictors in a fixed
// order (e.g. cluster.Scenarios order) so equal weights hash equally. The
// run ledger stamps this same fingerprint into manifests, making "did these
// two runs train the same weights" a string comparison.
func WeightFingerprint(trs ...predictor.Trained) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, tr := range trs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(tr.Scale))
		h.Write(buf[:])
		for _, p := range tr.Model.Params() {
			h.Write([]byte(p.Name))
			for _, v := range p.V.Data {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// PredictorOptions configures PredTOP's profiling-sample/training trade-off.
type PredictorOptions struct {
	Kind PredictorKind
	// SampleFrac is the fraction of the stage universe profiled for
	// training data (§VI: "only selects a subset of stages"), in (0, 1]; it
	// has no default. The sample is never smaller than 8 stages.
	SampleFrac float64
	// MaxStageLen bounds the stage universe, whose every (stage, mesh)
	// answer is predicted before the search starts; it should match the
	// planner's Options.MaxStageLen. A larger cap runs forwards the search
	// never asks for, a smaller one leaves the longer stages to be predicted
	// one lookup at a time.
	MaxStageLen int
	// Train configures each per-scenario training; its Seed is overridden
	// per scenario. The trainings run concurrently and share Train.Prof and
	// Train.Flight, which are safe for that.
	Train predictor.TrainConfig
	Tran  graphnn.TransformerConfig
	GCN   graphnn.GCNConfig
	GAT   graphnn.GATConfig
	Seed  int64
	// Info, when non-nil, is filled by TrainPredictorProvider with the
	// provenance of the trained predictors (kind, seed, weight fingerprint)
	// for inclusion in plan reports. Observation only.
	Info *ProviderInfo
}

// TrainPredictorProvider implements PredTOP's workflow (§VI): profile a
// sampled subset of stages on every (mesh, configuration) through the run's
// lab, train one predictor per (mesh, configuration), then predict, through
// the run's pruned enc, the answer to every query the search can ask — each
// stage of the universe on each mesh, the best configuration behind an
// analytic memory-feasibility screen — before returning (see
// predictedLatency). Profiling, training, and inference costs are charged to
// meter, an inference per lookup as the search asks. The per-scenario
// trainings and the forwards run concurrently across GOMAXPROCS; weights,
// meter and answers are bitwise the same at any GOMAXPROCS.
func TrainPredictorProvider(lab *predictor.Labeler, enc *predictor.Encoder, p cluster.Platform, opt PredictorOptions, meter *Meter) LatencyFn {
	mdl := lab.Model()
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	universe := stage.AllSpecs(mdl.NumSegments(), opt.MaxStageLen)
	count := int(float64(len(universe))*opt.SampleFrac + 0.5)
	if count < 8 {
		count = 8
	}
	specs := stage.SampleSpecs(rng, mdl.NumSegments(), count, opt.MaxStageLen)

	// Labeling and the split draws happen serially in cluster.Scenarios
	// order (the Labeler is not safe for concurrent use, and the one rng must
	// be consumed in scenario order, never in completion order); only the
	// independent trainings fan out, each into its own job slot.
	type job struct {
		sc       cluster.Scenario
		ds       *predictor.Dataset
		trainIdx []int
		valIdx   []int
		cfg      predictor.TrainConfig
		model    graphnn.Model
		tr       predictor.Trained
		res      predictor.TrainResult
	}
	var jobs []job
	scenarios := cluster.Scenarios(p)
	for si, ds := range lab.Datasets(enc, specs, scenarios) {
		sc := scenarios[si]
		for _, s := range ds.Samples {
			meter.ProfileSeconds += s.ProfileCost
		}
		meter.StagesProfiled += len(ds.Samples)
		if len(ds.Samples) < 4 {
			continue
		}
		trainIdx, valIdx, _ := stage.Split(rng, len(ds.Samples), 0.85, 0.15)
		cfg := opt.Train
		cfg.Seed = opt.Seed + int64(sc.Mesh.Index*10+sc.Config.Index)
		spec := graphnn.ModelSpec{Arch: kindArch[opt.Kind], Tran: opt.Tran, GCN: opt.GCN, GAT: opt.GAT}
		model, err := spec.Build(rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			panic("planner: " + err.Error()) // an out-of-range Kind is a caller bug
		}
		jobs = append(jobs, job{sc: sc, ds: ds, trainIdx: trainIdx, valIdx: valIdx, cfg: cfg, model: model})
	}
	parallel.For(len(jobs), func(i int) {
		j := &jobs[i]
		j.tr, j.res = predictor.Train(j.model, j.ds, j.trainIdx, j.valIdx, j.cfg)
	})

	trained := map[scKey]predictor.Trained{}
	// inOrder holds the same predictors in cluster.Scenarios order for the
	// weight fingerprint: the map's own iteration order is randomized. The
	// training cost is folded in that order too, as float addition is
	// order-sensitive.
	var inOrder []predictor.Trained
	for _, j := range jobs {
		meter.TrainSeconds += float64(j.res.EpochsRun*len(j.trainIdx)) * simTrainStepSeconds
		trained[scKey{j.sc.Mesh.Index, j.sc.Config.Index}] = j.tr
		inOrder = append(inOrder, j.tr)
	}

	if opt.Info != nil {
		*opt.Info = ProviderInfo{
			Source:      opt.Kind.String(),
			Kind:        opt.Kind.String(),
			Seed:        opt.Seed,
			Fingerprint: WeightFingerprint(inOrder...),
			Predictors:  len(trained),
			SampleFrac:  opt.SampleFrac,
		}
	}

	return predictedLatency(cluster.Meshes(p), universe, trained, lab, enc, opt.Train.Prof, meter)
}

// scKey names one scenario's trained predictor by its mesh and configuration
// indices.
type scKey struct{ mesh, conf int }

// predictedLatency answers lookups from the predictors in trained, keyed by
// scenario: a (spec, mesh) pair's latency is the least prediction over the
// mesh's configurations whose predictor exists and whose memory screen on
// the spec's training graph passes. The screen and the forward depend only on
// the stage class, so the answers are a table of (class, mesh), filled for
// every pair of universe × meshes before it returns: the search asks for
// exactly those. Every lookup still charges one inference per configuration
// that passed the screen. prof receives one planner.answers span per fill,
// its predict child counting the forwards.
func predictedLatency(meshes []cluster.Mesh, universe []stage.Spec, trained map[scKey]predictor.Trained,
	lab *predictor.Labeler, enc *predictor.Encoder, prof *obs.Profiler, meter *Meter) LatencyFn {
	mdl := lab.Model()
	type answerKey struct {
		class models.StageClass
		mesh  int
	}
	type answer struct {
		best  float64
		infer int
	}
	answers := map[answerKey]answer{}
	// fill answers every (class of specs, mesh of ms) pair the table lacks.
	// The training graphs of the memory screen are built serially (the
	// Labeler is not safe for concurrent use), the encodings one class per
	// worker, and the forwards fan out largest first, each into its own
	// slot. Each pair then folds its configurations in cluster.ConfigsFor
	// order, so no answer depends on the schedule.
	fill := func(specs []stage.Spec, ms []cluster.Mesh) {
		span := prof.Start("planner.answers")
		defer span.End()
		type class struct {
			sp  stage.Spec
			enc *stage.Encoded
		}
		type pair struct {
			key        answerKey
			start, end int // its forwards, items[start:end]
		}
		type forward struct {
			class int
			tr    predictor.Trained
			pred  float64
		}
		var classes []class
		var pairs []pair
		var items []forward
		seen := map[models.StageClass]bool{}
		for _, sp := range specs {
			c := mdl.StageClass(sp.Lo, sp.Hi)
			if seen[c] {
				continue
			}
			seen[c] = true
			var g *ir.Graph
			for _, mesh := range ms {
				k := answerKey{c, mesh.Index}
				if _, ok := answers[k]; ok {
					continue
				}
				if g == nil {
					g = lab.TrainingGraph(sp)
					classes = append(classes, class{sp: sp})
				}
				pr := pair{key: k, start: len(items)}
				for _, conf := range cluster.ConfigsFor(mesh) {
					tr, ok := trained[scKey{mesh.Index, conf.Index}]
					if ok && sim.NewExec(cluster.Scenario{Mesh: mesh, Config: conf}).FitsMemory(g) {
						items = append(items, forward{class: len(classes) - 1, tr: tr})
					}
				}
				pr.end = len(items)
				pairs = append(pairs, pr)
			}
		}
		parallel.For(len(classes), func(i int) { classes[i].enc = enc.Encode(classes[i].sp) })

		order := make([]int, len(items))
		for i := range order {
			order[i] = i
		}
		size := func(i int) int { return classes[items[i].class].enc.N() }
		slices.SortStableFunc(order, func(a, b int) int { return size(b) - size(a) })
		var began time.Time
		if span.Enabled() {
			began = time.Now()
		}
		parallel.For(len(order), func(i int) {
			it := &items[order[i]]
			it.pred = it.tr.PredictEncoded(classes[it.class].enc)
		})
		if span.Enabled() {
			span.Record("predict", time.Since(began), int64(len(items)))
		}

		for _, pr := range pairs {
			a := answer{best: math.Inf(1), infer: pr.end - pr.start}
			for _, it := range items[pr.start:pr.end] {
				if it.pred < a.best {
					a.best = it.pred
				}
			}
			answers[pr.key] = a
		}
	}
	fill(universe, meshes)

	// A lookup outside universe × meshes answers its own pair through the
	// same fill.
	return func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
		meter.CacheMisses++
		k := answerKey{mdl.StageClass(sp.Lo, sp.Hi), mesh.Index}
		a, ok := answers[k]
		if !ok {
			fill([]stage.Spec{sp}, []cluster.Mesh{mesh})
			a = answers[k]
		}
		for range a.infer {
			meter.InferSeconds += simInferSeconds
		}
		return a.best, !math.IsInf(a.best, 1)
	}
}
