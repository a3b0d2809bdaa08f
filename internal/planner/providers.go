package planner

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"predtop/internal/cluster"
	"predtop/internal/graphnn"
	"predtop/internal/models"
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
	// CacheHits/CacheMisses count the latency source's memoized lookups: a
	// miss pays the full profile/predict cost, a hit is free. Optimize asks
	// for every (stage, mesh) pair once, so hits only appear when a caller
	// reuses one source across searches.
	CacheHits   int
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

// memoized turns compute — a latency source's uncached answer for one
// (stage, mesh) pair, +Inf when the pair is unusable — into a LatencyFn that
// asks it once per pair and counts the traffic on meter. It is the one memo
// table and the one place CacheHits/CacheMisses move.
func memoized(meter *Meter, compute func(sp stage.Spec, mesh cluster.Mesh) float64) LatencyFn {
	type key struct{ lo, hi, mesh int }
	memo := map[key]float64{}
	return func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
		k := key{sp.Lo, sp.Hi, mesh.Index}
		t, ok := memo[k]
		if ok {
			meter.CacheHits++
		} else {
			meter.CacheMisses++
			t = compute(sp, mesh)
			memo[k] = t
		}
		return t, !math.IsInf(t, 1)
	}
}

// FullProfiling returns vanilla Alpa's latency source: every queried
// (stage, mesh) pair is intra-op-optimized, compiled, and profiled under
// every Table-III configuration, charging the full cost to meter. The
// simulated platform pays for every pair; the simulator itself labels each
// stage class once per configuration, the mesh's configurations
// concurrently (predictor.Labeler.MeshLabels), and the meter is charged
// serially in configuration order.
func FullProfiling(mdl *models.Model, prof sim.Profiler, meter *Meter) LatencyFn {
	lab := predictor.NewLabeler(mdl, prof)
	return memoized(meter, func(sp stage.Spec, mesh cluster.Mesh) float64 {
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
		return best
	})
}

// PartialProfiling wraps full profiling with vanilla Alpa's pruning
// heuristic (§VII-D): skip stage–mesh pairs whose model-fraction to
// device-fraction ratio is imbalanced beyond alpha, profiling only the
// plausible ones. alpha must exceed 1 (the presets use 1.6).
func PartialProfiling(mdl *models.Model, prof sim.Profiler, meter *Meter, alpha float64) LatencyFn {
	full := FullProfiling(mdl, prof, meter)
	numSegments := float64(mdl.NumSegments())
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
	// MaxStageLen bounds the stage universe (must match planner Options).
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
// sampled subset of stages on every (mesh, configuration), train one
// predictor per (mesh, configuration), and answer planner queries with
// predictions as the search asks for them (taking the best configuration per
// mesh, with an analytic memory-feasibility screen). Profiling, training, and
// inference costs are charged to meter. The per-scenario trainings run
// concurrently across GOMAXPROCS; weights, meter and answers are bitwise the
// same at any GOMAXPROCS.
func TrainPredictorProvider(mdl *models.Model, p cluster.Platform, opt PredictorOptions, prof sim.Profiler, meter *Meter) LatencyFn {
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	universe := stage.AllSpecs(mdl.NumSegments(), opt.MaxStageLen)
	count := int(float64(len(universe))*opt.SampleFrac + 0.5)
	if count < 8 {
		count = 8
	}
	specs := stage.SampleSpecs(rng, mdl.NumSegments(), count, opt.MaxStageLen)
	enc := predictor.NewEncoder(mdl, true)
	lab := predictor.NewLabeler(mdl, prof)

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
	for _, sc := range cluster.Scenarios(p) {
		ds := lab.Dataset(enc, specs, sc)
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

	type scKey struct{ mesh, conf int }
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

	// The memory screen and the forward depend only on the stage class, so
	// each (class, mesh) is answered once; every spec of the class still
	// charges one inference per configuration that passed the screen.
	type answerKey struct {
		class models.StageClass
		mesh  int
	}
	type answer struct {
		best  float64
		infer int
	}
	answers := map[answerKey]answer{}
	return memoized(meter, func(sp stage.Spec, mesh cluster.Mesh) float64 {
		k := answerKey{mdl.StageClass(sp.Lo, sp.Hi), mesh.Index}
		a, ok := answers[k]
		if !ok {
			g := lab.TrainingGraph(sp)
			encoded := enc.Encode(sp)
			a.best = math.Inf(1)
			for _, conf := range cluster.ConfigsFor(mesh) {
				tr, ok := trained[scKey{mesh.Index, conf.Index}]
				if !ok {
					continue
				}
				if !sim.NewExec(cluster.Scenario{Mesh: mesh, Config: conf}).FitsMemory(g) {
					continue
				}
				if pred := tr.PredictEncoded(encoded); pred < a.best {
					a.best = pred
				}
				a.infer++
			}
			answers[k] = a
		}
		for range a.infer {
			meter.InferSeconds += simInferSeconds
		}
		return a.best
	})
}
