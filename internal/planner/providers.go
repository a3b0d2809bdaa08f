package planner

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"predtop/internal/cluster"
	"predtop/internal/graphnn"
	"predtop/internal/lru"
	"predtop/internal/models"
	"predtop/internal/obs"
	"predtop/internal/predictor"
	"predtop/internal/sim"
	"predtop/internal/stage"
)

// encCacheSize bounds the planner's stage-encoding LRU. Stage universes are
// O(segments × maxLen), far below this bound for the paper's models, so in
// practice nothing is evicted — the bound exists so a pathological workload
// (thousands of layers) degrades to recomputation instead of unbounded
// memory. Encoding is deterministic, so eviction never changes results.
const encCacheSize = 4096

// Meter accumulates the optimization-cost components of Fig 10a, all on the
// simulated platform clock: profiling (compile + transfer + timed runs),
// predictor training (per-graph-step GPU cost × steps), and prediction
// inference. RealSeconds additionally records the wall time this process
// spent training/inferring, which is not comparable to simulated seconds
// and is reported separately.
type Meter struct {
	ProfileSeconds float64
	TrainSeconds   float64
	InferSeconds   float64
	StagesProfiled int
	RealSeconds    float64
	// CacheHits/CacheMisses count memoized latency-source lookups: a miss
	// pays the full profile/predict cost, a hit is free. The ratio shows how
	// much the planner's repeated (stage, mesh) queries amortize.
	CacheHits   int
	CacheMisses int
	// EncHits/EncMisses count stage-encoding LRU lookups inside
	// TrainPredictorProvider (a miss re-runs the graph encoder), and
	// EncEntries is the cache's final population. All zero for
	// profiling-based providers, which never encode.
	EncHits    int
	EncMisses  int
	EncEntries int
}

// Total returns the end-to-end optimization cost in simulated seconds.
func (m *Meter) Total() float64 { return m.ProfileSeconds + m.TrainSeconds + m.InferSeconds }

// PublishMetrics exports the meter's counters as labeled predtop_planner_*
// series on reg, tagged with the latency-source version they belong to
// (e.g. "Alpa-Full", "PredTOP-Tran"). Cache traffic lands on
// predtop_planner_cache_hits_total / _misses_total with a cache label
// ("latency" for the memoized lookup table, "encoding" for the
// stage-encoding LRU), the encoding cache's population on
// predtop_planner_cache_entries, and the simulated cost components on
// predtop_planner_cost_seconds{component=...}. Counters add (a meter is
// published once per run); no-op on a nil registry or meter.
func (m *Meter) PublishMetrics(reg *obs.Registry, version string) {
	if m == nil || reg == nil {
		return
	}
	ver := obs.Label{Key: "version", Value: version}
	latency := obs.Label{Key: "cache", Value: "latency"}
	encoding := obs.Label{Key: "cache", Value: "encoding"}
	reg.CounterWith("predtop_planner_cache_hits_total", latency, ver).Add(int64(m.CacheHits))
	reg.CounterWith("predtop_planner_cache_misses_total", latency, ver).Add(int64(m.CacheMisses))
	reg.CounterWith("predtop_planner_cache_hits_total", encoding, ver).Add(int64(m.EncHits))
	reg.CounterWith("predtop_planner_cache_misses_total", encoding, ver).Add(int64(m.EncMisses))
	reg.GaugeWith("predtop_planner_cache_entries", encoding, ver).Set(float64(m.EncEntries))
	for _, c := range []struct {
		component string
		seconds   float64
	}{
		{"profile", m.ProfileSeconds},
		{"train", m.TrainSeconds},
		{"infer", m.InferSeconds},
	} {
		reg.GaugeWith("predtop_planner_cost_seconds",
			obs.Label{Key: "component", Value: c.component}, ver).Set(c.seconds)
	}
	reg.CounterWith("predtop_planner_stages_profiled_total", ver).Add(int64(m.StagesProfiled))
}

// Simulated per-graph costs of running the predictor on the platform's own
// hardware (the paper trains PredTOP on the same machines it profiles on):
// one training step and one inference pass over a stage DAG.
const (
	simTrainStepSeconds = 0.004
	simInferSeconds     = 0.002
)

// FullProfiling returns vanilla Alpa's latency source: every queried
// (stage, mesh) pair is intra-op-optimized, compiled, and profiled under
// every Table-III configuration, charging the full cost to meter.
func FullProfiling(mdl *models.Model, prof sim.Profiler, meter *Meter) LatencyFn {
	type key struct {
		lo, hi, mesh int
	}
	memo := map[key]float64{}
	return func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
		k := key{sp.Lo, sp.Hi, mesh.Index}
		if t, ok := memo[k]; ok {
			meter.CacheHits++
			return t, !math.IsInf(t, 1)
		}
		meter.CacheMisses++
		g := mdl.StageGraph(sp.Lo, sp.Hi, true)
		best := math.Inf(1)
		for _, conf := range cluster.ConfigsFor(mesh) {
			sc := cluster.Scenario{Mesh: mesh, Config: conf}
			trueLat, measured, ok := predictor.ProfileStage(mdl, sp, sc, prof)
			if !ok {
				continue
			}
			meter.ProfileSeconds += prof.ProfileCostSeconds(g, sim.NewExec(sc), trueLat)
			meter.StagesProfiled++
			if measured < best {
				best = measured
			}
		}
		memo[k] = best
		return best, !math.IsInf(best, 1)
	}
}

// PartialProfiling wraps full profiling with vanilla Alpa's pruning
// heuristic (§VII-D): skip stage–mesh pairs whose model-fraction to
// device-fraction ratio is imbalanced beyond alpha, profiling only the
// plausible ones.
func PartialProfiling(mdl *models.Model, prof sim.Profiler, meter *Meter, alpha float64) LatencyFn {
	if alpha <= 1 {
		alpha = 2.5
	}
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

// String implements fmt.Stringer.
func (k PredictorKind) String() string {
	switch k {
	case KindTransformer:
		return "PredTOP-Tran"
	case KindGCN:
		return "PredTOP-GCN"
	case KindGAT:
		return "PredTOP-GAT"
	}
	return "PredTOP-?"
}

// NewModel instantiates the architecture at the given sizes (zero-value
// configs use the paper's hyper-parameters).
func (k PredictorKind) NewModel(rng *rand.Rand, tran graphnn.TransformerConfig, gcn graphnn.GCNConfig, gat graphnn.GATConfig) graphnn.Model {
	switch k {
	case KindGCN:
		return graphnn.NewGCN(rng, gcn)
	case KindGAT:
		return graphnn.NewGAT(rng, gat)
	default:
		return graphnn.NewDAGTransformer(rng, tran)
	}
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
	for _, tr := range trs {
		fingerprintTrained(h, tr)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fingerprintTrained folds one trained predictor's identity into an FNV-1a
// hash: its output scale followed by every parameter tensor's raw float64
// bits, in the model's canonical Params order.
func fingerprintTrained(h interface{ Write([]byte) (int, error) }, tr predictor.Trained) {
	var buf [8]byte
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

// PredictorOptions configures PredTOP's profiling-sample/training trade-off.
type PredictorOptions struct {
	Kind PredictorKind
	// SampleFrac is the fraction of the stage universe profiled for
	// training data (§VI: "only selects a subset of stages").
	SampleFrac float64
	// MaxStageLen bounds the stage universe (must match planner Options).
	MaxStageLen int
	Train       predictor.TrainConfig
	Tran        graphnn.TransformerConfig
	GCN         graphnn.GCNConfig
	GAT         graphnn.GATConfig
	Seed        int64
	// Acc, when non-nil, receives every per-scenario validation residual
	// (predicted vs. noisy-profiled latency) keyed by predictor family and
	// mesh shape, so planner-side prediction quality is monitored online.
	// Observation only: estimates and plans are unchanged by it.
	Acc *obs.AccuracyMonitor
	// Info, when non-nil, is filled by TrainPredictorProvider with the
	// provenance of the trained predictors (kind, seed, weight fingerprint)
	// for inclusion in plan reports. Observation only.
	Info *ProviderInfo
	// PrefetchSweep, when set, pre-fills the provider's latency memo at
	// construction: one fused batched forward per (mesh, configuration)
	// sweeps every candidate stage up to MaxStageLen, instead of predicting
	// graph by graph as the planner's search asks. Amortization only — a
	// graph's prediction does not depend on the batch it rides in and the
	// per-stage best folds configurations in the same order as the lazy
	// path, so a prefetched provider answers every query with exactly the
	// bits the lazy one would (stages longer than MaxStageLen still fall
	// through to the lazy path). Off by default; the meter then charges the
	// whole sweep's inference up front rather than per query.
	PrefetchSweep bool
}

// TrainPredictorProvider implements PredTOP's workflow (§VI): profile a
// sampled subset of stages on every (mesh, configuration), train one
// predictor per (mesh, configuration), and answer planner queries with
// predictions (taking the best configuration per mesh, with an analytic
// memory-feasibility screen). Profiling, training, and inference costs are
// charged to meter.
func TrainPredictorProvider(mdl *models.Model, p cluster.Platform, opt PredictorOptions, prof sim.Profiler, meter *Meter) LatencyFn {
	if opt.SampleFrac == 0 {
		opt.SampleFrac = 0.15
	}
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	universe := stage.AllSpecs(mdl.NumSegments(), opt.MaxStageLen)
	count := int(float64(len(universe))*opt.SampleFrac + 0.5)
	if count < 8 {
		count = 8
	}
	specs := stage.SampleSpecs(rng, mdl.NumSegments(), count, opt.MaxStageLen)
	enc := predictor.NewEncoder(mdl, true)

	type scKey struct{ mesh, conf int }
	trained := map[scKey]predictor.Trained{}
	for _, sc := range cluster.Scenarios(p) {
		ds := predictor.BuildDataset(enc, specs, sc, prof)
		// Charge the profiling cost of the training sample.
		for _, s := range ds.Samples {
			g := mdl.StageGraph(s.Spec.Lo, s.Spec.Hi, true)
			meter.ProfileSeconds += prof.ProfileCostSeconds(g, sim.NewExec(sc), s.True)
			meter.StagesProfiled++
		}
		if len(ds.Samples) < 4 {
			continue
		}
		trainIdx, valIdx, _ := stage.Split(rng, len(ds.Samples), 0.85, 0.15)
		cfg := opt.Train
		cfg.Seed = opt.Seed + int64(sc.Mesh.Index*10+sc.Config.Index)
		model := opt.Kind.NewModel(rand.New(rand.NewSource(cfg.Seed)), opt.Tran, opt.GCN, opt.GAT)
		tr, res := predictor.Train(model, ds, trainIdx, valIdx, cfg)
		meter.TrainSeconds += float64(res.EpochsRun*len(trainIdx)) * simTrainStepSeconds
		meter.RealSeconds += res.WallSeconds
		trained[scKey{sc.Mesh.Index, sc.Config.Index}] = tr
		if opt.Acc != nil {
			key := obs.AccuracyKey{
				Family: opt.Kind.String(),
				Mesh:   fmt.Sprintf("%dx%d", sc.Mesh.Nodes, sc.Mesh.GPUsPerNode),
			}
			encs := make([]*stage.Encoded, len(valIdx))
			for k, i := range valIdx {
				encs[k] = ds.Samples[i].Encoded
			}
			for k, pred := range tr.PredictEncodedBatch(encs, 0) {
				opt.Acc.Observe(key, pred, ds.Samples[valIdx[k]].Measured)
			}
		}
	}

	if opt.Info != nil {
		// Fingerprint the trained weights in cluster.Scenarios order (the
		// map's own iteration order is randomized) so equal training runs
		// yield equal fingerprints.
		h := fnv.New64a()
		for _, sc := range cluster.Scenarios(p) {
			if tr, ok := trained[scKey{sc.Mesh.Index, sc.Config.Index}]; ok {
				fingerprintTrained(h, tr)
			}
		}
		*opt.Info = ProviderInfo{
			Source:      opt.Kind.String(),
			Kind:        opt.Kind.String(),
			Seed:        opt.Seed,
			Fingerprint: fmt.Sprintf("%016x", h.Sum64()),
			Predictors:  len(trained),
			SampleFrac:  opt.SampleFrac,
		}
	}

	type pairKey struct{ lo, hi, mesh int }
	memo := map[pairKey]float64{}
	// Stage encodings depend only on the spec, not the mesh or config, so
	// they are computed once per spec instead of once per (mesh, config)
	// query inside the configuration loop. The bounded LRU is the same
	// implementation the serving daemon memoizes latencies with.
	encCache := lru.New[stage.Spec, *stage.Encoded](encCacheSize)
	if opt.PrefetchSweep {
		start := time.Now()
		sweep := stage.AllSpecs(mdl.NumSegments(), opt.MaxStageLen)
		encs := make([]*stage.Encoded, len(sweep))
		for i, sp := range sweep {
			e, cached := encCache.GetOrCompute(sp, func() *stage.Encoded { return enc.Encode(sp) })
			if cached {
				meter.EncHits++
			} else {
				meter.EncMisses++
			}
			encs[i] = e
		}
		meter.EncEntries = encCache.Len()
		for _, mesh := range cluster.Meshes(p) {
			best := make([]float64, len(sweep))
			for i := range best {
				best[i] = math.Inf(1)
			}
			for _, conf := range cluster.ConfigsFor(mesh) {
				tr, ok := trained[scKey{mesh.Index, conf.Index}]
				if !ok {
					continue
				}
				ex := sim.NewExec(cluster.Scenario{Mesh: mesh, Config: conf})
				var idx []int
				var group []*stage.Encoded
				for i, sp := range sweep {
					if ex.FitsMemory(mdl.StageGraph(sp.Lo, sp.Hi, true)) {
						idx = append(idx, i)
						group = append(group, encs[i])
					}
				}
				// One fused batched forward per (mesh, configuration); the
				// per-stage fold visits configurations in ConfigsFor order,
				// exactly like the lazy query below.
				preds := tr.PredictEncodedBatch(group, 0)
				for k, i := range idx {
					if preds[k] < best[i] {
						best[i] = preds[k]
					}
					meter.InferSeconds += simInferSeconds
				}
			}
			for i, sp := range sweep {
				memo[pairKey{sp.Lo, sp.Hi, mesh.Index}] = best[i]
			}
		}
		meter.RealSeconds += time.Since(start).Seconds()
	}
	return func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
		k := pairKey{sp.Lo, sp.Hi, mesh.Index}
		if t, ok := memo[k]; ok {
			meter.CacheHits++
			return t, !math.IsInf(t, 1)
		}
		meter.CacheMisses++
		start := time.Now()
		g := mdl.StageGraph(sp.Lo, sp.Hi, true)
		encoded, cached := encCache.GetOrCompute(sp, func() *stage.Encoded { return enc.Encode(sp) })
		if cached {
			meter.EncHits++
		} else {
			meter.EncMisses++
		}
		meter.EncEntries = encCache.Len()
		best := math.Inf(1)
		for _, conf := range cluster.ConfigsFor(mesh) {
			tr, ok := trained[scKey{mesh.Index, conf.Index}]
			if !ok {
				continue
			}
			sc := cluster.Scenario{Mesh: mesh, Config: conf}
			if !sim.NewExec(sc).FitsMemory(g) {
				continue
			}
			if pred := tr.PredictEncoded(encoded); pred < best {
				best = pred
			}
			meter.InferSeconds += simInferSeconds
		}
		meter.RealSeconds += time.Since(start).Seconds()
		memo[k] = best
		return best, !math.IsInf(best, 1)
	}
}

// TrueLatency returns the oracle latency source (simulator-exact optimal
// stage latencies, no noise, no cost) — useful for tests and upper-bound
// comparisons.
func TrueLatency(mdl *models.Model) LatencyFn {
	type key struct{ lo, hi, mesh int }
	memo := map[key]float64{}
	return func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
		k := key{sp.Lo, sp.Hi, mesh.Index}
		if t, ok := memo[k]; ok {
			return t, !math.IsInf(t, 1)
		}
		t, ok := TrueStageLatency(mdl, sp, mesh)
		if !ok {
			t = math.Inf(1)
		}
		memo[k] = t
		return t, ok
	}
}
