// Package predtop is a from-scratch Go reproduction of "PredTOP: Latency
// Predictor Utilizing DAG Transformers for Distributed Deep Learning
// Training with Operator Parallelism" (Acharya & Shu, IPPS 2025).
//
// PredTOP predicts the iteration latency of distributed deep-learning
// training under hybrid parallelism with a grey-box model: a black-box DAG
// Transformer predicts the optimal intra-stage latency of each pipeline
// stage on each device mesh, and a white-box closed form (Eqn 4) composes
// stage latencies into the end-to-end pipeline latency.
//
// This package is the public facade over the implementation packages:
//
//   - Benchmark models (GPT-3 1.3B, GShard-MoE 2.6B) as tensor-level
//     operator graphs with forward and backward passes ([BuildModel],
//     [GPT3Config], [MoEConfig])
//   - The simulated experimental platforms of the paper ([Platform1],
//     [Platform2]) with meshes and Table-III parallelism configurations
//   - Stage graph encoding: pruning, Table-I features, DAGRA reachability
//     masks and DAGPE depths ([NewEncoder])
//   - The Alpa-style intra-operator optimizer producing ground-truth
//     optimal stage latencies ([ProfileStage])
//   - Three trainable predictors — DAG Transformer, GCN, GAT — with the
//     paper's training recipe ([NewDAGTransformer], [Train])
//   - The white-box pipeline model ([PipelineLatency], [SimulatePipeline])
//   - The inter-stage parallelization planner with profiled or predicted
//     latency sources ([OptimizePlan], [TrainPredictorProvider])
//
// A minimal end-to-end flow:
//
//	model := predtop.BuildModel(predtop.GPT3Config())
//	platform := predtop.Platform2()
//	scenario := predtop.Scenarios(platform)[0]
//
//	enc := predtop.NewEncoder(model, true)
//	specs := predtop.SampleStages(model, rng, 60, 3)
//	ds := predtop.BuildDataset(enc, specs, scenario, predtop.DefaultProfiler())
//
//	train, val, test := predtop.Split(rng, len(ds.Samples), 0.5, 0.1)
//	net := predtop.NewDAGTransformer(rng, predtop.TransformerConfig{})
//	trained, _ := predtop.Train(net, ds, train, val, predtop.TrainConfig{})
//	fmt.Printf("test MRE: %.2f%%\n", trained.MRE(ds, test))
package predtop

import (
	"context"
	"math/rand"

	"predtop/internal/cluster"
	"predtop/internal/graphnn"
	"predtop/internal/models"
	"predtop/internal/pipeline"
	"predtop/internal/planner"
	"predtop/internal/predictor"
	"predtop/internal/serve"
	"predtop/internal/sim"
	"predtop/internal/stage"
)

// Model-building API.
type (
	// ModelConfig describes a benchmark model (Table IV).
	ModelConfig = models.Config
	// Model is a benchmark model sliceable into pipeline stages.
	Model = models.Model
)

// GPT3Config returns the GPT-3 1.3B configuration of Table IV.
func GPT3Config() ModelConfig { return models.GPT3() }

// MoEConfig returns the GShard-MoE 2.6B configuration of Table IV.
func MoEConfig() ModelConfig { return models.MoE() }

// BuildModel constructs the segment list for cfg.
func BuildModel(cfg ModelConfig) *Model { return models.Build(cfg) }

// Cluster API.
type (
	// Platform is one of the paper's experimental environments.
	Platform = cluster.Platform
	// Mesh is a rectangular device slice of a platform (Table II).
	Mesh = cluster.Mesh
	// ParallelConfig is a Table-III intra-operator parallelism setting.
	ParallelConfig = cluster.ParallelConfig
	// Scenario is a (mesh, configuration) runtime pair.
	Scenario = cluster.Scenario
)

// Platform1 returns the 1-node × 2-A40 platform.
func Platform1() Platform { return cluster.Platform1() }

// Platform2 returns the 2-node × 2-A5500 platform.
func Platform2() Platform { return cluster.Platform2() }

// Scenarios enumerates every (mesh, configuration) pair of a platform.
func Scenarios(p Platform) []Scenario { return cluster.Scenarios(p) }

// Stage and dataset API.
type (
	// StageSpec is a contiguous segment range forming a pipeline stage.
	StageSpec = stage.Spec
	// Encoder caches encoded stage graphs (pruned, Table-I features).
	Encoder = predictor.Encoder
	// Dataset pairs encoded stages with profiled latencies.
	Dataset = predictor.Dataset
	// Sample is one (stage graph, profiled latency) example.
	Sample = predictor.Sample
	// Profiler models stage profiling noise and cost.
	Profiler = sim.Profiler
)

// NewEncoder returns a stage encoder for m (prune per paper §IV-B4).
func NewEncoder(m *Model, prune bool) *Encoder { return predictor.NewEncoder(m, prune) }

// SampleStages draws count distinct stages of ≤ maxLen segments.
func SampleStages(m *Model, rng *rand.Rand, count, maxLen int) []StageSpec {
	return predictor.CollectStages(m, rng, count, maxLen)
}

// AllStages enumerates the whole stage universe of ≤ maxLen segments.
func AllStages(m *Model, maxLen int) []StageSpec {
	return stage.AllSpecs(m.NumSegments(), maxLen)
}

// DefaultProfiler mirrors typical profiling practice (±0.8% noise, 2+5 runs).
func DefaultProfiler() Profiler { return sim.DefaultProfiler() }

// ProfileStage returns the simulator's optimal intra-stage training latency
// and a noisy profiled measurement under the scenario, labeled through a
// fresh label cache.
func ProfileStage(m *Model, sp StageSpec, sc Scenario, prof Profiler) (trueLat, measured float64, ok bool) {
	return predictor.ProfileStage(m, sp, sc, prof)
}

// BuildDataset profiles every feasible spec under sc.
func BuildDataset(enc *Encoder, specs []StageSpec, sc Scenario, prof Profiler) *Dataset {
	return predictor.BuildDataset(enc, specs, sc, prof)
}

// Split partitions [0, n) into train/validation/test index sets.
func Split(rng *rand.Rand, n int, trainFrac, valFrac float64) (train, val, test []int) {
	return stage.Split(rng, n, trainFrac, valFrac)
}

// Predictor API.
type (
	// PredictorModel is a trainable stage-latency predictor.
	PredictorModel = graphnn.Model
	// TransformerConfig configures the DAG Transformer (§IV-B6 defaults).
	TransformerConfig = graphnn.TransformerConfig
	// GCNConfig configures the GCN baseline.
	GCNConfig = graphnn.GCNConfig
	// GATConfig configures the GAT baseline.
	GATConfig = graphnn.GATConfig
	// TrainConfig carries the training recipe (§IV-B6/B8 defaults).
	TrainConfig = predictor.TrainConfig
	// TrainResult reports a completed training run.
	TrainResult = predictor.TrainResult
	// EpochStats is one epoch of a training run, as recorded in
	// TrainResult.History.
	EpochStats = predictor.EpochStats
	// Trained is a fitted predictor ready for inference.
	Trained = predictor.Trained
)

// NewDAGTransformer builds the paper's DAG Transformer predictor.
func NewDAGTransformer(rng *rand.Rand, cfg TransformerConfig) PredictorModel {
	return graphnn.NewDAGTransformer(rng, cfg)
}

// NewGCN builds the GCN baseline predictor.
func NewGCN(rng *rand.Rand, cfg GCNConfig) PredictorModel { return graphnn.NewGCN(rng, cfg) }

// NewGAT builds the GAT baseline predictor.
func NewGAT(rng *rand.Rand, cfg GATConfig) PredictorModel { return graphnn.NewGAT(rng, cfg) }

// Train fits a predictor with MAE loss, Adam, cosine decay, and early
// stopping, restoring the best-validation weights.
func Train(m PredictorModel, ds *Dataset, trainIdx, valIdx []int, cfg TrainConfig) (Trained, TrainResult) {
	return predictor.Train(m, ds, trainIdx, valIdx, cfg)
}

// SaveTrained writes a trained predictor (architecture spec, label scale,
// and weights) to path.
func SaveTrained(path string, t Trained) error { return predictor.SaveFile(path, t) }

// LoadTrained reads a predictor saved by SaveTrained.
func LoadTrained(path string) (Trained, error) { return predictor.LoadFile(path) }

// WeightFingerprint returns the 16-hex FNV-1a fingerprint of the trained
// predictors' weights — the same scheme plan provenance reports and
// run-ledger manifests carry, so a model file, a plan, and a recorded run can
// be matched by identity.
func WeightFingerprint(trs ...Trained) string { return planner.WeightFingerprint(trs...) }

// White-box pipeline API.

// PipelineLatency is Eqn 4: T = Σ tᵢ + (B−1)·max tⱼ.
func PipelineLatency(stageLat []float64, microbatches int) float64 {
	return pipeline.Latency(stageLat, microbatches)
}

// SimulatePipeline runs the synchronous pipeline schedule, returning the
// makespan and per-task timeline.
func SimulatePipeline(stageLat []float64, microbatches int) (float64, []pipeline.Task) {
	return pipeline.Simulate(stageLat, microbatches)
}

// Planner API.
type (
	// Plan is a stage partition with submesh assignments.
	Plan = planner.Plan
	// PlanOptions configures the inter-stage search.
	PlanOptions = planner.Options
	// LatencyFn estimates optimal intra-stage latency of (stage, mesh).
	LatencyFn = planner.LatencyFn
	// CostMeter accumulates optimization-cost components (Fig 10a) and
	// counts the lookups a latency source answered, each at full cost.
	CostMeter = planner.Meter
	// PredictorOptions configures PredTOP's planner integration.
	PredictorOptions = planner.PredictorOptions
	// PredictorKind selects the black-box architecture.
	PredictorKind = planner.PredictorKind
	// PlanSearchStats describes what one OptimizePlan call explored
	// (deterministic counts only); a searched Plan carries it as Search.
	PlanSearchStats = planner.SearchStats
	// PlanProviderInfo identifies a plan's latency source: kind, seed, and
	// trained-weight fingerprint (see PredictorOptions.Info).
	PlanProviderInfo = planner.ProviderInfo
)

// Predictor architectures for the planner integration.
const (
	KindTransformer = planner.KindTransformer
	KindGCN         = planner.KindGCN
	KindGAT         = planner.KindGAT
)

// OptimizePlan searches stage partitions and submesh assignments minimizing
// the Eqn-4 iteration latency under the given latency source.
func OptimizePlan(numSegments int, p Platform, lat LatencyFn, opt PlanOptions) (Plan, bool) {
	return planner.Optimize(numSegments, p, lat, opt)
}

// FullProfiling returns vanilla Alpa's profile-everything latency source,
// labeling through a fresh label cache.
func FullProfiling(m *Model, prof Profiler, meter *CostMeter) LatencyFn {
	return planner.FullProfiling(predictor.NewLabeler(m, prof), meter)
}

// TrainPredictorProvider implements the PredTOP workflow (§VI) through a fresh
// label cache and encoder: profile a sampled stage subset, train per-scenario
// predictors, and answer planner queries with predictions.
func TrainPredictorProvider(m *Model, p Platform, opt PredictorOptions, prof Profiler, meter *CostMeter) LatencyFn {
	return planner.TrainPredictorProvider(predictor.NewLabeler(m, prof), predictor.NewEncoder(m, true), p, opt, meter)
}

// EvaluatePlan returns the ground-truth iteration latency of a plan, labeled
// through a fresh label cache.
func EvaluatePlan(m *Model, plan Plan, microbatches int) (float64, bool) {
	return planner.EvaluatePlan(predictor.NewLabeler(m, sim.DefaultProfiler()), plan, microbatches)
}

// TrueStageLatency returns the simulator-exact optimal stage latency on a
// mesh (best Table-III configuration), through a fresh label cache.
func TrueStageLatency(m *Model, sp StageSpec, mesh Mesh) (float64, bool) {
	return planner.TrueStageLatency(predictor.NewLabeler(m, sim.DefaultProfiler()), sp, mesh)
}

// Serving API (internal/serve). Telemetry is not part of this facade: the
// batch tools reach internal/obs through internal/cli. The metrics registry,
// its Prometheus exposition and the SLO tracker belong to internal/serve; the
// facade hands out the registry only so predtop-serve can build the one it
// passes as ServeConfig.Metrics.
type (
	// MetricsRegistry collects the daemon's counters, gauges, and histograms
	// and serves them as GET /metrics.
	MetricsRegistry = serve.Metrics
	// ServeConfig configures the predictor-as-a-service daemon (StartServe).
	ServeConfig = serve.Config
	// ServeDaemon is a running serving daemon: POST /predict, GET /models,
	// POST /reload, plus the standard telemetry endpoints on one listener.
	ServeDaemon = serve.Server
	// ServePredictRequest is the JSON body of POST /predict.
	ServePredictRequest = serve.PredictRequest
	// ServePredictResponse is the JSON body of a successful /predict answer.
	ServePredictResponse = serve.PredictResponse
	// ServeReplayConfig configures a synthetic load replay (ServeReplay).
	ServeReplayConfig = serve.ReplayConfig
	// ServeReplayResult summarizes one replay: client-side throughput and
	// latency percentiles plus the daemon's cache counters and SLO verdict.
	ServeReplayResult = serve.ReplayResult
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return serve.NewMetrics() }

// StartServe loads the daemon's model registry and begins serving; see
// ServeConfig. The returned daemon is already answering requests.
func StartServe(ctx context.Context, cfg ServeConfig) (*ServeDaemon, error) {
	return serve.Start(ctx, cfg)
}

// ServeReplay drives a deterministic synthetic query load against a running
// daemon and returns throughput, latency percentiles, and the daemon's cache
// counters and SLO verdict.
func ServeReplay(cfg ServeReplayConfig) (*ServeReplayResult, error) { return serve.Replay(cfg) }
