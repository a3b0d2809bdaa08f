// Package predictor assembles stage-latency datasets and trains the
// black-box prediction models exactly as the paper prescribes (§IV-B):
// profiled optimal intra-stage latencies as labels, MAE loss, Adam with
// cosine learning-rate decay from 1e-3, batch size 32, and early stopping
// that restores the best-validation weights.
package predictor

import (
	"math/rand"
	"sync"

	"predtop/internal/cluster"
	"predtop/internal/intraop"
	"predtop/internal/ir"
	"predtop/internal/models"
	"predtop/internal/sim"
	"predtop/internal/stage"
)

// Sample is one (stage graph, profiled latency) example.
type Sample struct {
	Spec    stage.Spec
	Encoded *stage.Encoded
	// True is the simulator's exact optimal latency; Measured is the noisy
	// profiled observation used for training and as Eqn 5's ground truth.
	True     float64
	Measured float64
	// ProfileCost is what obtaining the label cost on the simulated platform
	// clock (compile + transfer + timed runs), the unit planner.Meter sums.
	ProfileCost float64
}

// Dataset holds the samples of one benchmark under one runtime scenario.
type Dataset struct {
	Model    *models.Model
	Scenario cluster.Scenario
	Samples  []Sample
}

// Encoder builds and caches encoded stage graphs. Encoding is independent of
// the runtime scenario, so one cache serves every (mesh, config) pair — the
// same economy the paper gets from constructing each stage DAG once.
type Encoder struct {
	Model *models.Model
	Prune bool

	mu    sync.Mutex
	cache map[stage.Spec]*stage.Encoded
}

// NewEncoder returns an encoder for m (pruned per §IV-B4 unless disabled).
func NewEncoder(m *models.Model, prune bool) *Encoder {
	return &Encoder{Model: m, Prune: prune, cache: make(map[stage.Spec]*stage.Encoded)}
}

// Encode returns the encoded predictor input for the stage spec. The
// predictor sees the forward stage graph — what Alpa's intra-operator
// compiler is handed — while labels are profiled on the full training
// (forward+backward) execution.
func (e *Encoder) Encode(sp stage.Spec) *stage.Encoded {
	e.mu.Lock()
	if enc, ok := e.cache[sp]; ok {
		e.mu.Unlock()
		return enc
	}
	e.mu.Unlock()
	g := e.Model.StageGraph(sp.Lo, sp.Hi, false)
	enc := stage.Encode(stage.FromGraph(g, e.Prune))
	e.mu.Lock()
	e.cache[sp] = enc
	e.mu.Unlock()
	return enc
}

// ProfileGraph is the labeling path: it intra-op-optimizes one built
// training-stage graph g (the forward+backward graph of sp) under sc and
// returns the simulator-exact optimal latency, a noisy profiled measurement
// of it, and the simulated seconds the profile cost. Every label in the
// repository — dataset samples and the planner's profiled lookups — comes
// from here, and the caller builds g once however many scenarios it labels.
// ok is false when the stage does not fit the scenario's devices (such stages
// are not profiled and cost nothing).
func ProfileGraph(g *ir.Graph, sp stage.Spec, sc cluster.Scenario, prof sim.Profiler) (trueLat, measured, cost float64, ok bool) {
	res := intraop.Optimize(g, sc)
	if !res.Feasible {
		return 0, 0, 0, false
	}
	seed := uint64(sp.Lo)<<40 | uint64(sp.Hi)<<24 |
		uint64(sc.Mesh.Platform.Index)<<16 | uint64(sc.Mesh.Index)<<8 | uint64(sc.Config.Index)
	measured = prof.Measure(res.Latency, seed)
	cost = prof.ProfileCostSeconds(g, sim.NewExec(sc), res.Latency)
	return res.Latency, measured, cost, true
}

// ProfileStage is ProfileGraph for a caller that holds no graph: it builds
// sp's training graph and labels it under sc.
func ProfileStage(m *models.Model, sp stage.Spec, sc cluster.Scenario, prof sim.Profiler) (trueLat, measured float64, ok bool) {
	trueLat, measured, _, ok = ProfileGraph(m.StageGraph(sp.Lo, sp.Hi, true), sp, sc, prof)
	return trueLat, measured, ok
}

// BuildDataset profiles every feasible spec under sc and pairs it with its
// encoded graph.
func BuildDataset(enc *Encoder, specs []stage.Spec, sc cluster.Scenario, prof sim.Profiler) *Dataset {
	ds := &Dataset{Model: enc.Model, Scenario: sc}
	for _, sp := range specs {
		trueLat, measured, cost, ok := ProfileGraph(enc.Model.StageGraph(sp.Lo, sp.Hi, true), sp, sc, prof)
		if !ok {
			continue
		}
		ds.Samples = append(ds.Samples, Sample{
			Spec: sp, Encoded: enc.Encode(sp), True: trueLat, Measured: measured, ProfileCost: cost,
		})
	}
	return ds
}

// CollectStages draws the benchmark's stage sample set (§VIII: 409 GPT-3 /
// 205 MoE stages of varied sizes). maxLen bounds the stage length in
// segments; count ≤ 0 takes the whole universe.
func CollectStages(m *models.Model, rng *rand.Rand, count, maxLen int) []stage.Spec {
	if count <= 0 {
		return stage.AllSpecs(m.NumSegments(), maxLen)
	}
	return stage.SampleSpecs(rng, m.NumSegments(), count, maxLen)
}
