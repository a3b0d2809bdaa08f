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
	"predtop/internal/parallel"
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

// Encoder builds and caches encoded stage graphs, one per stage class
// (models.StageClass): encoding is independent of the runtime scenario and of
// which layers a stage covers, so one cache serves every (mesh, config) pair
// and every spec of a class — the same economy the paper gets from
// constructing each stage DAG once. Specs of one class share one *Encoded,
// which no caller may modify.
type Encoder struct {
	Model *models.Model
	Prune bool

	mu    sync.Mutex
	cache map[models.StageClass]*stage.Encoded
}

// NewEncoder returns an encoder for m (pruned per §IV-B4 unless disabled).
func NewEncoder(m *models.Model, prune bool) *Encoder {
	return &Encoder{Model: m, Prune: prune, cache: make(map[models.StageClass]*stage.Encoded)}
}

// Encode returns the encoded predictor input for the stage spec. The
// predictor sees the forward stage graph — what Alpa's intra-operator
// compiler is handed — while labels are profiled on the full training
// (forward+backward) execution. It is safe for concurrent use: callers racing
// on a first call may each build, but all get the one stored encoding.
func (e *Encoder) Encode(sp stage.Spec) *stage.Encoded {
	class := e.Model.StageClass(sp.Lo, sp.Hi)
	e.mu.Lock()
	enc, ok := e.cache[class]
	e.mu.Unlock()
	if ok {
		return enc
	}
	built := stage.Encode(stage.FromGraph(e.Model.StageGraph(sp.Lo, sp.Hi, false), e.Prune))
	e.mu.Lock()
	defer e.mu.Unlock()
	if enc, ok := e.cache[class]; ok {
		return enc
	}
	e.cache[class] = built
	return built
}

// Labeler is the one label path: every training graph the simulator costs
// and every intra-op optimum in the repository — dataset samples, the
// planner's profiled lookups and its ground truth (planner.TrueStageLatency)
// — comes from a Labeler. A label has two parts. The intra-op optimum and the
// simulated profiling cost depend only on the stage's training graph and the
// scenario, so a Labeler builds each stage class's training graph once and
// optimizes and costs it once per scenario value, the missing scenarios of
// one call concurrently. The noisy measurement is drawn per spec, from a seed
// of (lo, hi, platform, mesh, config) indices. A Labeler is not safe for
// concurrent use; its caches live as long as it does.
type Labeler struct {
	model  *models.Model
	prof   sim.Profiler
	graphs map[models.StageClass]*ir.Graph
	// labels holds the per-class part of each label (Measured unset). The
	// key is the whole scenario value, so a perturbed platform that keeps
	// the base platform's indices gets labels of its own.
	labels map[labelKey]StageLabel
}

// labelKey names one stage class under one scenario.
type labelKey struct {
	class models.StageClass
	sc    cluster.Scenario
}

// StageLabel is one stage's label under one scenario: the simulator-exact
// optimal training latency, a noisy profiled measurement of it, and the
// simulated seconds the profile cost. OK is false when the stage does not fit
// the scenario's devices; such stages are not profiled and cost nothing.
type StageLabel struct {
	True, Measured, Cost float64
	OK                   bool
}

// NewLabeler returns a labeler for m's stages measured by prof.
func NewLabeler(m *models.Model, prof sim.Profiler) *Labeler {
	return &Labeler{model: m, prof: prof, graphs: map[models.StageClass]*ir.Graph{}, labels: map[labelKey]StageLabel{}}
}

// Model returns the model whose stages l labels.
func (l *Labeler) Model() *models.Model { return l.model }

// TrainingGraph returns sp's forward+backward graph, built once per class.
func (l *Labeler) TrainingGraph(sp stage.Spec) *ir.Graph {
	return l.graph(l.model.StageClass(sp.Lo, sp.Hi), sp)
}

func (l *Labeler) graph(class models.StageClass, sp stage.Spec) *ir.Graph {
	g, ok := l.graphs[class]
	if !ok {
		g = l.model.StageGraph(sp.Lo, sp.Hi, true)
		l.graphs[class] = g
	}
	return g
}

// label is the one label function: sp's label under each scenario of scs.
// Scenarios its class is not yet labeled under are optimized and costed
// concurrently, each into its own slot, and the cache is written serially in
// scs order, so no answer depends on which scenario finished first.
func (l *Labeler) label(sp stage.Spec, scs []cluster.Scenario) []StageLabel {
	class := l.model.StageClass(sp.Lo, sp.Hi)
	labs := make([]StageLabel, len(scs))
	var missing []int
	for i, sc := range scs {
		var done bool
		if labs[i], done = l.labels[labelKey{class, sc}]; !done {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		g := l.graph(class, sp)
		parallel.For(len(missing), func(j int) {
			sc := scs[missing[j]]
			if res := intraop.Optimize(g, sc); res.Feasible {
				labs[missing[j]] = StageLabel{True: res.Latency, Cost: l.prof.ProfileCostSeconds(g, sim.NewExec(sc), res.Latency), OK: true}
			}
		})
		for _, i := range missing {
			l.labels[labelKey{class, scs[i]}] = labs[i]
		}
	}
	for i, sc := range scs {
		if labs[i].OK {
			seed := uint64(sp.Lo)<<40 | uint64(sp.Hi)<<24 |
				uint64(sc.Mesh.Platform.Index)<<16 | uint64(sc.Mesh.Index)<<8 | uint64(sc.Config.Index)
			labs[i].Measured = l.prof.Measure(labs[i].True, seed)
		}
	}
	return labs
}

// MeshLabels returns sp's labels under every configuration of mesh, in
// cluster.ConfigsFor order.
func (l *Labeler) MeshLabels(sp stage.Spec, mesh cluster.Mesh) []StageLabel {
	confs := cluster.ConfigsFor(mesh)
	scs := make([]cluster.Scenario, len(confs))
	for i, conf := range confs {
		scs[i] = cluster.Scenario{Mesh: mesh, Config: conf}
	}
	return l.label(sp, scs)
}

// Label returns sp's label under sc (see StageLabel).
func (l *Labeler) Label(sp stage.Spec, sc cluster.Scenario) (trueLat, measured, cost float64, ok bool) {
	lab := l.label(sp, []cluster.Scenario{sc})[0]
	return lab.True, lab.Measured, lab.Cost, lab.OK
}

// Dataset labels every feasible spec under sc and pairs it with its encoded
// graph.
func (l *Labeler) Dataset(enc *Encoder, specs []stage.Spec, sc cluster.Scenario) *Dataset {
	ds := &Dataset{Model: enc.Model, Scenario: sc}
	for _, sp := range specs {
		trueLat, measured, cost, ok := l.Label(sp, sc)
		if !ok {
			continue
		}
		ds.Samples = append(ds.Samples, Sample{
			Spec: sp, Encoded: enc.Encode(sp), True: trueLat, Measured: measured, ProfileCost: cost,
		})
	}
	return ds
}

// ProfileStage labels one spec under sc with a labeler of its own: it builds
// the spec's training graph and optimizes it once, for this one label. Code
// that labels many stages keeps a Labeler instead.
func ProfileStage(m *models.Model, sp stage.Spec, sc cluster.Scenario, prof sim.Profiler) (trueLat, measured float64, ok bool) {
	trueLat, measured, _, ok = NewLabeler(m, prof).Label(sp, sc)
	return trueLat, measured, ok
}

// BuildDataset profiles every feasible spec under sc and pairs it with its
// encoded graph, through a labeler that lives for the call.
func BuildDataset(enc *Encoder, specs []stage.Spec, sc cluster.Scenario, prof sim.Profiler) *Dataset {
	return NewLabeler(enc.Model, prof).Dataset(enc, specs, sc)
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
