// Package experiments regenerates every table and figure of the paper's
// evaluation (§VIII) on the simulated platforms: the MRE grids of Tables V
// and VI, their aggregations in Figs 3, 8, and 9, the plan-latency variation
// of Fig 2, the pipeline timeline of Fig 6, and the optimization-cost /
// plan-quality comparison of Fig 10.
package experiments

import (
	"predtop/internal/graphnn"
	"predtop/internal/models"
	"predtop/internal/obs"
	"predtop/internal/predictor"
)

// valFrac is the validation share of every split (the paper's 10 %), and
// partialAlpha the pruning threshold of Fig 10's Alpa-Partial baseline; no
// preset varies either.
const (
	valFrac      = 0.1
	partialAlpha = 1.6
)

// Preset bundles the experiment scale knobs. The paper's full protocol
// (409/205 stages, 500 epochs, patience 200, full-size baselines) is far
// beyond a single-core CPU budget; presets keep the protocol identical and
// shrink only sample counts, epochs, and hidden sizes. EXPERIMENTS.md
// records which preset produced each reported number.
type Preset struct {
	Name string

	// Stage sampling for the MRE tables.
	GPTStages int // ≤0 = whole universe
	MoEStages int
	// GPTLayers/MoELayers override the benchmark depth (0 = Table IV full
	// size); the quick preset shrinks the models to keep smoke runs fast.
	GPTLayers int
	MoELayers int
	MaxLen    int // max stage length in segments for GPT-3 table samples
	MoEMaxLen int // max stage length for MoE (0 = MaxLen − 1, at least 1)

	// Training-set fractions evaluated (percent), Tables V/VI rows.
	Fractions []int

	Train predictor.TrainConfig
	Tran  graphnn.TransformerConfig
	GCN   graphnn.GCNConfig
	GAT   graphnn.GATConfig

	// Planner experiment (Fig 10) knobs.
	Microbatches  int
	PlanMaxLenGPT int
	PlanMaxLenMoE int
	// Fig10GPTLayers/Fig10MoELayers shrink the benchmarks for the planner
	// experiment (0 = table-preset depth); prediction over long stages is
	// quadratic in graph size and dominates CPU cost otherwise.
	Fig10GPTLayers int
	Fig10MoELayers int
	PredSampleFrac float64
	PlanTrain      predictor.TrainConfig

	// Fig 2 sample size.
	RandomPlans int

	Seed int64

	// Obs receives harness observability: profiler spans, flight-recorder
	// breadcrumbs and each plan's simulated schedule on the trace. The zero
	// value observes nothing, and tables and plans are bitwise identical with
	// or without it.
	Obs obs.Observer
}

// Quick is the smoke-test preset used by the `go test -bench` harness: a
// thin slice of the grid at tiny model sizes, exercising every code path in
// seconds rather than hours.
func Quick() Preset {
	return Preset{
		Name:      "quick",
		GPTStages: 20, MoEStages: 18, MaxLen: 2,
		GPTLayers: 10, MoELayers: 10,
		Fractions: []int{30, 80},
		Train:     predictor.TrainConfig{Epochs: 8, Patience: 6, BatchSize: 4},
		Tran:      graphnn.TransformerConfig{Layers: 2, Dim: 24, Heads: 2, FFNDim: 48},
		GCN:       graphnn.GCNConfig{Layers: 3, Dim: 48},
		GAT:       graphnn.GATConfig{Layers: 2, Dim: 16, Heads: 2},

		Microbatches:  16,
		PlanMaxLenGPT: 5, PlanMaxLenMoE: 5,
		PredSampleFrac: 0.2,
		PlanTrain:      predictor.TrainConfig{Epochs: 8, Patience: 6, BatchSize: 4},

		RandomPlans: 25,
		Seed:        1,
	}
}

// PaperLite is the paper preset at a thinner fraction grid and epoch
// budget — used to complete the MoE tables within the single-core budget
// when the full grid would overrun (recorded as such in EXPERIMENTS.md).
func PaperLite() Preset {
	p := Paper()
	p.Name = "paperlite"
	p.Fractions = []int{10, 80}
	p.Train.Epochs = 24
	p.Train.Patience = 8
	p.Fig10GPTLayers = 16
	p.Fig10MoELayers = 16
	p.PlanMaxLenGPT = 7
	p.PlanMaxLenMoE = 7
	p.PredSampleFrac = 0.25
	p.PlanTrain = predictor.TrainConfig{Epochs: 30, Patience: 10, BatchSize: 4}
	return p
}

// Paper is the preset behind the recorded EXPERIMENTS.md run: the full
// scenario × fraction grid of Tables V/VI with reduced sample counts,
// epochs, and hidden dimensions (single-core CPU budget; see EXPERIMENTS.md
// for the deviations and their rationale).
func Paper() Preset {
	return Preset{
		Name:      "paper",
		GPTStages: 0, MoEStages: 0, MaxLen: 3,
		Fractions: []int{10, 20, 40, 60, 80},
		Train:     predictor.TrainConfig{Epochs: 30, Patience: 10, BatchSize: 4},
		Tran:      graphnn.TransformerConfig{Layers: 2, Dim: 32, Heads: 2, FFNDim: 64},
		GCN:       graphnn.GCNConfig{Layers: 6, Dim: 64},
		GAT:       graphnn.GATConfig{Layers: 6, Dim: 24, Heads: 3},

		Microbatches:  16,
		PlanMaxLenGPT: 10, PlanMaxLenMoE: 8,
		Fig10MoELayers: 20,
		PredSampleFrac: 0.10,
		PlanTrain:      predictor.TrainConfig{Epochs: 16, Patience: 8, BatchSize: 4},

		RandomPlans: 100,
		Seed:        7,
	}
}

// ByName resolves a preset name as the -preset flag spells it; ok is false
// for unknown names.
func ByName(name string) (Preset, bool) {
	switch name {
	case "quick":
		return Quick(), true
	case "paper":
		return Paper(), true
	case "paperlite":
		return PaperLite(), true
	}
	return Preset{}, false
}

// Benchmark identifies one of the two evaluation models.
type Benchmark struct {
	Name   string
	Config models.Config
	Stages int // preset sample count for this benchmark
	MaxLen int // max stage length in segments for table samples
}

// Benchmarks returns the two Table-IV benchmarks at this preset's sample
// counts. MoE decoder layers carry larger operator graphs (experts), so its
// table stages are capped one segment shorter when MoEMaxLen is unset.
func (p Preset) Benchmarks() []Benchmark {
	moeLen := p.MoEMaxLen
	if moeLen == 0 {
		moeLen = p.MaxLen - 1
		if moeLen < 1 {
			moeLen = 1
		}
	}
	gpt, moe := models.GPT3(), models.MoE()
	if p.GPTLayers > 0 {
		gpt.Layers = p.GPTLayers
	}
	if p.MoELayers > 0 {
		moe.Layers = p.MoELayers
	}
	return []Benchmark{
		{Name: "GPT-3", Config: gpt, Stages: p.GPTStages, MaxLen: p.MaxLen},
		{Name: "MoE", Config: moe, Stages: p.MoEStages, MaxLen: moeLen},
	}
}
