package predtop

// One benchmark per table and figure of the paper's evaluation (§VIII).
// Each bench regenerates its artifact end-to-end at the "quick" preset —
// shrunken models, thin grid — so `go test -bench=.` exercises every
// experiment pipeline in minutes; the recorded results in EXPERIMENTS.md
// come from the "paper" preset via the cmd/ tools. These report the
// paper-artifact metrics (MRE, win rate, spread, cost saving, latency
// degradation); speed is bench/'s job (`bash bench/run.sh`), not theirs.

import (
	"fmt"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/experiments"
	"predtop/internal/planner"
)

// benchPreset is the quick preset with a fixed seed per bench iteration.
func benchPreset(i int) experiments.Preset {
	p := experiments.Quick()
	p.Seed = int64(i + 1)
	return p
}

func reportTable(b *testing.B, t *experiments.MRETable) {
	b.ReportMetric(t.WinRate(2)*100, "tran-win-%")
	// Mean Tran MRE at the largest fraction, the headline accuracy number.
	fi := len(t.Fractions) - 1
	sum := 0.0
	for si := range t.Scenarios {
		sum += t.MRE[fi][si][2]
	}
	b.ReportMetric(sum/float64(len(t.Scenarios)), "tran-MRE-%")
}

// BenchmarkTableV_GPT3 regenerates Table V(a): MRE grid, GPT-3 on Platform 1.
func BenchmarkTableV_GPT3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchPreset(i)
		t := experiments.RunMRETable(p, p.Benchmarks()[0], cluster.Platform1(), nil)
		reportTable(b, t)
	}
}

// BenchmarkTableV_MoE regenerates Table V(b): MRE grid, MoE on Platform 1.
func BenchmarkTableV_MoE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchPreset(i)
		t := experiments.RunMRETable(p, p.Benchmarks()[1], cluster.Platform1(), nil)
		reportTable(b, t)
	}
}

// BenchmarkTableVI_GPT3 regenerates Table VI(a): MRE grid, GPT-3 on
// Platform 2 (meshes 1–3).
func BenchmarkTableVI_GPT3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchPreset(i)
		t := experiments.RunMRETable(p, p.Benchmarks()[0], cluster.Platform2(), nil)
		reportTable(b, t)
	}
}

// BenchmarkTableVI_MoE regenerates Table VI(b): MRE grid, MoE on Platform 2.
func BenchmarkTableVI_MoE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchPreset(i)
		t := experiments.RunMRETable(p, p.Benchmarks()[1], cluster.Platform2(), nil)
		reportTable(b, t)
	}
}

// BenchmarkFig2PlanVariation regenerates Fig 2: the latency spread of random
// parallelization plans of both benchmarks on Platform 2.
func BenchmarkFig2PlanVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchPreset(i)
		for _, bench := range p.Benchmarks() {
			r := experiments.RunFig2(p, bench, nil)
			b.ReportMetric(r.Spread(), "spread-"+r.Benchmark)
		}
	}
}

// BenchmarkFig3GCNvsTransformer regenerates Fig 3: GCN vs DAG Transformer
// MRE across runtime configurations.
func BenchmarkFig3GCNvsTransformer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchPreset(i)
		t := experiments.RunMRETable(p, p.Benchmarks()[0], cluster.Platform2(), nil)
		out := experiments.RenderFig3([]*experiments.MRETable{t})
		if len(out) == 0 {
			b.Fatal("empty Fig 3")
		}
	}
}

// BenchmarkFig6Pipeline regenerates Fig 6: the 1F1B pipeline timeline and
// validates Eqn 4 against the schedule simulator.
func BenchmarkFig6Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.RenderFig6(); len(out) == 0 {
			b.Fatal("empty Fig 6")
		}
	}
}

// BenchmarkFig8MeanMRE regenerates Fig 8: mean MRE across scenarios per
// model and training fraction.
func BenchmarkFig8MeanMRE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchPreset(i)
		t := experiments.RunMRETable(p, p.Benchmarks()[0], cluster.Platform1(), nil)
		aggs := experiments.Aggregates([]*experiments.MRETable{t})
		if out := experiments.RenderAggregates(aggs, false); len(out) == 0 {
			b.Fatal("empty Fig 8")
		}
	}
}

// BenchmarkFig9StdMRE regenerates Fig 9: standard deviation of MREs across
// scenarios (the stability comparison).
func BenchmarkFig9StdMRE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchPreset(i)
		t := experiments.RunMRETable(p, p.Benchmarks()[0], cluster.Platform1(), nil)
		aggs := experiments.Aggregates([]*experiments.MRETable{t})
		if out := experiments.RenderAggregates(aggs, true); len(out) == 0 {
			b.Fatal("empty Fig 9")
		}
	}
}

// BenchmarkFig10aOptimizationCost regenerates Fig 10a: optimization cost of
// the five planner versions on the GPT-3 benchmark.
func BenchmarkFig10aOptimizationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchPreset(i)
		reports, _ := experiments.RunFig10(p, p.Benchmarks()[0], planner.Perturbation{}, nil)
		var partial, tran float64
		for _, r := range reports {
			if r.Version == "Alpa-Partial" {
				partial = r.Cost.TotalSeconds
			}
			if r.Version == "PredTOP-Tran" {
				tran = r.Cost.TotalSeconds
			}
		}
		if partial > 0 {
			b.ReportMetric((partial-tran)/partial*100, "cost-saving-%")
		}
	}
}

// BenchmarkFig10bPlanQuality regenerates Fig 10b: iteration latency of the
// plans produced by the five planner versions (MoE benchmark).
func BenchmarkFig10bPlanQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchPreset(i)
		reports, _ := experiments.RunFig10(p, p.Benchmarks()[1], planner.Perturbation{}, nil)
		var full, tran float64
		for _, r := range reports {
			if r.Version == "Alpa-Full" {
				full = r.Pipeline.Total
			}
			if r.Version == "PredTOP-Tran" {
				tran = r.Pipeline.Total
			}
		}
		if full > 0 {
			b.ReportMetric((tran-full)/full*100, "latency-degradation-%")
		}
	}
}

// Example of the one-line white-box model (Eqn 4), kept here so the root
// package has an executable doc example.
func ExamplePipelineLatency() {
	fmt.Println(PipelineLatency([]float64{1, 3, 1, 1}, 3))
	// Output: 12
}

// BenchmarkAblation regenerates the DAG-Transformer design ablation
// (DAGRA / DAGPE / pruning / loss) on the GPT-3 benchmark.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchPreset(i)
		rows := experiments.RunAblation(p, p.Benchmarks()[0], cluster.Platform1(), 0.5, nil)
		for _, r := range rows {
			if r.Variant == "full" {
				b.ReportMetric(r.MRE, "full-MRE-%")
			}
		}
	}
}
