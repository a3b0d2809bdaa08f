package experiments

import (
	"fmt"
	"io"
	"strings"

	"predtop/internal/cluster"
	"predtop/internal/models"
	"predtop/internal/parallel"
	"predtop/internal/pipeline"
	"predtop/internal/planner"
	"predtop/internal/predictor"
	"predtop/internal/sim"
)

// PlanRun is one bar of Fig 10: a planner version's optimization cost (10a,
// Meter.Total()) and the ground-truth iteration latency of the plan it
// produced (10b, Report.Pipeline.Total).
type PlanRun struct {
	Version string
	Meter   planner.Meter
	OK      bool
	// Plan is the winning plan itself (zero when the search found none) —
	// the input to planner.WhatIf replays.
	Plan planner.Plan
	// Report is the plan's provenance report (nil when !OK), recorded in the
	// run's ledger manifest and written out by predtop-plan -report.
	Report *planner.Report
}

// iterationLatency returns the run's ground-truth Eqn-4 latency, 0 when the
// run found no feasible plan.
func (r PlanRun) iterationLatency() float64 {
	if r.Report == nil {
		return 0
	}
	return r.Report.Pipeline.Total
}

// Fig10Model builds the benchmark model exactly as RunFig10 plans it —
// applying the preset's Fig-10 layer overrides — and returns it with the
// planner's max stage length. Exported so what-if replays in cmd/predtop-plan
// evaluate cached plans against the same model the planner saw.
func Fig10Model(p Preset, bench Benchmark) (*models.Model, int) {
	cfg := bench.Config
	maxLen := p.PlanMaxLenGPT
	if bench.Name == "MoE" {
		maxLen = p.PlanMaxLenMoE
		if p.Fig10MoELayers > 0 {
			cfg.Layers = p.Fig10MoELayers
		}
	} else if p.Fig10GPTLayers > 0 {
		cfg.Layers = p.Fig10GPTLayers
	}
	return models.Build(cfg), maxLen
}

// RunFig10 reproduces the Fig-10 use case for one benchmark on Platform 2:
// vanilla Alpa with full and partial profiling versus PredTOP with DAG
// Transformer, GCN, and GAT predictors.
func RunFig10(p Preset, bench Benchmark, log io.Writer) []PlanRun {
	if log == nil {
		log = io.Discard
	}
	platform := cluster.Platform2()
	mdl, maxLen := Fig10Model(p, bench)
	mdl.Prof = p.Obs.Prof
	prof := sim.DefaultProfiler()
	opts := planner.Options{Microbatches: p.Microbatches, MaxStageLen: maxLen, Prof: p.Obs.Prof}

	// Each planner version owns its latency source, cost meter, and
	// provenance, so the five runs are independent and execute concurrently
	// (GOMAXPROCS bound); per-run log lines are buffered and emitted in
	// version order.
	type runSpec struct {
		version string
		latFn   planner.LatencyFn
		meter   *planner.Meter
		info    planner.ProviderInfo
	}
	var specs []runSpec
	{
		meter := &planner.Meter{}
		specs = append(specs, runSpec{"Alpa-Full", planner.FullProfiling(mdl, prof, meter), meter,
			planner.ProviderInfo{Source: "Alpa-Full"}})
	}
	{
		meter := &planner.Meter{}
		specs = append(specs, runSpec{"Alpa-Partial", planner.PartialProfiling(mdl, prof, meter, p.PartialAlpha), meter,
			planner.ProviderInfo{Source: "Alpa-Partial"}})
	}
	// Predictor training inside the planner reports to the same observer as
	// everything else (spans and notes only observe, so plans are unchanged).
	planTrain := p.PlanTrain
	planTrain.Prof, planTrain.Flight = p.Obs.Prof, p.Obs.Flight
	for _, kind := range []planner.PredictorKind{planner.KindGCN, planner.KindGAT, planner.KindTransformer} {
		meter := &planner.Meter{}
		var info planner.ProviderInfo
		latFn := planner.TrainPredictorProvider(mdl, platform, planner.PredictorOptions{
			Kind:        kind,
			SampleFrac:  p.PredSampleFrac,
			MaxStageLen: maxLen,
			Train:       planTrain,
			Tran:        p.Tran,
			GCN:         p.GCN,
			GAT:         p.GAT,
			Seed:        p.Seed,
			Info:        &info,
		}, prof, meter)
		specs = append(specs, runSpec{kind.String(), latFn, meter, info})
	}

	out := make([]PlanRun, len(specs))
	parallel.For(len(specs), func(i int) {
		// The search times itself: a planner.optimize span on opts.Prof.
		plan, ok := planner.Optimize(mdl.NumSegments(), platform, specs[i].latFn, opts)
		out[i] = PlanRun{Version: specs[i].version, Meter: *specs[i].meter, OK: ok, Plan: plan}
	})

	// The plans' ground truth comes serially, in version order, from one
	// labeler: a stage class the versions share is built and labeled once,
	// and identical plans cost one evaluation.
	lab := predictor.NewLabeler(mdl, prof)
	for i, sp := range specs {
		run := &out[i]
		var lats []float64
		if run.OK {
			evalSpan := p.Obs.Prof.Start("evaluate")
			lats, run.OK = planner.StageLatencies(lab, run.Plan)
			evalSpan.End()
		}
		if run.OK {
			run.Report = planner.BuildReport(mdl, platform, run.Plan, lats, planner.ReportOptions{
				Version:      sp.version,
				TraceID:      p.Obs.Ctx.TraceID(),
				Microbatches: p.Microbatches,
				Provenance:   sp.info,
				Meter:        sp.meter,
			})
		}
		fmt.Fprintf(log, "[fig10 %s] %-13s opt %.0fs (profile %.0fs train %.0fs infer %.0fs, %d profiles) iter %.3fs stages %d\n",
			bench.Name, sp.version, sp.meter.Total(), sp.meter.ProfileSeconds, sp.meter.TrainSeconds,
			sp.meter.InferSeconds, sp.meter.StagesProfiled, run.iterationLatency(), len(run.Plan.Stages))
		// Render each feasible plan's simulated 1F1B schedule as its own set
		// of trace tracks so plan shapes are comparable side by side.
		if run.OK {
			if err := pipeline.AddSchedule(p.Obs.Trace, fmt.Sprintf("%s %s ", bench.Name, run.Version), lats, p.Microbatches); err != nil {
				fmt.Fprintf(log, "[fig10 %s] %s schedule trace: %v\n", bench.Name, run.Version, err)
			}
		}
	}
	return out
}

// RenderFig10 prints both panels: optimization cost (10a) and the iteration
// latency of the optimized plan (10b), with percentage deltas against the
// profiling baselines as the paper reports them.
func RenderFig10(bench string, runs []PlanRun) string {
	var b strings.Builder
	var partialOpt, baseIter float64
	for _, r := range runs {
		if r.Version == "Alpa-Partial" {
			partialOpt = r.Meter.Total()
		}
		if r.Version == "Alpa-Full" {
			baseIter = r.iterationLatency()
		}
	}
	fmt.Fprintf(&b, "Fig 10 (%s benchmark, Platform 2)\n", bench)
	fmt.Fprintf(&b, "(a) optimization time (simulated seconds)\n")
	fmt.Fprintf(&b, "    %-14s %12s %12s %10s %10s %12s\n", "version", "total", "profile", "train", "infer", "vs partial")
	for _, r := range runs {
		delta := ""
		if partialOpt > 0 {
			delta = fmt.Sprintf("%+.1f%%", (r.Meter.Total()-partialOpt)/partialOpt*100)
		}
		fmt.Fprintf(&b, "    %-14s %12.0f %12.0f %10.0f %10.0f %12s\n",
			r.Version, r.Meter.Total(), r.Meter.ProfileSeconds, r.Meter.TrainSeconds, r.Meter.InferSeconds, delta)
	}
	fmt.Fprintf(&b, "(b) iteration latency of the optimized plan (seconds)\n")
	fmt.Fprintf(&b, "    %-14s %12s %8s %12s\n", "version", "latency", "stages", "vs full")
	for _, r := range runs {
		delta := ""
		if baseIter > 0 && r.OK {
			delta = fmt.Sprintf("%+.1f%%", (r.iterationLatency()-baseIter)/baseIter*100)
		}
		fmt.Fprintf(&b, "    %-14s %12.4f %8d %12s\n", r.Version, r.iterationLatency(), len(r.Plan.Stages), delta)
	}
	return b.String()
}
