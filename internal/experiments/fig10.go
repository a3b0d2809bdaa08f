package experiments

import (
	"fmt"
	"io"
	"strings"

	"predtop/internal/cluster"
	"predtop/internal/models"
	"predtop/internal/pipeline"
	"predtop/internal/planner"
	"predtop/internal/predictor"
	"predtop/internal/sim"
)

// PlanRun is one bar of Fig 10: a planner version's winning plan and, when
// the search found one, its provenance report, which carries both the
// optimization cost (10a, Report.Cost) and the ground-truth iteration
// latency of the plan (10b, Report.Pipeline.Total).
type PlanRun struct {
	Version string
	OK      bool
	// Plan is the winning plan itself (zero when the search found none) —
	// the input to planner.WhatIf replays.
	Plan planner.Plan
	// Report is the plan's provenance report (nil when !OK), recorded in the
	// run's ledger manifest and written out by predtop-plan -report.
	Report *planner.Report
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
// Transformer, GCN, and GAT predictors. The five sources and the plans'
// ground truth share one Labeler and one pruned Encoder, so each stage class
// is labeled and encoded once per benchmark; as the Labeler is not safe for
// concurrent use, the searches run serially, in version order, each right
// after its source is built.
func RunFig10(p Preset, bench Benchmark, log io.Writer) []PlanRun {
	if log == nil {
		log = io.Discard
	}
	platform := cluster.Platform2()
	mdl, maxLen := Fig10Model(p, bench)
	mdl.Prof = p.Obs.Prof
	lab := predictor.NewLabeler(mdl, sim.DefaultProfiler())
	enc := predictor.NewEncoder(mdl, true)
	opts := planner.Options{Microbatches: p.Microbatches, MaxStageLen: maxLen, Prof: p.Obs.Prof}

	// Each planner version owns its cost meter and provenance, and is
	// searched and evaluated as soon as its source is built.
	var out []PlanRun
	search := func(version string, latFn planner.LatencyFn, meter *planner.Meter, info planner.ProviderInfo) {
		// The search times itself: a planner.optimize span on opts.Prof.
		plan, ok := planner.Optimize(mdl.NumSegments(), platform, latFn, opts)
		run := PlanRun{Version: version, OK: ok, Plan: plan}
		var lats []float64
		if run.OK {
			evalSpan := p.Obs.Prof.Start("evaluate")
			lats, run.OK = planner.StageLatencies(lab, run.Plan)
			evalSpan.End()
		}
		iter := 0.0
		if run.OK {
			run.Report = planner.BuildReport(mdl, platform, run.Plan, lats, planner.ReportOptions{
				Version:      version,
				TraceID:      p.Obs.Ctx.TraceID(),
				Microbatches: p.Microbatches,
				Provenance:   info,
				Meter:        meter,
			})
			iter = run.Report.Pipeline.Total
		}
		fmt.Fprintf(log, "[fig10 %s] %-13s opt %.0fs (profile %.0fs train %.0fs infer %.0fs, %d profiles) iter %.3fs stages %d\n",
			bench.Name, version, meter.Total(), meter.ProfileSeconds, meter.TrainSeconds,
			meter.InferSeconds, meter.StagesProfiled, iter, len(run.Plan.Stages))
		// Render each feasible plan's simulated 1F1B schedule as its own set
		// of trace tracks so plan shapes are comparable side by side.
		if run.OK {
			if err := pipeline.AddSchedule(p.Obs.Trace, fmt.Sprintf("%s %s ", bench.Name, version), lats, p.Microbatches); err != nil {
				fmt.Fprintf(log, "[fig10 %s] %s schedule trace: %v\n", bench.Name, version, err)
			}
		}
		out = append(out, run)
	}
	full, partial := &planner.Meter{}, &planner.Meter{}
	search("Alpa-Full", planner.FullProfiling(lab, full), full, planner.ProviderInfo{Source: "Alpa-Full"})
	search("Alpa-Partial", planner.PartialProfiling(lab, partial, partialAlpha), partial, planner.ProviderInfo{Source: "Alpa-Partial"})
	// Predictor training inside the planner reports to the same observer as
	// everything else (spans and notes only observe, so plans are unchanged).
	planTrain := p.PlanTrain
	planTrain.Prof, planTrain.Flight = p.Obs.Prof, p.Obs.Flight
	for _, kind := range []planner.PredictorKind{planner.KindGCN, planner.KindGAT, planner.KindTransformer} {
		meter := &planner.Meter{}
		var info planner.ProviderInfo
		latFn := planner.TrainPredictorProvider(lab, enc, platform, planner.PredictorOptions{
			Kind:        kind,
			SampleFrac:  p.PredSampleFrac,
			MaxStageLen: maxLen,
			Train:       planTrain,
			Tran:        p.Tran,
			GCN:         p.GCN,
			GAT:         p.GAT,
			Seed:        p.Seed,
			Info:        &info,
		}, meter)
		search(kind.String(), latFn, meter, info)
	}
	return out
}

// RenderFig10 prints both panels from the reports of the versions that found
// a plan, in run order: optimization cost (10a) and the iteration latency of
// the optimized plan (10b), with percentage deltas against the profiling
// baselines as the paper reports them.
func RenderFig10(bench string, reports []*planner.Report) string {
	var b strings.Builder
	var partialOpt, baseIter float64
	for _, r := range reports {
		if r.Version == "Alpa-Partial" {
			partialOpt = r.Cost.TotalSeconds
		}
		if r.Version == "Alpa-Full" {
			baseIter = r.Pipeline.Total
		}
	}
	fmt.Fprintf(&b, "Fig 10 (%s benchmark, Platform 2)\n", bench)
	fmt.Fprintf(&b, "(a) optimization time (simulated seconds)\n")
	fmt.Fprintf(&b, "    %-14s %12s %12s %10s %10s %12s\n", "version", "total", "profile", "train", "infer", "vs partial")
	for _, r := range reports {
		c := r.Cost
		delta := ""
		if partialOpt > 0 {
			delta = fmt.Sprintf("%+.1f%%", (c.TotalSeconds-partialOpt)/partialOpt*100)
		}
		fmt.Fprintf(&b, "    %-14s %12.0f %12.0f %10.0f %10.0f %12s\n",
			r.Version, c.TotalSeconds, c.ProfileSeconds, c.TrainSeconds, c.InferSeconds, delta)
	}
	fmt.Fprintf(&b, "(b) iteration latency of the optimized plan (seconds)\n")
	fmt.Fprintf(&b, "    %-14s %12s %8s %12s\n", "version", "latency", "stages", "vs full")
	for _, r := range reports {
		delta := ""
		if baseIter > 0 {
			delta = fmt.Sprintf("%+.1f%%", (r.Pipeline.Total-baseIter)/baseIter*100)
		}
		fmt.Fprintf(&b, "    %-14s %12.4f %8d %12s\n", r.Version, r.Pipeline.Total, len(r.Stages), delta)
	}
	return b.String()
}
