// Command predtop-plan regenerates the paper's Fig-10 use case: automatic
// parallelization-plan search on Platform 2 under five latency sources —
// vanilla Alpa with full and partial profiling, and PredTOP with GCN, GAT,
// and DAG Transformer predictors — reporting optimization cost (Fig 10a)
// and the ground-truth iteration latency of each optimized plan (Fig 10b).
//
// Usage:
//
//	predtop-plan [-preset quick|paper|paperlite] [-bench GPT-3|MoE|all]
//	             [-seed 0] [-out results.txt] [-trace run.json]
//	             [-listen :9090] [-profile spans.txt] [-runledger runs] [-quiet]
//	             [-report DIR] [-whatif SPEC] [-diff a.json,b.json]
//
// -report writes each feasible plan's provenance report — per-stage
// latencies, mesh assignments, Eqn-4 decomposition, predictor fingerprint,
// and search statistics — to DIR as both canonical JSON (byte-identical for
// a fixed seed) and a human-readable text rendering. -whatif replays every
// cached plan against a perturbed cluster without re-searching and prints
// the side-by-side latency diff; SPEC is comma-separated key=value pairs:
// microbatches=N (alias b), platform=1|2, and intranode-bw / internode-bw /
// internode-lat scale factors (e.g. "microbatches=32,internode-bw=x4").
// -diff compares two report files written by -report and exits.
//
// -preset, -seed, -quiet, -trace, -listen, -profile, and -runledger are the
// shared flags documented in package internal/cli; -seed 0 keeps the
// preset's seed, and progress goes to stderr (the report always prints).
// -profile is the search's wall-clock record — planner phases (one estimate
// span over all of a search's lookups), embedded predictor training, plan
// evaluation; -trace holds the same spans as a timeline plus the simulated 1F1B schedule
// of each feasible plan; the manifest holds each feasible plan's whole
// provenance report (stages, search, cost, Eqn-4 decomposition, predictor
// fingerprint). Fan-out width is GOMAXPROCS.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"predtop/internal/cli"
	"predtop/internal/cluster"
	"predtop/internal/experiments"
	"predtop/internal/planner"
	"predtop/internal/predictor"
	"predtop/internal/sim"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("predtop-plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "all", "benchmark: GPT-3, MoE, or all")
	out := fs.String("out", "", "also write the report to this file")
	reportDir := fs.String("report", "", "write per-plan provenance reports (JSON + text) into this directory")
	whatifSpec := fs.String("whatif", "", "replay each plan against a perturbation (e.g. \"microbatches=32,internode-bw=x4\") and print the latency diff")
	diffSpec := fs.String("diff", "", "compare two report files (\"base.json,scenario.json\"), print the diff, and exit")
	var shared cli.Flags
	shared.Register(fs, cli.Preset|cli.Seed|cli.Quiet|cli.Telemetry|cli.Ledger, map[string]string{
		"seed":  "override the preset's random seed (0 = preset default)",
		"quiet": "suppress per-run progress on stderr (the report still prints)",
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *diffSpec != "" {
		return runDiff(stdout, *diffSpec)
	}
	whatif, err := planner.ParsePerturbation(*whatifSpec)
	if err != nil {
		return err
	}
	p, err := shared.ExperimentPreset()
	if err != nil {
		return err
	}
	wantBench := "" // every benchmark
	if !strings.EqualFold(*bench, "all") {
		cfg, err := cli.Bench(*bench, 0)
		if err != nil {
			return err
		}
		wantBench = cfg.Name
	}
	if *reportDir != "" {
		if err := os.MkdirAll(*reportDir, 0o755); err != nil {
			return err
		}
	}
	r, err := cli.Open(&shared, cli.Options{
		Tool: "predtop-plan", Seed: p.Seed, Stdout: stdout, Progress: stderr, Stderr: stderr, Out: *out,
	})
	if err != nil {
		return err
	}
	defer func() { err = r.Close(err) }()
	p.Obs = r.Observer()

	man := r.Man
	man.SetConfig("preset", p.Name)
	man.SetConfig("bench", strings.ToLower(*bench))
	if *whatifSpec != "" {
		man.SetConfig("whatif", whatif.String())
	}
	man.SetOutput("report", *reportDir)

	for _, b := range p.Benchmarks() {
		if wantBench != "" && wantBench != b.Name {
			continue
		}
		runs := experiments.RunFig10(p, b, r.Log.Writer())
		fmt.Fprintln(r.Out, experiments.RenderFig10(b.Name, runs))
		for _, pr := range runs {
			if pr.OK {
				man.RecordPlan(pr.Report)
			}
		}
		if *reportDir != "" {
			if err := saveReports(*reportDir, b.Name, runs); err != nil {
				return err
			}
		}
		if !whatif.IsZero() {
			if err := runWhatIf(r.Out, p, b, runs, whatif, *reportDir); err != nil {
				return err
			}
		}
	}
	return nil
}

// slug renders a benchmark or version name as a filename component.
func slug(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, s)
}

// saveReports writes each feasible run's provenance report to dir as
// <bench>-<version>.json (canonical, byte-identical per seed) and
// <bench>-<version>.txt (human rendering), each replaced atomically.
func saveReports(dir, bench string, runs []experiments.PlanRun) error {
	for _, r := range runs {
		if r.Report == nil {
			continue
		}
		base := filepath.Join(dir, slug(bench)+"-"+slug(r.Version))
		if err := r.Report.SaveFile(base + ".json"); err != nil {
			return err
		}
		if err := predictor.AtomicWrite(base+".txt", func(w io.Writer) error {
			_, err := io.WriteString(w, r.Report.Render())
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// runWhatIf replays every feasible plan against the perturbation and prints
// the per-stage/total latency diff; scenario reports also land in reportDir
// (as *-whatif.json) when -report is set.
func runWhatIf(w io.Writer, p experiments.Preset, b experiments.Benchmark, runs []experiments.PlanRun, pt planner.Perturbation, reportDir string) error {
	mdl, _ := experiments.Fig10Model(p, b)
	lab := predictor.NewLabeler(mdl, sim.DefaultProfiler())
	platform := cluster.Platform2()
	fmt.Fprintf(w, "what-if scenario: %s (%s benchmark)\n", pt.String(), b.Name)
	for _, r := range runs {
		if !r.OK || r.Report == nil {
			continue
		}
		scen, ok := planner.WhatIf(lab, platform, r.Plan, p.Microbatches, pt, planner.ReportOptions{
			Version:    r.Version,
			TraceID:    r.Report.TraceID,
			Provenance: r.Report.Provenance,
		})
		if !ok {
			fmt.Fprintf(w, "[%s] plan infeasible under scenario %s\n", r.Version, pt.String())
			continue
		}
		fmt.Fprintf(w, "[%s]\n%s", r.Version, planner.Diff(r.Report, scen).Render())
		if reportDir != "" {
			path := filepath.Join(reportDir, slug(b.Name)+"-"+slug(r.Version)+"-whatif.json")
			if err := scen.SaveFile(path); err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(w)
	return nil
}

// runDiff loads two report files and prints their side-by-side diff.
func runDiff(w io.Writer, spec string) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-diff wants \"base.json,scenario.json\", got %q", spec)
	}
	base, err := planner.LoadReport(strings.TrimSpace(parts[0]))
	if err != nil {
		return err
	}
	scen, err := planner.LoadReport(strings.TrimSpace(parts[1]))
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(w, planner.Diff(base, scen).Render())
	return err
}
