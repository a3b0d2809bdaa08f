// Command predtop-plan regenerates the paper's Fig-10 use case: automatic
// parallelization-plan search on Platform 2 under five latency sources —
// vanilla Alpa with full and partial profiling, and PredTOP with GCN, GAT,
// and DAG Transformer predictors — reporting optimization cost (Fig 10a)
// and the ground-truth iteration latency of each optimized plan (Fig 10b).
//
// Usage:
//
//	predtop-plan [-preset quick|paper|paperlite] [-bench GPT-3|MoE|all]
//	             [-seed 0] [-trace run.json]
//	             [-listen :9090] [-profile spans.txt] [-runledger runs] [-quiet]
//	             [-report DIR] [-whatif SPEC] [-diff a.json,b.json]
//
// -report writes each feasible plan's provenance report — per-stage
// latencies, mesh assignments, Eqn-4 decomposition, predictor fingerprint,
// and search statistics — to DIR as both canonical JSON (byte-identical for
// a fixed seed) and a human-readable text rendering. -whatif replays every
// plan against a perturbed cluster without re-searching, through the label
// cache that planned and evaluated it, and prints the side-by-side latency
// diff (with -report, each replay also lands in DIR as
// <bench>-<version>-whatif.json); SPEC is comma-separated key=value pairs:
// microbatches=N (alias b), platform=1|2, and intranode-bw / internode-bw /
// internode-lat scale factors (e.g. "microbatches=32,internode-bw=x4").
// -diff compares two report files written by -report and exits.
//
// -preset, -seed, -quiet, -trace, -listen, -profile, and -runledger are the
// shared flags documented in package internal/cli; -seed 0 keeps the
// preset's seed, and progress goes to stderr (the report always prints).
// -profile is the search's wall-clock record — planner phases (one estimate
// span over all of a search's lookups), embedded predictor training, each
// PredTOP provider's answer table (planner.answers, its predict child
// counting the forwards, which run before the search), plan evaluation; -trace holds the same spans as a timeline plus the simulated 1F1B schedule
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
	"predtop/internal/experiments"
	"predtop/internal/planner"
	"predtop/internal/predictor"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("predtop-plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "all", "benchmark: GPT-3, MoE, or all")
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
		Tool: "predtop-plan", Seed: p.Seed, Progress: stderr, Stderr: stderr,
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
		reports, replays := experiments.RunFig10(p, b, whatif, r.Log.Writer())
		for _, rep := range reports {
			man.RecordPlan(rep)
		}
		fmt.Fprintln(stdout, experiments.RenderFig10(b.Name, reports))
		if *reportDir != "" {
			if err := saveReports(*reportDir, b.Name, reports); err != nil {
				return err
			}
		}
		if !whatif.IsZero() {
			if err := printWhatIf(stdout, b.Name, whatif, reports, replays, *reportDir); err != nil {
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

// saveReports writes each report to dir as <bench>-<version>.json
// (canonical, byte-identical per seed) and <bench>-<version>.txt (human
// rendering), each replaced atomically.
func saveReports(dir, bench string, reports []*planner.Report) error {
	for _, r := range reports {
		base := filepath.Join(dir, slug(bench)+"-"+slug(r.Version))
		if err := r.SaveFile(base + ".json"); err != nil {
			return err
		}
		if err := predictor.AtomicWrite(base+".txt", func(w io.Writer) error {
			_, err := io.WriteString(w, r.Render())
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// printWhatIf prints each report's per-stage/total latency diff against its
// replay under pt (replays[i] replays reports[i], nil when the plan does not
// fit the perturbed cluster); the replays also land in reportDir (as
// *-whatif.json) when -report is set.
func printWhatIf(w io.Writer, bench string, pt planner.Perturbation, reports, replays []*planner.Report, reportDir string) error {
	fmt.Fprintf(w, "what-if scenario: %s (%s benchmark)\n", pt.String(), bench)
	for i, r := range reports {
		scen := replays[i]
		if scen == nil {
			fmt.Fprintf(w, "[%s] plan infeasible under scenario %s\n", r.Version, pt.String())
			continue
		}
		fmt.Fprintf(w, "[%s]\n%s", r.Version, planner.Diff(r, scen).Render())
		if reportDir != "" {
			path := filepath.Join(reportDir, slug(bench)+"-"+slug(r.Version)+"-whatif.json")
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
