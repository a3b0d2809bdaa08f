// Command predtop-eval regenerates the prediction-accuracy results of the
// paper: the MRE grids of Tables V and VI and their aggregations in Figs 3,
// 8, and 9. With -fig it regenerates one of the motivating figures instead:
// Fig 2 (latency variation across random parallelization plans) or Fig 6 (the
// 1F1B pipeline timeline behind the Eqn-4 white-box model).
//
// Usage:
//
//	predtop-eval [-preset quick|paper|paperlite] [-bench GPT-3|MoE|all]
//	             [-platform 1|2|0] [-fig3frac 50] [-fig 2|6] [-seed 0]
//	             [-out results.txt] [-trace run.json] [-listen :9090]
//	             [-profile spans.txt] [-runledger runs] [-quiet]
//
// -preset, -seed, -quiet, -trace, -listen, -profile, and -runledger are the
// shared flags documented in package internal/cli; -seed 0 keeps the
// preset's seed, and progress goes to stderr (the report always prints).
// -profile covers grid phases and predictor layers (-trace is the same spans
// as a timeline); the manifest holds the run config, per-table win rates and
// per-family error-attribution snapshots, each merged across the grid's
// cells with its held-out MRE. Grid cells fan across GOMAXPROCS goroutines.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"predtop/internal/cli"
	"predtop/internal/cluster"
	"predtop/internal/experiments"
	"predtop/internal/predictor"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("predtop-eval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "all", "benchmark: GPT-3, MoE, or all")
	platformSel := fs.Int("platform", 0, "platform index: 1, 2, or 0 for both")
	fig3frac := fs.Int("fig3frac", 50, "training fraction (%) for the Fig 3 comparison")
	fig := fs.Int("fig", 0, "regenerate motivating figure 2 or 6 instead of the accuracy results")
	ablate := fs.Bool("ablate", false, "also run the DAG-Transformer design ablation")
	tables := fs.Bool("tables", true, "run the MRE tables (disable for -ablate only)")
	out := fs.String("out", "", "also write the report to this file")
	var shared cli.Flags
	shared.Register(fs, cli.Preset|cli.Seed|cli.Quiet|cli.Telemetry|cli.Ledger, map[string]string{
		"seed":    "override the preset's random seed (0 = preset default)",
		"quiet":   "suppress per-cell progress on stderr (the report still prints)",
		"profile": "write a per-phase/per-layer self-time span profile to this file",
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, err := shared.ExperimentPreset()
	if err != nil {
		return err
	}
	if *fig != 0 && *fig != 2 && *fig != 6 {
		return fmt.Errorf("unknown figure %d (want 2 or 6)", *fig)
	}
	wantBench := "" // every benchmark
	if !strings.EqualFold(*bench, "all") {
		cfg, err := cli.Bench(*bench, 0)
		if err != nil {
			return err
		}
		wantBench = cfg.Name
	}
	platforms := []cluster.Platform{cluster.Platform1(), cluster.Platform2()}
	if *platformSel != 0 {
		plat, err := cli.Platform(*platformSel)
		if err != nil {
			return err
		}
		platforms = []cluster.Platform{plat}
	}
	r, err := cli.Open(&shared, cli.Options{
		Tool: "predtop-eval", Seed: p.Seed, Stdout: stdout, Progress: stderr, Stderr: stderr, Out: *out,
	})
	if err != nil {
		return err
	}
	defer func() { err = r.Close(err) }()
	p.Obs = r.Observer()

	man := r.Man
	man.SetConfig("preset", p.Name)
	man.SetConfig("bench", strings.ToLower(*bench))
	man.SetConfig("platform", fmt.Sprint(*platformSel))
	man.SetConfig("fig3frac", fmt.Sprint(*fig3frac))
	man.SetConfig("ablate", fmt.Sprint(*ablate))
	man.SetConfig("tables", fmt.Sprint(*tables))
	if *fig != 0 {
		man.SetConfig("fig", fmt.Sprint(*fig))
	}

	w, progress := r.Out, r.Log.Writer()
	switch *fig {
	case 2:
		for _, res := range experiments.RunFig2(p, progress) {
			fmt.Fprintln(w, res.Render())
		}
		return nil
	case 6:
		fmt.Fprintln(w, experiments.RenderFig6())
		return nil
	}
	var mreTables []*experiments.MRETable
	for _, b := range p.Benchmarks() {
		if !*tables {
			break
		}
		if wantBench != "" && wantBench != b.Name {
			continue
		}
		for _, plat := range platforms {
			tableName := "Table V"
			if plat.Index == 2 {
				tableName = "Table VI"
			}
			fmt.Fprintf(w, "=== %s — %s on %s (preset %s) ===\n", tableName, b.Name, plat.Name, p.Name)
			t := experiments.RunMRETable(p, b, plat, progress)
			fmt.Fprint(w, t.Render())
			fmt.Fprintf(w, "DAG Transformer wins %.1f%% of cells\n\n", t.WinRate(2)*100)
			man.RecordMetric(fmt.Sprintf("win_rate_%s_p%d", strings.ToLower(b.Name), plat.Index), t.WinRate(2)*100)
			mreTables = append(mreTables, t)
		}
	}

	if len(mreTables) > 0 {
		aggs := experiments.Aggregates(mreTables)
		fmt.Fprintln(w, experiments.RenderAggregates(aggs, false))
		fmt.Fprintln(w, experiments.RenderAggregates(aggs, true))
		fmt.Fprintln(w, experiments.RenderFig3(mreTables, *fig3frac))
	}

	if *ablate {
		for _, b := range p.Benchmarks() {
			if wantBench != "" && wantBench != b.Name {
				continue
			}
			rows := experiments.RunAblation(p, b, cluster.Platform1(), 0.5, progress)
			fmt.Fprintln(w, experiments.RenderAblation(b.Name, rows))
		}
	}

	if man != nil {
		// Merge each family's attribution across the tables so the manifest
		// answers "where do this predictor's residuals live" for the whole run.
		parts := map[string][]*predictor.Attribution{}
		for _, t := range mreTables {
			for fam, a := range t.Attribution {
				parts[fam] = append(parts[fam], a)
			}
		}
		for fam, as := range parts {
			man.RecordAttribution(fam, predictor.MergeAttributions(as...))
		}
	}
	return nil
}
