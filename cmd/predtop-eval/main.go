// Command predtop-eval regenerates the prediction-accuracy results of the
// paper: the MRE grids of Tables V and VI and their aggregations in Figs 3,
// 8, and 9. With -fig it regenerates one of the motivating figures instead:
// Fig 2 (latency variation across random parallelization plans) or Fig 6 (the
// 1F1B pipeline timeline behind the Eqn-4 white-box model).
//
// Usage:
//
//	predtop-eval [-preset quick|paper|paperlite] [-bench GPT-3|MoE|all]
//	             [-platform 1|2|0] [-fig 2|6] [-ablate] [-tables=false]
//	             [-seed 0] [-trace run.json] [-listen :9090]
//	             [-profile spans.txt] [-runledger runs] [-quiet]
//
// -preset, -seed, -quiet, -trace, -listen, -profile, and -runledger are the
// shared flags documented in package internal/cli; -seed 0 keeps the
// preset's seed, and progress goes to stderr (the report always prints on
// stdout). -profile covers grid phases and predictor layers (-trace is the
// same spans as a timeline). The manifest holds the run config, per-family
// error-attribution snapshots merged across the grid's cells with their
// held-out MRE, and, as canonical metrics, every number the report prints:
// each table's cells, win share, spec, stage-class and held-out counts, Fig
// 2's quantiles and each ablation row. EXPERIMENTS.md is rendered from those
// manifests (TestExperimentsRendered). Grid cells fan across GOMAXPROCS
// goroutines.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
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
	fig := fs.Int("fig", 0, "regenerate motivating figure 2 or 6 instead of the accuracy results")
	ablate := fs.Bool("ablate", false, "also run the DAG-Transformer design ablation")
	tables := fs.Bool("tables", true, "run the MRE tables (disable for -ablate only)")
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
	benches := p.Benchmarks()
	if !strings.EqualFold(*bench, "all") {
		cfg, err := cli.Bench(*bench, 0)
		if err != nil {
			return err
		}
		benches = slices.DeleteFunc(benches, func(b experiments.Benchmark) bool { return b.Name != cfg.Name })
	}
	platforms := []cluster.Platform{cluster.Platform1(), cluster.Platform2()}
	if *platformSel != 0 {
		plat, err := cli.Platform(*platformSel)
		if err != nil {
			return err
		}
		platforms = []cluster.Platform{plat}
	}
	// Fig 6 reads no seed, so it records none: every preset is one run.
	seed := p.Seed
	if *fig == 6 {
		seed = 0
	}
	r, err := cli.Open(&shared, cli.Options{
		Tool: "predtop-eval", Seed: seed, Progress: stderr, Stderr: stderr,
	})
	if err != nil {
		return err
	}
	defer func() { err = r.Close(err) }()
	p.Obs = r.Observer()

	// Each branch records only the config keys it reads.
	man := r.Man
	w, progress := stdout, r.Log.Writer()
	record := func(metrics map[string]float64) {
		for k, v := range metrics {
			man.RecordMetric(k, v)
		}
	}
	switch *fig {
	case 2:
		man.SetConfig("preset", p.Name)
		man.SetConfig("bench", strings.ToLower(*bench))
		man.SetConfig("fig", "2")
		for _, b := range benches {
			res := experiments.RunFig2(p, b, progress)
			fmt.Fprintln(w, res.Render())
			record(res.Summary().Metrics())
		}
		return nil
	case 6:
		man.SetConfig("fig", "6")
		fmt.Fprintln(w, experiments.RenderFig6())
		return nil
	}
	man.SetConfig("preset", p.Name)
	man.SetConfig("bench", strings.ToLower(*bench))
	man.SetConfig("ablate", fmt.Sprint(*ablate))
	man.SetConfig("tables", fmt.Sprint(*tables))
	if *tables {
		man.SetConfig("platform", fmt.Sprint(*platformSel))
	}
	var mreTables []*experiments.MRETable
	for _, b := range benches {
		if !*tables {
			break
		}
		for _, plat := range platforms {
			tableName := "Table V"
			if plat.Index == 2 {
				tableName = "Table VI"
			}
			fmt.Fprintf(w, "=== %s — %s on %s (preset %s) ===\n", tableName, b.Name, plat.Name, p.Name)
			t := experiments.RunMRETable(p, b, plat, progress)
			fmt.Fprintln(w, t.Render())
			record(t.Metrics())
			mreTables = append(mreTables, t)
		}
	}

	if len(mreTables) > 0 {
		aggs := experiments.Aggregates(mreTables)
		fmt.Fprintln(w, experiments.RenderAggregates(aggs, false))
		fmt.Fprintln(w, experiments.RenderAggregates(aggs, true))
		fmt.Fprintln(w, experiments.RenderFig3(mreTables))
	}

	if *ablate {
		for _, b := range benches {
			rows := experiments.RunAblation(p, b, cluster.Platform1(), 0.5, progress)
			fmt.Fprintln(w, experiments.RenderAblation(b.Name, rows))
			record(experiments.AblationMetrics(b.Name, rows))
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
