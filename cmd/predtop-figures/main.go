// Command predtop-figures regenerates the paper's motivating figures:
// Fig 2 (latency variation across random parallelization plans) and Fig 6
// (the 1F1B pipeline timeline behind the Eqn-4 white-box model).
//
// Usage:
//
//	predtop-figures [-preset quick|paper|paperlite] [-fig 2|6|0] [-out results.txt]
//
// -preset is the shared flag documented in package internal/cli.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"predtop/internal/cli"
	"predtop/internal/experiments"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("predtop-figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure to regenerate: 2, 6, or 0 for all")
	out := fs.String("out", "", "also write the report to this file")
	var shared cli.Flags
	shared.Register(fs, cli.Preset, nil)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := shared.ExperimentPreset()
	if err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		w = io.MultiWriter(stdout, f)
	}
	if *fig == 0 || *fig == 2 {
		for _, r := range experiments.RunFig2(p, stderr) {
			fmt.Fprintln(w, r.Render())
		}
	}
	if *fig == 0 || *fig == 6 {
		fmt.Fprintln(w, experiments.RenderFig6())
	}
	return nil
}
