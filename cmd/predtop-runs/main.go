// Command predtop-runs inspects the run ledger: the manifests that
// predtop-train, predtop-eval, predtop-plan, predtop-serve, and
// predtop-replay record under -runledger (conventionally the runs/
// directory). Each manifest splits into a canonical section — a pure
// function of (tool, seed, result-determining config), byte-identical
// across reruns — and a session section holding wall-clock and host facts,
// so "did this change move the numbers" is a file diff, not scrollback
// archaeology.
//
// Usage:
//
//	predtop-runs [-dir runs] list [-tool predtop-train] [-files]
//	predtop-runs [-dir runs] show [-canonical] [REF]
//	predtop-runs [-dir runs] diff [-gate] [-mre 2] [-latency 5] [BASE] [OTHER]
//	predtop-runs [-dir runs] baseline [REF]
//
// A REF is "latest" (the default), "baseline" (the pinned run), an existing
// file path, or a run id / unique id prefix. list prints every stored run
// oldest first, marking the pinned baseline with '*'. show prints one
// manifest; -canonical emits exactly the canonical JSON bytes (the
// serialization the run id hashes), so two same-seed runs can be compared
// with cmp. diff renders a side-by-side comparison — identity fields, Eqn-4
// plan totals, and the error attribution of every label both runs carry
// (its whole held-out MRE, then per op type, node count and depth); with no
// refs it compares the pinned baseline against the latest run, with one ref
// the baseline against that run. -gate turns the diff into a regression
// sentinel: exit 1 when any shared attribution label's held-out MRE grew by
// more than -mre points or any plan's Eqn-4 total grew by more than -latency
// percent. baseline pins a run (or prints the current pin).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"predtop/internal/cli"
	"predtop/internal/runledger"
)

const usage = `usage: predtop-runs [-dir runs] <subcommand> [flags] [args]

subcommands:
  list      [-tool NAME] [-files]                 list stored runs, oldest first
  show      [-canonical] [REF]                    print one manifest
  diff      [-gate] [-mre 2] [-latency 5] [BASE] [OTHER]
                                                  compare two runs (default: baseline vs latest)
  baseline  [REF]                                 pin a run as the gate baseline (no REF: print the pin)

A REF is "latest", "baseline", a file path, or a run id / unique prefix.
`

func main() {
	os.Exit(cli.Main(run))
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("predtop-runs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "runs", "run-ledger directory")
	fs.Usage = func() { fmt.Fprint(stderr, usage) }
	if err := fs.Parse(args); err != nil {
		return err
	}
	sub := map[string]func(*runledger.Store, *flag.FlagSet, []string, io.Writer, io.Writer) error{
		"list": runList, "show": runShow, "diff": runDiff, "baseline": runBaseline,
	}[fs.Arg(0)]
	if sub == nil { // including none at all
		fs.Usage()
		return fmt.Errorf("unknown subcommand %q", fs.Arg(0))
	}
	subFlags := flag.NewFlagSet(fs.Arg(0), flag.ContinueOnError)
	subFlags.SetOutput(stderr)
	return sub(runledger.Open(*dir), subFlags, fs.Args()[1:], stdout, stderr)
}

func runList(store *runledger.Store, fs *flag.FlagSet, args []string, stdout, _ io.Writer) error {
	tool := fs.String("tool", "", "only list runs of this tool")
	files := fs.Bool("files", false, "also print each run's file path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	entries, err := store.List()
	if err != nil {
		return err
	}
	baseline, _ := store.Baseline() // unpinned is fine: nothing marked
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, " \tRUN\tTOOL\tSEED\tSTARTED\tWALL")
	n := 0
	for _, e := range entries {
		if *tool != "" && e.Tool != *tool {
			continue
		}
		n++
		mark := " "
		if baseline != "" && e.Path == baseline {
			mark = "*"
		}
		started := "-"
		if e.StartedUnix != 0 {
			started = time.Unix(e.StartedUnix, 0).UTC().Format("2006-01-02 15:04:05")
		}
		name := runName(e.Path)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%.1fs\n", mark, name, e.Tool, e.Seed, started, e.WallSeconds)
		if *files {
			fmt.Fprintf(tw, " \t  %s\t\t\t\t\n", e.Path)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if n == 0 {
		fmt.Fprintf(stdout, "no runs recorded in %s\n", store.Dir())
	}
	return nil
}

// runName is the run's display name: the stored file name without the .json
// extension, which keeps the .N rerun suffix visible (and referencable).
func runName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".json")
}

func runShow(store *runledger.Store, fs *flag.FlagSet, args []string, stdout, _ io.Writer) error {
	canonical := fs.Bool("canonical", false, "print exactly the canonical JSON bytes (the section the run id hashes)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ref := "latest"
	if fs.NArg() > 0 {
		ref = fs.Arg(0)
	}
	path, err := store.Resolve(ref)
	if err != nil {
		return err
	}
	m, err := runledger.Load(path)
	if err != nil {
		return err
	}
	if *canonical {
		b, err := m.CanonicalJSON()
		if err != nil {
			return err
		}
		_, err = stdout.Write(b)
		return err
	}
	id, err := m.RunID()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "run %s (%s)\n", id, path)
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return nil
}

func runDiff(store *runledger.Store, fs *flag.FlagSet, args []string, stdout, stderr io.Writer) error {
	gate := fs.Bool("gate", false, "exit 1 when the comparison regresses past the thresholds")
	mre := fs.Float64("mre", 2, "gate threshold: tolerated per-population MRE growth in percentage points (0 = off)")
	latency := fs.Float64("latency", 5, "gate threshold: tolerated plan Eqn-4 total growth in percent (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	baseRef, otherRef := "baseline", "latest"
	switch fs.NArg() {
	case 0:
	case 1:
		otherRef = fs.Arg(0)
	case 2:
		baseRef, otherRef = fs.Arg(0), fs.Arg(1)
	default:
		return fmt.Errorf("diff takes at most two run references")
	}
	basePath, err := store.Resolve(baseRef)
	if err != nil {
		return err
	}
	otherPath, err := store.Resolve(otherRef)
	if err != nil {
		return err
	}
	base, err := runledger.Load(basePath)
	if err != nil {
		return err
	}
	other, err := runledger.Load(otherPath)
	if err != nil {
		return err
	}
	d := runledger.Compare(base, other, runName(basePath), runName(otherPath))
	fmt.Fprint(stdout, d.Render())
	if !*gate {
		return nil
	}
	msgs := d.Gate(runledger.GateThresholds{MREPct: *mre, LatencyPct: *latency})
	if len(msgs) == 0 {
		fmt.Fprintln(stdout, "gate: ok")
		return nil
	}
	for _, msg := range msgs {
		fmt.Fprintln(stderr, "gate:", msg)
	}
	return fmt.Errorf("%d regression(s) past thresholds", len(msgs))
}

func runBaseline(store *runledger.Store, fs *flag.FlagSet, args []string, stdout, _ io.Writer) error {
	if err := fs.Parse(args); err != nil {
		return err
	}

	if fs.NArg() == 0 {
		path, err := store.Baseline()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "baseline: %s (%s)\n", runName(path), path)
		return nil
	}
	path, err := store.SetBaseline(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pinned baseline: %s (%s)\n", runName(path), path)
	return nil
}
