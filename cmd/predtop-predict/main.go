// Command predtop-predict loads a model saved by predtop-train and predicts
// the optimal intra-stage latency of a stage, optionally checking it against
// the simulator's profiled ground truth.
//
// Usage:
//
//	predtop-predict -model model.predtop -bench GPT-3 -layers 12 \
//	                -lo 2 -hi 5 [-platform 2 -mesh 1 -conf 1 -check] \
//	                [-metrics run.jsonl] [-trace run.json] [-listen :9090] \
//	                [-profile spans.txt] [-quiet]
//
// -seed, -quiet, -metrics, -trace, -listen, and -profile are the shared flags
// documented in package internal/cli; -seed only names the trace identity
// (predictions are deterministic regardless). Here -metrics carries the run
// config, the prediction, and under -check the check record with the
// profiled latency and the relative error.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"predtop"
	"predtop/internal/cli"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("predtop-predict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelPath := fs.String("model", "model.predtop", "trained model path")
	bench := fs.String("bench", "GPT-3", "benchmark: GPT-3 or MoE")
	layers := fs.Int("layers", 0, "override benchmark depth (0 = Table IV)")
	lo := fs.Int("lo", 0, "stage start segment (inclusive)")
	hi := fs.Int("hi", 1, "stage end segment (exclusive)")
	platformSel := fs.Int("platform", 2, "platform for -check")
	meshIdx := fs.Int("mesh", 1, "mesh for -check")
	confIdx := fs.Int("conf", 1, "configuration for -check")
	check := fs.Bool("check", false, "compare against the simulator's profiled latency")
	shared := cli.Flags{Seed: 1}
	shared.Register(fs, cli.Seed|cli.Quiet|cli.Metrics|cli.Telemetry, map[string]string{
		"seed":  "trace-identity seed (predictions are deterministic regardless)",
		"quiet": "suppress progress output (the prediction still prints)",
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := cli.Bench(*bench, *layers)
	if err != nil {
		return err
	}
	var scenario predtop.Scenario
	if *check {
		platform, err := cli.Platform(*platformSel)
		if err != nil {
			return err
		}
		if scenario, err = cli.FindScenario(platform, *meshIdx, *confIdx); err != nil {
			return err
		}
	}
	model := predtop.BuildModel(cfg)
	if *lo < 0 || *hi > model.NumSegments() || *lo >= *hi {
		return fmt.Errorf("bad stage range [%d,%d) of %d segments", *lo, *hi, model.NumSegments())
	}
	trained, err := predtop.LoadTrained(*modelPath)
	if err != nil {
		return err
	}
	r, err := cli.Open(&shared, cli.Options{
		Tool: "predtop-predict", Seed: shared.Seed, Stdout: stdout, Progress: stderr, Stderr: stderr,
	})
	if err != nil {
		return err
	}
	defer func() { err = r.Close(err) }()

	r.Sink.Emit(struct {
		Event string `json:"event"`
		Tool  string `json:"tool"`
		Bench string `json:"bench"`
		Lo    int    `json:"lo"`
		Hi    int    `json:"hi"`
		Model string `json:"model"`
		Seed  int64  `json:"seed"`
	}{"run", "predtop-predict", cfg.Name, *lo, *hi, *modelPath, shared.Seed})

	ps := r.Prof.Start("predict")
	enc := predtop.NewEncoder(model, true)
	sp := predtop.StageSpec{Lo: *lo, Hi: *hi}
	pred := trained.PredictEncoded(enc.Encode(sp))
	ps.End()
	r.Flight.Note("run", "predicted")
	fmt.Fprintf(stdout, "%s stage [%d,%d) (%s): predicted %.3fms\n",
		cfg.Name, sp.Lo, sp.Hi, trained.Model.Name(), pred*1e3)
	r.Sink.Emit(struct {
		Event       string  `json:"event"`
		Lo          int     `json:"lo"`
		Hi          int     `json:"hi"`
		PredictedMS float64 `json:"predicted_ms"`
	}{"prediction", sp.Lo, sp.Hi, pred * 1e3})
	if !*check {
		return nil
	}

	cs := r.Prof.Start("check")
	trueLat, _, ok := predtop.ProfileStage(model, sp, scenario, predtop.DefaultProfiler())
	cs.End()
	if !ok {
		return fmt.Errorf("stage infeasible under %v", scenario)
	}
	relErr := math.Abs(pred-trueLat) / trueLat * 100
	fmt.Fprintf(stdout, "profiled under %v: %.3fms (relative error %.2f%%)\n", scenario, trueLat*1e3, relErr)
	r.Sink.Emit(struct {
		Event      string  `json:"event"`
		ProfiledMS float64 `json:"profiled_ms"`
		RelErrPct  float64 `json:"rel_err_pct"`
	}{"check", trueLat * 1e3, relErr})
	return nil
}
