// Command predtop-train profiles a sample of a benchmark's pipeline stages
// under one runtime scenario, trains a latency predictor on them, reports
// its held-out accuracy, and saves the trained model for predtop-predict.
//
// Usage:
//
//	predtop-train -bench GPT-3 -platform 2 -mesh 1 -conf 1 -arch tran \
//	              -layers 12 -samples 0 -maxlen 3 -epochs 30 -o model.predtop \
//	              [-metrics run.jsonl] [-trace run.json] [-listen :9090] \
//	              [-profile spans.txt] [-runledger runs] [-quiet]
//
// -seed, -quiet, -metrics, -trace, -listen, -profile, and -runledger are the
// shared flags documented in package internal/cli. Here -metrics carries the
// run config, one record per epoch, the restore event, and a summary with the
// held-out MRE; -profile attributes wall time to the profile/train/evaluate
// phases and, under train, to training phases and predictor layers, and
// -trace is the same spans as a timeline (epoch wall time is in the epoch
// records); the manifest pins config and weight fingerprints and the
// error-attribution snapshot, which carries the held-out MRE and sample count
// — all from one held-out forward. Names and
// output paths are checked before anything is profiled, and the model is
// saved before any telemetry file is written. Evaluation chunks fan across
// GOMAXPROCS goroutines; results are bitwise identical at any setting.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"predtop"
	"predtop/internal/cli"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("predtop-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "GPT-3", "benchmark: GPT-3 or MoE")
	platformSel := fs.Int("platform", 2, "platform index: 1 or 2")
	meshIdx := fs.Int("mesh", 1, "mesh index (Table II)")
	confIdx := fs.Int("conf", 1, "configuration index (Table III)")
	arch := fs.String("arch", "tran", "architecture: tran, gcn, or gat")
	layers := fs.Int("layers", 0, "override benchmark depth (0 = Table IV)")
	samples := fs.Int("samples", 0, "stages to profile (0 = whole universe)")
	maxLen := fs.Int("maxlen", 3, "max stage length in segments")
	epochs := fs.Int("epochs", 30, "training epochs (cosine-decay horizon)")
	trainFrac := fs.Float64("trainfrac", 0.5, "training fraction")
	out := fs.String("o", "model.predtop", "output model path")
	shared := cli.Flags{Seed: 1}
	shared.Register(fs, cli.Seed|cli.Quiet|cli.Metrics|cli.Telemetry|cli.Ledger, map[string]string{
		"profile": "write a per-phase/per-layer self-time span profile to this file",
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := cli.Bench(*bench, *layers)
	if err != nil {
		return err
	}
	platform, err := cli.Platform(*platformSel)
	if err != nil {
		return err
	}
	scenario, err := cli.FindScenario(platform, *meshIdx, *confIdx)
	if err != nil {
		return err
	}
	spec, err := cli.Arch(*arch)
	if err != nil {
		return err
	}
	r, err := cli.Open(&shared, cli.Options{
		Tool: "predtop-train", Seed: shared.Seed, Stdout: stdout, Progress: stdout, Stderr: stderr,
		Dirs: []string{*out},
	})
	if err != nil {
		return err
	}
	defer func() { err = r.Close(err) }()
	model := predtop.BuildModel(cfg)

	r.Sink.Emit(struct {
		Event    string `json:"event"`
		Tool     string `json:"tool"`
		Bench    string `json:"bench"`
		Platform int    `json:"platform"`
		Mesh     int    `json:"mesh"`
		Conf     int    `json:"conf"`
		Arch     string `json:"arch"`
		MaxLen   int    `json:"maxlen"`
		Epochs   int    `json:"epochs"`
		Seed     int64  `json:"seed"`
	}{"run", "predtop-train", cfg.Name, *platformSel, *meshIdx, *confIdx, *arch, *maxLen, *epochs, shared.Seed})

	// Result-determining flags land in the manifest's canonical section; paths
	// and addresses are session facts.
	man := r.Man
	man.SetConfig("bench", cfg.Name)
	man.SetConfig("platform", fmt.Sprint(*platformSel))
	man.SetConfig("mesh", fmt.Sprint(*meshIdx))
	man.SetConfig("conf", fmt.Sprint(*confIdx))
	man.SetConfig("arch", strings.ToLower(*arch))
	man.SetConfig("layers", fmt.Sprint(cfg.Layers))
	man.SetConfig("samples", fmt.Sprint(*samples))
	man.SetConfig("maxlen", fmt.Sprint(*maxLen))
	man.SetConfig("epochs", fmt.Sprint(*epochs))
	man.SetConfig("trainfrac", fmt.Sprint(*trainFrac))
	man.SetOutput("o", *out)

	rng := rand.New(rand.NewSource(shared.Seed))
	profSpan := r.Prof.Start("profile")
	specs := predtop.SampleStages(model, rng, *samples, *maxLen)
	enc := predtop.NewEncoder(model, true)
	ds := predtop.BuildDataset(enc, specs, scenario, predtop.DefaultProfiler())
	profSpan.End()
	r.Flight.Note("run", "profiled")
	r.Log.Printf("profiled %d stages of %s under %v", len(ds.Samples), cfg.Name, scenario)

	net, err := spec.Build(rng)
	if err != nil {
		return err
	}

	hooks := &predtop.TrainHooks{
		Profiler: r.Prof,
		Flight:   r.Flight,
		OnEpoch: func(e predtop.EpochStats) {
			r.Sink.Emit(struct {
				Event string `json:"event"`
				predtop.EpochStats
			}{"epoch", e})
		},
		OnEarlyStop: func(epoch int) {
			r.Log.Printf("early stop at epoch %d", epoch)
		},
		OnRestore: func(bestEpoch int, bestValLoss float64) {
			r.Sink.Emit(struct {
				Event       string  `json:"event"`
				BestEpoch   int     `json:"best_epoch"`
				BestValLoss float64 `json:"best_val_loss"`
			}{"restore", bestEpoch, bestValLoss})
		},
	}

	train, val, test := predtop.Split(rng, len(ds.Samples), *trainFrac, 0.1)
	if len(test) == 0 {
		return fmt.Errorf("-trainfrac %g leaves no held-out stages out of %d", *trainFrac, len(ds.Samples))
	}
	// Train times itself: a train span, with its subtree, on hooks.Profiler.
	trained, res := predtop.Train(net, ds, train, val, predtop.TrainConfig{
		Epochs: *epochs, Patience: *epochs / 3, BatchSize: 4, Seed: shared.Seed,
		Hooks: hooks,
	})
	r.Log.Printf("trained %s for %d epochs (best val %.4f at epoch %d) in %.1fs",
		net.Name(), res.EpochsRun, res.BestValLoss, res.BestEpoch, res.WallSeconds)

	evalSpan := r.Prof.Start("evaluate")
	attr := trained.Evaluate(ds, test)
	mre := attr.MREPct
	evalSpan.End()
	r.Flight.Note("run", "evaluated")
	r.Log.Printf("test MRE: %.2f%% over %d held-out stages", mre, len(test))

	// Saved before Close writes any telemetry file, so a failed trace or
	// ledger write cannot lose the model.
	if err := predtop.SaveTrained(*out, trained); err != nil {
		return err
	}
	r.Log.Printf("saved model to %s", *out)

	if man != nil {
		man.SetWeightsFingerprint(predtop.WeightFingerprint(trained))
		man.RecordMetric("epochs_run", float64(res.EpochsRun))
		man.RecordMetric("best_epoch", float64(res.BestEpoch))
		man.RecordMetric("best_val_loss", res.BestValLoss)
		man.RecordAttribution(net.Name(), attr)
		man.RecordSessionMetric("train_wall_seconds", res.WallSeconds)
	}
	r.Sink.Emit(struct {
		Event       string  `json:"event"`
		EpochsRun   int     `json:"epochs_run"`
		BestEpoch   int     `json:"best_epoch"`
		BestValLoss float64 `json:"best_val_loss"`
		WallSeconds float64 `json:"wall_s"`
		TestMRE     float64 `json:"test_mre_pct"`
		TestStages  int     `json:"test_stages"`
	}{"summary", res.EpochsRun, res.BestEpoch, res.BestValLoss, res.WallSeconds, mre, len(test)})
	return nil
}
