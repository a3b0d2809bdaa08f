// Command predtop-train profiles a sample of a benchmark's pipeline stages
// under one runtime scenario, trains a latency predictor on them, reports
// its held-out accuracy, and saves the trained model. With -stage it then
// predicts one stage's latency and checks it against the simulator's
// profiled latency under the same scenario; with -load it does that for a
// model saved earlier instead of training one.
//
// Usage:
//
//	predtop-train -bench GPT-3 -platform 2 -mesh 1 -conf 1 -arch tran \
//	              -layers 12 -samples 0 -maxlen 3 -epochs 30 -o model.predtop \
//	              [-stage 2:5] [-metrics run.jsonl] [-trace run.json] \
//	              [-listen :9090] [-profile spans.txt] [-runledger runs] [-quiet]
//	predtop-train -load model.predtop -bench GPT-3 -layers 12 -stage 2:5 \
//	              [-platform 2 -mesh 1 -conf 1] [-quiet]
//
// -seed, -quiet, -metrics, -trace, -listen, -profile, and -runledger are the
// shared flags documented in package internal/cli. Here -metrics carries one
// record per epoch (TrainResult.History), the one training fact with no other
// home, written once training returns, so a run that dies mid-training leaves
// none (its flight dump still names the last epoch done); -profile attributes
// wall time to the profile/train/evaluate phases and, under train, to
// training phases and predictor layers, and -trace is the same spans as a
// timeline; the manifest pins config and weight fingerprints, the epochs run,
// the best epoch and its validation loss, and the error-attribution snapshot,
// which carries the held-out MRE and sample count — all from one held-out
// forward. -runledger and -metrics are refused under -load, since a loaded
// model has no training run to record. Names, the stage, and output paths are
// checked before anything is profiled, and the model is saved before any
// telemetry file is written. Evaluation chunks fan across GOMAXPROCS
// goroutines; results are bitwise identical at any setting.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
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
	load := fs.String("load", "", "use this saved model instead of profiling, training and saving one (needs -stage)")
	stageRange := fs.String("stage", "", "predict stage LO:HI and check it against its profiled latency under -platform/-mesh/-conf")
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
	model := predtop.BuildModel(cfg)
	var probe predtop.StageSpec
	if *stageRange != "" {
		if probe, err = parseStage(*stageRange, model.NumSegments()); err != nil {
			return err
		}
	}
	var loaded predtop.Trained
	dirs := []string{*out}
	if *load != "" {
		switch {
		case *stageRange == "":
			return fmt.Errorf("-load needs -stage")
		case shared.Ledger != "":
			return fmt.Errorf("-load has no training run for -runledger to record")
		case shared.Metrics != "":
			return fmt.Errorf("-load has no training run for -metrics to record")
		}
		if loaded, err = predtop.LoadTrained(*load); err != nil {
			return err
		}
		dirs = nil // nothing is saved
	}
	r, err := cli.Open(&shared, cli.Options{
		Tool: "predtop-train", Seed: shared.Seed, Progress: stdout, Stderr: stderr,
		Dirs: dirs,
	})
	if err != nil {
		return err
	}
	defer func() { err = r.Close(err) }()

	if *load != "" {
		return predictStage(r, stdout, loaded, model, probe, scenario)
	}

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

	train, val, test := predtop.Split(rng, len(ds.Samples), *trainFrac, 0.1)
	if len(test) == 0 {
		return fmt.Errorf("-trainfrac %g leaves no held-out stages out of %d", *trainFrac, len(ds.Samples))
	}
	// Train times itself: a train span, with its subtree, on r.Prof.
	trained, res := predtop.Train(net, ds, train, val, predtop.TrainConfig{
		Epochs: *epochs, Patience: *epochs / 3, BatchSize: 4, Seed: shared.Seed,
		Prof: r.Prof, Flight: r.Flight,
	})
	for _, e := range res.History {
		r.Sink.Emit(struct {
			Event string `json:"event"`
			predtop.EpochStats
		}{"epoch", e})
	}
	if res.EarlyStopped {
		r.Log.Printf("early stop at epoch %d", res.EpochsRun)
	}
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
	if *stageRange == "" {
		return nil
	}
	return predictStage(r, stdout, trained, model, probe, scenario)
}

// parseStage reads -stage LO:HI as the stage [LO,HI) of a model with n
// segments.
func parseStage(s string, n int) (predtop.StageSpec, error) {
	lo, hi, ok := strings.Cut(s, ":")
	var sp predtop.StageSpec
	var errLo, errHi error
	sp.Lo, errLo = strconv.Atoi(lo)
	sp.Hi, errHi = strconv.Atoi(hi)
	if !ok || errLo != nil || errHi != nil {
		return sp, fmt.Errorf("-stage %q: want LO:HI", s)
	}
	if sp.Lo < 0 || sp.Hi > n || sp.Lo >= sp.Hi {
		return sp, fmt.Errorf("bad stage range [%d,%d) of %d segments", sp.Lo, sp.Hi, n)
	}
	return sp, nil
}

// predictStage prints the predictor's latency for sp, then the stage's
// profiled latency under sc and the relative error.
func predictStage(r *cli.Run, stdout io.Writer, trained predtop.Trained, model *predtop.Model, sp predtop.StageSpec, sc predtop.Scenario) error {
	ps := r.Prof.Start("predict")
	pred := trained.PredictEncoded(predtop.NewEncoder(model, true).Encode(sp))
	ps.End()
	r.Flight.Note("run", "predicted")
	fmt.Fprintf(stdout, "%s stage [%d,%d) (%s): predicted %.3fms\n",
		model.Config.Name, sp.Lo, sp.Hi, trained.Model.Name(), pred*1e3)

	cs := r.Prof.Start("check")
	trueLat, _, ok := predtop.ProfileStage(model, sp, sc, predtop.DefaultProfiler())
	cs.End()
	if !ok {
		return fmt.Errorf("stage infeasible under %v", sc)
	}
	relErr := math.Abs(pred-trueLat) / trueLat * 100
	fmt.Fprintf(stdout, "profiled under %v: %.3fms (relative error %.2f%%)\n", sc, trueLat*1e3, relErr)
	return nil
}
