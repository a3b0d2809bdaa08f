// Command predtop-train profiles a sample of a benchmark's pipeline stages
// under one runtime scenario, trains a latency predictor on them, reports
// its held-out accuracy, and saves the trained model for predtop-predict.
//
// Usage:
//
//	predtop-train -bench GPT-3 -platform 2 -mesh 1 -conf 1 -arch tran \
//	              -layers 12 -samples 0 -maxlen 3 -epochs 30 -o model.predtop \
//	              [-metrics run.jsonl] [-trace run.json] [-listen :9090] \
//	              [-profile spans.txt] [-driftmre 25] \
//	              [-runledger runs] [-quiet]
//
// -metrics streams JSONL records (run config, one record per epoch, a final
// summary, accuracy records, and a metrics snapshot); -trace writes a
// Chrome-tracing JSON file (profile/train/evaluate phases plus one slice per
// training epoch) loadable in Perfetto; -listen serves live telemetry over
// HTTP while the run is in flight — GET /metrics in Prometheus text format
// (training counters and histograms plus sampled Go runtime gauges),
// GET /healthz, GET /debug/flightrecorder, and /debug/pprof/; -profile writes
// a hierarchical self-time span tree attributing wall time to training phases
// and individual predictor layers; -driftmre arms the accuracy monitor's
// drift warning at the given MRE percentage; -runledger records the run's
// manifest — config fingerprint, trained-weight fingerprint, held-out MRE,
// per-key accuracy stats, and an error-attribution snapshot — into the given
// run-ledger directory for predtop-runs to list, diff, and gate; -quiet
// suppresses progress lines. All of them observe only — trained weights are
// bitwise identical with or without them.
//
// Every run derives a deterministic trace id from -seed; the same id appears
// in the Prometheus exposition (predtop_run_info), every JSONL record, the
// Chrome trace metadata, progress log lines, and flight-recorder dumps, so a
// single grep correlates all channels of one run. A panic in any parallel
// worker dumps the flight recorder's recent-event window plus goroutine
// stacks to stderr as JSONL before the panic surfaces, as does SIGQUIT.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"predtop"
)

func main() {
	bench := flag.String("bench", "GPT-3", "benchmark: GPT-3 or MoE")
	platformSel := flag.Int("platform", 2, "platform index: 1 or 2")
	meshIdx := flag.Int("mesh", 1, "mesh index (Table II)")
	confIdx := flag.Int("conf", 1, "configuration index (Table III)")
	arch := flag.String("arch", "tran", "architecture: tran, gcn, or gat")
	layers := flag.Int("layers", 0, "override benchmark depth (0 = Table IV)")
	samples := flag.Int("samples", 0, "stages to profile (0 = whole universe)")
	maxLen := flag.Int("maxlen", 3, "max stage length in segments")
	epochs := flag.Int("epochs", 30, "training epochs (cosine-decay horizon)")
	trainFrac := flag.Float64("trainfrac", 0.5, "training fraction")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "data-parallel training workers (0 = all cores, 1 = serial; results are bitwise identical)")
	out := flag.String("o", "model.predtop", "output model path")
	metricsPath := flag.String("metrics", "", "write JSONL run records and a metrics snapshot to this file")
	tracePath := flag.String("trace", "", "write a Chrome-tracing (Perfetto) JSON file to this path")
	listen := flag.String("listen", "", "serve live telemetry (/metrics, /healthz, /debug/flightrecorder, /debug/pprof/) on this address, e.g. :9090")
	profilePath := flag.String("profile", "", "write a per-phase/per-layer self-time span profile to this file")
	driftMRE := flag.Float64("driftmre", 0, "warn and count drift when held-out MRE exceeds this percentage (0 = off)")
	ledgerDir := flag.String("runledger", "", "record this run's manifest into the given run-ledger directory (see predtop-runs)")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	flag.Parse()

	started := time.Now()
	ledger := predtop.OpenRunLedger(*ledgerDir)
	var man *predtop.RunManifest
	if ledger != nil {
		man = predtop.NewRunManifest("predtop-train", *seed)
		man.Session.StartedUnix = started.Unix()
	}

	// One deterministic correlation identity per run: seed in, trace id out.
	tc := predtop.NewTraceContext(*seed, "predtop-train")
	ctx := predtop.WithTraceContext(context.Background(), tc)
	fr := predtop.NewFlightRecorder(0)
	fr.SetTraceContext(tc)
	predtop.SetWorkerPanicHook(fr.PanicHook(os.Stderr))
	stopSig := fr.HandleSignals(os.Stderr)
	defer stopSig()

	lg := predtop.NewProgressLogger(os.Stdout, *quiet).WithTrace(tc)
	var sink *predtop.EventSink
	var reg *predtop.MetricsRegistry
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		sink = predtop.NewEventSink(f)
		sink.SetTraceContext(tc)
		sink.AttachFlight(fr)
		reg = predtop.NewMetricsRegistry()
	}
	var tb *predtop.TraceBuilder
	if *tracePath != "" {
		tb = predtop.NewTrace()
		tb.SetTraceID(tc.TraceID())
	}
	if *listen != "" {
		if reg == nil {
			reg = predtop.NewMetricsRegistry()
		}
		srv, err := predtop.StartMetricsServer(ctx, predtop.MetricsServerConfig{
			Addr: *listen, Registry: reg, Flight: fr,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		sampler := predtop.StartRuntimeSampler(reg, 0)
		defer sampler.Stop()
		lg.Printf("serving telemetry at %s/metrics", srv.URL())
	}
	reg.SetRunInfo(tc)
	predtop.PublishKernelInfo(reg)
	var prof *predtop.SpanProfiler
	if *profilePath != "" {
		prof = predtop.NewSpanProfiler()
		if tb != nil {
			prof.AttachTrace(tb, "spans")
		}
	}
	var acc *predtop.AccuracyMonitor
	if reg != nil || sink != nil || man != nil {
		acc = predtop.NewAccuracyMonitor(predtop.AccuracyConfig{
			DriftThresholdPct: *driftMRE, MinSamples: 1, Metrics: reg, Log: lg,
		})
	}

	cfg := predtop.GPT3Config()
	if strings.EqualFold(*bench, "MoE") {
		cfg = predtop.MoEConfig()
	}
	if *layers > 0 {
		cfg.Layers = *layers
	}
	model := predtop.BuildModel(cfg)

	platform := predtop.Platform2()
	if *platformSel == 1 {
		platform = predtop.Platform1()
	}
	var scenario predtop.Scenario
	found := false
	for _, sc := range predtop.Scenarios(platform) {
		if sc.Mesh.Index == *meshIdx && sc.Config.Index == *confIdx {
			scenario, found = sc, true
		}
	}
	if !found {
		log.Fatalf("no scenario mesh=%d conf=%d on platform %d", *meshIdx, *confIdx, *platformSel)
	}

	fr.Note("run", "start")
	sink.Emit(struct {
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
		Workers  int    `json:"workers"`
	}{"run", "predtop-train", cfg.Name, *platformSel, *meshIdx, *confIdx, *arch, *maxLen, *epochs, *seed, *workers})

	// Result-determining flags land in the manifest's canonical section;
	// paths, addresses, and worker counts are session facts (reruns at any
	// worker count are bitwise identical, so they must not move the run id).
	man.SetTraceID(tc.TraceID())
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
	man.SetConfig("driftmre", fmt.Sprint(*driftMRE))
	man.SetOutput("o", *out)
	man.SetOutput("metrics", *metricsPath)
	man.SetOutput("trace", *tracePath)
	man.SetOutput("listen", *listen)
	man.SetOutput("profile", *profilePath)
	if man != nil {
		man.RecordSessionMetric("workers", float64(*workers))
	}

	rng := rand.New(rand.NewSource(*seed))
	profSpan := tb.Begin("phases", "profile")
	specs := predtop.SampleStages(model, rng, *samples, *maxLen)
	enc := predtop.NewEncoder(model, true)
	ds := predtop.BuildDataset(enc, specs, scenario, predtop.DefaultProfiler())
	profSpan.End()
	fr.Note("run", "profiled")
	lg.Printf("profiled %d stages of %s under %v", len(ds.Samples), cfg.Name, scenario)

	var net predtop.PredictorModel
	switch strings.ToLower(*arch) {
	case "gcn":
		net = predtop.NewGCN(rng, predtop.GCNConfig{Layers: 6, Dim: 64})
	case "gat":
		net = predtop.NewGAT(rng, predtop.GATConfig{Layers: 6, Dim: 24, Heads: 3})
	case "tran":
		net = predtop.NewDAGTransformer(rng, predtop.TransformerConfig{Layers: 2, Dim: 32, Heads: 2, FFNDim: 64})
	default:
		log.Fatalf("unknown architecture %q", *arch)
	}

	// Epoch slices carry cumulative wall offsets from the start of training,
	// anchored at the trace's wall-clock position so they align with the
	// Begin/End phase spans.
	trainStart := tb.Since()
	prevWall := 0.0
	hooks := &predtop.TrainHooks{
		Metrics:  reg,
		Profiler: prof,
		Flight:   fr,
		OnEpoch: func(e predtop.EpochStats) {
			sink.Emit(struct {
				Event string `json:"event"`
				predtop.EpochStats
			}{"epoch", e})
			tb.Slice("epochs", fmt.Sprintf("epoch %d", e.Epoch), trainStart+prevWall, e.WallSeconds-prevWall)
			prevWall = e.WallSeconds
		},
		OnEarlyStop: func(epoch int) {
			tb.Instant("epochs", "early stop")
			sink.Emit(struct {
				Event string `json:"event"`
				Epoch int    `json:"epoch"`
			}{"early_stop", epoch})
			lg.Printf("early stop at epoch %d", epoch)
		},
		OnRestore: func(bestEpoch int, bestValLoss float64) {
			sink.Emit(struct {
				Event       string  `json:"event"`
				BestEpoch   int     `json:"best_epoch"`
				BestValLoss float64 `json:"best_val_loss"`
			}{"restore", bestEpoch, bestValLoss})
		},
	}

	train, val, test := predtop.Split(rng, len(ds.Samples), *trainFrac, 0.1)
	trainSpan := tb.Begin("phases", "train")
	trained, res := predtop.Train(net, ds, train, val, predtop.TrainConfig{
		Epochs: *epochs, Patience: *epochs / 3, BatchSize: 4, Seed: *seed, Workers: *workers,
		Hooks: hooks,
	})
	trainSpan.End()
	lg.Printf("trained %s for %d epochs (best val %.4f at epoch %d) in %.1fs",
		net.Name(), res.EpochsRun, res.BestValLoss, res.BestEpoch, res.WallSeconds)

	evalSpan := tb.Begin("phases", "evaluate")
	mre := trained.MREWith(ds, test, acc, predtop.AccuracyKey{
		Family: net.Name(),
		Mesh:   fmt.Sprintf("%dx%d", scenario.Mesh.Nodes, scenario.Mesh.GPUsPerNode),
		Op:     cfg.Name,
	})
	evalSpan.End()
	fr.Note("run", "evaluated")
	lg.Printf("test MRE: %.2f%% over %d held-out stages", mre, len(test))

	if man != nil {
		man.SetWeightsFingerprint(predtop.WeightFingerprint(trained))
		man.RecordMetric("test_mre_pct", mre)
		man.RecordMetric("test_stages", float64(len(test)))
		man.RecordMetric("epochs_run", float64(res.EpochsRun))
		man.RecordMetric("best_epoch", float64(res.BestEpoch))
		man.RecordMetric("best_val_loss", res.BestValLoss)
		man.RecordAttribution(net.Name(), trained.Attribute(ds, test))
		man.RecordAccuracy(acc)
		man.RecordSessionMetric("train_wall_seconds", res.WallSeconds)
	}

	sink.Emit(struct {
		Event       string  `json:"event"`
		EpochsRun   int     `json:"epochs_run"`
		BestEpoch   int     `json:"best_epoch"`
		BestValLoss float64 `json:"best_val_loss"`
		WallSeconds float64 `json:"wall_s"`
		TestMRE     float64 `json:"test_mre_pct"`
		TestStages  int     `json:"test_stages"`
	}{"summary", res.EpochsRun, res.BestEpoch, res.BestValLoss, res.WallSeconds, mre, len(test)})
	acc.EmitTo(sink)
	sink.EmitMetrics(reg)
	if err := sink.Close(); err != nil {
		log.Fatalf("writing %s: %v", *metricsPath, err)
	}
	if *tracePath != "" {
		if err := tb.WriteFile(*tracePath); err != nil {
			log.Fatal(err)
		}
		lg.Printf("wrote trace to %s", *tracePath)
	}
	if *profilePath != "" {
		if err := prof.WriteFile(*profilePath); err != nil {
			log.Fatal(err)
		}
		lg.Printf("wrote span profile to %s", *profilePath)
	}

	if err := predtop.SaveTrained(*out, trained); err != nil {
		log.Fatal(err)
	}
	lg.Printf("saved model to %s", *out)

	if man != nil {
		man.Session.WallSeconds = time.Since(started).Seconds()
		entry, err := ledger.Put(man)
		if err != nil {
			log.Fatal(err)
		}
		lg.Printf("recorded run %s in %s", entry.ID, ledger.Dir())
	}
}
