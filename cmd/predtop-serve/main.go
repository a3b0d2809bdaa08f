// Command predtop-serve is the predictor-as-a-service daemon: it loads every
// trained model (*.predtop) in a directory, then answers POST /predict
// queries over HTTP/JSON, coalescing concurrent requests into batched
// forwards and memoizing repeated stage queries in a bounded LRU.
//
// Usage:
//
//	predtop-serve -models ./models -listen 127.0.0.1:9400 \
//	              [-maxbatch 32] [-window 2ms] [-workers 0] [-cachesize 4096] \
//	              [-metrics serve.jsonl] [-addrfile serve.addr] [-quiet] \
//	              [-slo-p99 500ms] [-slo-err 0.05] [-accesslog access.jsonl] \
//	              [-incidents ./incidents] [-runledger runs]
//
// Endpoints: POST /predict (query a model), GET /models (registry listing),
// POST /reload (hot-reload the model directory), GET /statusz (human-readable
// SLO and queue state), plus the standard telemetry set — GET /metrics,
// /healthz, /debug/flightrecorder, /debug/pprof/ — all on the one listener.
// SIGHUP also triggers a hot reload; SIGINT/SIGTERM shut down gracefully,
// flushing every registered JSONL sink before exit. -addrfile writes the
// bound address (useful with -listen 127.0.0.1:0) so scripts can find an
// ephemeral port.
//
// -slo-p99 and -slo-err set the serving objectives: /predict p99 latency and
// the tolerated bad-request fraction. The daemon tracks both over rolling
// 1m/5m/1h windows (predtop_slo_* gauges); the moment any window goes out of
// objective it captures an incident bundle under -incidents — a flight
// recorder dump plus a short CPU profile, referenced from an slo_breach JSONL
// record. Both objectives zero disables SLO tracking. -accesslog streams the
// sampled per-request records (first requests, slow requests, errors, and a
// steady 1-in-64 background sample) with per-phase trace spans.
//
// -runledger records the serving session's manifest at shutdown — the served
// models' weight fingerprint, the request/batch/cache counters, and the
// session's wall time — into the given run-ledger directory for predtop-runs
// to list and inspect.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"predtop"
)

func main() {
	modelDir := flag.String("models", "models", "directory of *.predtop model files")
	listen := flag.String("listen", "127.0.0.1:9400", "listen address (host:0 picks a free port)")
	maxBatch := flag.Int("maxbatch", 32, "max concurrent requests coalesced into one batched forward")
	window := flag.Duration("window", 0, "how long to wait to fill a batch (0 = batch only queued requests)")
	workers := flag.Int("workers", 0, "intra-batch parallelism (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cachesize", 4096, "latency memo capacity in entries")
	seed := flag.Int64("seed", 1, "trace-identity seed")
	metricsPath := flag.String("metrics", "", "write JSONL request events and a final metrics snapshot to this file")
	addrFile := flag.String("addrfile", "", "write the bound listen address to this file once serving")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	sloP99 := flag.Duration("slo-p99", 500*time.Millisecond, "p99 latency objective for /predict (0 with -slo-err 0 disables SLO tracking)")
	sloErr := flag.Float64("slo-err", 0.05, "tolerated bad-request fraction (the error budget)")
	accessPath := flag.String("accesslog", "", "write sampled per-request access records (JSONL) to this file")
	incidentDir := flag.String("incidents", "", "write SLO-breach evidence bundles (flight dump + CPU profile) under this directory")
	ledgerDir := flag.String("runledger", "", "record this serving session's manifest at shutdown into the given run-ledger directory (see predtop-runs)")
	flag.Parse()

	started := time.Now()
	ledger := predtop.OpenRunLedger(*ledgerDir)
	var man *predtop.RunManifest
	if ledger != nil {
		man = predtop.NewRunManifest("predtop-serve", *seed)
		man.Session.StartedUnix = started.Unix()
		man.SetConfig("slo_p99", sloP99.String())
		man.SetConfig("slo_err", fmt.Sprint(*sloErr))
		man.SetOutput("models", *modelDir)
		man.SetOutput("metrics", *metricsPath)
		man.SetOutput("accesslog", *accessPath)
		man.SetOutput("incidents", *incidentDir)
		man.RecordSessionMetric("maxbatch", float64(*maxBatch))
		man.RecordSessionMetric("cachesize", float64(*cacheSize))
		man.RecordSessionMetric("workers", float64(*workers))
	}

	tc := predtop.NewTraceContext(*seed, "predtop-serve")
	man.SetTraceID(tc.TraceID())
	fr := predtop.NewFlightRecorder(0)
	fr.SetTraceContext(tc)
	predtop.SetWorkerPanicHook(fr.PanicHook(os.Stderr))

	lg := predtop.NewProgressLogger(os.Stderr, *quiet).WithTrace(tc)
	reg := predtop.NewMetricsRegistry()
	predtop.PublishKernelInfo(reg)

	// newSink opens one JSONL sink and registers its close; the graceful
	// shutdown path (SIGTERM breaking the signal loop) runs every registered
	// close after the daemon has drained, so no buffered record is lost.
	var sinkCloses []func()
	newSink := func(path string) *predtop.EventSink {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		s := predtop.NewEventSink(f)
		s.SetTraceContext(tc)
		s.AttachFlight(fr)
		sinkCloses = append(sinkCloses, func() {
			if err := s.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			}
			f.Close()
		})
		return s
	}
	defer func() {
		for i := len(sinkCloses) - 1; i >= 0; i-- {
			sinkCloses[i]()
		}
	}()

	var sink, access *predtop.EventSink
	if *metricsPath != "" {
		sink = newSink(*metricsPath)
		defer sink.EmitMetrics(reg) // runs before the registered closes above
	}
	if *accessPath != "" {
		access = newSink(*accessPath)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := predtop.StartServe(ctx, predtop.ServeConfig{
		Addr:        *listen,
		ModelDir:    *modelDir,
		MaxBatch:    *maxBatch,
		Window:      *window,
		Workers:     *workers,
		CacheSize:   *cacheSize,
		Metrics:     reg,
		Sink:        sink,
		Flight:      fr,
		Trace:       tc,
		Log:         lg,
		SLOP99:      *sloP99,
		SLOErr:      *sloErr,
		IncidentDir: *incidentDir,
		AccessLog:   access,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	sampler := predtop.StartRuntimeSampler(reg, 0)
	defer sampler.Stop()

	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	lg.Printf("predtop-serve listening on %s (POST %s/predict)", srv.Addr(), srv.URL())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for sig := range sigs {
		if sig == syscall.SIGHUP {
			if gen, n, err := srv.Reload(); err != nil {
				fmt.Fprintf(os.Stderr, "reload failed (old models keep serving): %v\n", err)
			} else {
				lg.Printf("SIGHUP reload: generation %d, %d model(s)", gen, n)
			}
			continue
		}
		lg.Printf("%v: shutting down", sig)
		break
	}

	if man != nil {
		// Pin the identity of the weights this session served (sorted
		// registry order, same FNV-1a scheme as plan provenance) and archive
		// the session's serve/SLO counters before the daemon tears down.
		entries, gen := srv.Registry().Snapshot()
		trs := make([]predtop.Trained, 0, len(entries))
		for _, e := range entries {
			trs = append(trs, e.Trained)
		}
		man.SetWeightsFingerprint(predtop.WeightFingerprint(trs...))
		man.RecordSessionMetric("registry_generation", float64(gen))
		man.RecordSessionMetric("models", float64(len(entries)))
		for _, mt := range reg.Snapshot() {
			if mt.Kind == "histogram" ||
				(!strings.HasPrefix(mt.Name, "predtop_serve_") && !strings.HasPrefix(mt.Name, "predtop_slo_")) {
				continue
			}
			key := mt.Name
			if mt.Labels != "" {
				key += "{" + mt.Labels + "}"
			}
			man.RecordSessionMetric(key, mt.Value)
		}
		man.Session.WallSeconds = time.Since(started).Seconds()
		entry, err := ledger.Put(man)
		if err != nil {
			log.Fatal(err)
		}
		lg.Printf("recorded run %s in %s", entry.ID, ledger.Dir())
	}
}
