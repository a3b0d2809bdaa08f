// Command predtop-serve is the predictor-as-a-service daemon: it loads every
// trained model (*.predtop) in a directory, then answers POST /predict
// queries over HTTP/JSON, memoizing one answer per stage class in a bounded
// LRU and running each miss's forward on the goroutine that asked, at most
// GOMAXPROCS at a time.
//
// Usage:
//
//	predtop-serve -models ./models -listen 127.0.0.1:9400 \
//	              [-cachesize 4096] [-metrics serve.jsonl] \
//	              [-addrfile serve.addr] [-quiet] \
//	              [-slo-p99 500ms] [-slo-err 0.05] [-incidents ./incidents] \
//	              [-runledger runs]
//
// Endpoints: POST /predict (query a model), GET /models (registry listing),
// POST /reload (hot-reload the model directory), GET /statusz (human-readable
// SLO and queue state), plus the standard telemetry set — GET /metrics,
// /healthz, /debug/flightrecorder, /debug/pprof/ — all on the one listener.
// SIGHUP also triggers a hot reload; SIGINT/SIGTERM shut down gracefully,
// flushing the -metrics JSONL file before exit. -addrfile writes the
// bound address (useful with -listen 127.0.0.1:0) so scripts can find an
// ephemeral port.
//
// -slo-p99 and -slo-err set the serving objectives: /predict p99 latency and
// the tolerated bad-request fraction. The daemon tracks both over rolling
// 1m/5m/1h windows (predtop_slo_* gauges); the moment any window goes out of
// objective it captures an incident bundle under -incidents — a flight
// recorder dump plus a short CPU profile, referenced from an slo_breach JSONL
// record. Both objectives zero disables SLO tracking.
//
// -seed, -quiet, -metrics, and -runledger are the shared flags documented in
// package internal/cli; the daemon's sink, flight recorder and manifest open
// and close through that lifecycle. -metrics takes the sampled per-request
// access records (first requests, slow requests, errors, and a steady 1-in-64
// background sample) with per-phase trace spans, and the slo_breach records.
// The metrics registry is built here — the only tool that has one — and read
// once more after the daemon has drained: that one snapshot is the -metrics
// file's last record and the source of the manifest's serve/SLO session
// metrics, next to the served models' weight fingerprint and the session's
// wall time. The daemon measures no accuracy: a served model's held-out error
// is its training run's error attribution in the run ledger, found by that
// fingerprint.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"predtop"
	"predtop/internal/cli"
	"predtop/internal/predictor"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("predtop-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelDir := fs.String("models", "models", "directory of *.predtop model files")
	listen := fs.String("listen", "127.0.0.1:9400", "listen address (host:0 picks a free port)")
	cacheSize := fs.Int("cachesize", 4096, "latency memo capacity in entries")
	addrFile := fs.String("addrfile", "", "write the bound listen address to this file once serving")
	sloP99 := fs.Duration("slo-p99", 500*time.Millisecond, "p99 latency objective for /predict (0 with -slo-err 0 disables SLO tracking)")
	sloErr := fs.Float64("slo-err", 0.05, "tolerated bad-request fraction (the error budget)")
	incidentDir := fs.String("incidents", "", "write SLO-breach evidence bundles (flight dump + CPU profile) under this directory")
	shared := cli.Flags{Seed: 1}
	shared.Register(fs, cli.Seed|cli.Quiet|cli.Metrics|cli.Ledger, map[string]string{
		"seed":      "trace-identity seed",
		"metrics":   "write sampled per-request access records, SLO breaches and a final metrics snapshot (JSONL) to this file",
		"runledger": "record this serving session's manifest at shutdown into the given run-ledger directory (see predtop-runs)",
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	r, err := cli.Open(&shared, cli.Options{
		Tool: "predtop-serve", Seed: shared.Seed, Progress: stderr, Stderr: stderr,
	})
	if err != nil {
		return err
	}
	// Deferred first, so it runs after srv.Close has drained the daemon: every
	// buffered record reaches the sink before it flushes and closes.
	defer func() { err = r.Close(err) }()
	man := r.Man
	man.SetConfig("slo_p99", sloP99.String())
	man.SetConfig("slo_err", fmt.Sprint(*sloErr))
	man.SetOutput("models", *modelDir)
	man.SetOutput("incidents", *incidentDir)
	man.RecordSessionMetric("cachesize", float64(*cacheSize))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	metrics := predtop.NewMetricsRegistry()
	srv, err := predtop.StartServe(ctx, predtop.ServeConfig{
		Addr:        *listen,
		ModelDir:    *modelDir,
		CacheSize:   *cacheSize,
		Metrics:     metrics,
		Sink:        r.Sink,
		Flight:      r.Flight,
		Trace:       r.TC,
		Log:         r.Log,
		SLOP99:      *sloP99,
		SLOErr:      *sloErr,
		IncidentDir: *incidentDir,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	if *addrFile != "" {
		// Atomic: scripts poll for a non-empty file and must never read half
		// an address.
		if err := predictor.AtomicWrite(*addrFile, func(w io.Writer) error {
			_, err := io.WriteString(w, srv.Addr()+"\n")
			return err
		}); err != nil {
			return err
		}
	}
	r.Log.Printf("predtop-serve listening on %s (POST %s/predict)", srv.Addr(), srv.URL())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sigs)
	for sig := range sigs {
		if sig == syscall.SIGHUP {
			if gen, n, err := srv.Reload(); err != nil {
				fmt.Fprintf(stderr, "reload failed (old models keep serving): %v\n", err)
			} else {
				r.Log.Printf("SIGHUP reload: generation %d, %d model(s)", gen, n)
			}
			continue
		}
		r.Log.Printf("%v: shutting down", sig)
		break
	}

	// Drain first, then read the registry once: the final metrics record and
	// the manifest's session metrics are the same snapshot, and it counts
	// every request the daemon answered.
	if err := srv.Close(); err != nil {
		return err
	}
	snap := metrics.Snapshot()
	r.Sink.Emit(map[string]any{"event": "metrics", "metrics": snap})
	if man != nil {
		// Pin the identity of the weights this session served (sorted
		// registry order, same FNV-1a scheme as plan provenance) and archive
		// the session's serve/SLO counters.
		entries, gen := srv.Registry().Snapshot()
		trs := make([]predtop.Trained, 0, len(entries))
		for _, e := range entries {
			trs = append(trs, e.Trained)
		}
		man.SetWeightsFingerprint(predtop.WeightFingerprint(trs...))
		man.RecordSessionMetric("registry_generation", float64(gen))
		man.RecordSessionMetric("models", float64(len(entries)))
		for _, mt := range snap {
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
	}
	return nil
}
