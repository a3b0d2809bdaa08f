// Command predtop-replay drives a synthetic query load against a running
// predtop-serve daemon and reports client-side throughput and latency
// percentiles next to the daemon's own cache counters and SLO verdict
// (scraped from /metrics after the run).
//
// Usage:
//
//	predtop-replay -url http://127.0.0.1:9400 \
//	               [-n 100000] [-c 32] [-bench GPT-3,MoE] [-layers 8] \
//	               [-maxlen 3] [-model key] [-seed 1] \
//	               [-json result.json] [-runledger runs] [-quiet] [-smoke]
//
// -smoke issues a single query and exits 0 only when it was answered AND the
// daemon is not in SLO breach — the one-shot liveness-plus-health probe used
// by `make serve-smoke`. Without it, the full replay prints a human summary
// including the daemon's SLO verdict and (with -json) writes the ReplayResult
// as JSON. -seed (the query-stream seed), -quiet (suppresses the summary; the
// exit status still reports errors), and -runledger are the shared flags
// documented in package internal/cli; the manifest holds the query-stream
// config plus throughput, latency, and cache readings as session metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"predtop"
	"predtop/internal/cli"
	"predtop/internal/predictor"
)

func main() {
	os.Exit(cli.Main(run))
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("predtop-replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://127.0.0.1:9400", "base URL of a running predtop-serve daemon")
	queries := fs.Int("n", 100000, "total /predict queries")
	conc := fs.Int("c", 32, "concurrent clients")
	benches := fs.String("bench", "GPT-3", "comma-separated benchmark rotation (GPT-3, MoE)")
	layers := fs.Int("layers", 8, "benchmark depth override for every query (0 = Table IV)")
	maxLen := fs.Int("maxlen", 3, "max stage length in segments")
	model := fs.String("model", "", "registry key to query (empty = daemon's sole model)")
	jsonPath := fs.String("json", "", "write the ReplayResult as JSON to this file")
	smoke := fs.Bool("smoke", false, "one query, exit 0 iff it was answered")
	shared := cli.Flags{Seed: 1}
	shared.Register(fs, cli.Seed|cli.Quiet|cli.Ledger, map[string]string{
		"seed":      "query-stream seed",
		"quiet":     "suppress the human summary (exit status still reports errors)",
		"runledger": "record this replay's manifest into the given run-ledger directory (see predtop-runs)",
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := predtop.ServeReplayConfig{
		URL: *url, Queries: *queries, Concurrency: *conc, Seed: shared.Seed,
		Benches: splitBenches(*benches), Layers: *layers, MaxLen: *maxLen,
		Model: *model,
	}
	if *smoke {
		cfg.Queries, cfg.Concurrency = 1, 1
		res, err := predtop.ServeReplay(cfg)
		if err != nil {
			return fmt.Errorf("smoke query failed: %w", err)
		}
		if res.Errors != 0 {
			return fmt.Errorf("smoke query answered with an error (%d/%d failed)", res.Errors, res.Queries)
		}
		if res.SLOBreached > 0 {
			return fmt.Errorf("smoke: daemon is in SLO breach (%.0f breach(es), 1m burn %.2f, 1m p99 %.4gs)",
				res.SLOBreaches, res.SLOBurn1m, res.SLOP991m)
		}
		fmt.Fprintf(stdout, "smoke ok: 1 query in %.1fms (generation %.0f, %s)\n",
			res.P50ms, res.Generation, sloVerdict(res))
		return nil
	}

	r, err := cli.Open(&shared, cli.Options{
		Tool: "predtop-replay", Seed: shared.Seed, Stdout: stdout, Progress: stdout, Stderr: stderr,
		Dirs: []string{*jsonPath},
	})
	if err != nil {
		return err
	}
	var res *predtop.ServeReplayResult
	defer func() {
		// A replay that ran to completion is recorded even when some queries
		// failed; the exit status then reports them.
		if err = r.Close(err); err == nil && res != nil && res.Errors > 0 {
			err = fmt.Errorf("%d of %d replay queries failed", res.Errors, res.Queries)
		}
	}()
	if res, err = predtop.ServeReplay(cfg); err != nil {
		return err
	}
	if !shared.Quiet {
		fmt.Fprintf(stdout, "replay: %d queries, %d errors, %.2fs wall, %.0f qps\n",
			res.Queries, res.Errors, res.WallSeconds, res.QPS)
		fmt.Fprintf(stdout, "latency: p50 %.2fms  p95 %.2fms  p99 %.2fms\n", res.P50ms, res.P95ms, res.P99ms)
		fmt.Fprintf(stdout, "cache:   %d hits / %d misses (hit rate %.1f%%)\n",
			res.CacheHits, res.CacheMisses, res.CacheHitRate*100)
		fmt.Fprintf(stdout, "slo:     %s\n", sloVerdict(res))
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := predictor.AtomicWrite(*jsonPath, func(w io.Writer) error {
			_, err := w.Write(append(b, '\n'))
			return err
		}); err != nil {
			return err
		}
	}
	// The query stream is seed-deterministic (canonical); everything the
	// daemon answered — throughput, latency, cache behavior — is a fact
	// about this particular session, so it lands in the session section.
	man := r.Man
	man.SetConfig("n", fmt.Sprint(*queries))
	man.SetConfig("c", fmt.Sprint(*conc))
	man.SetConfig("bench", strings.ToLower(*benches))
	man.SetConfig("layers", fmt.Sprint(*layers))
	man.SetConfig("maxlen", fmt.Sprint(*maxLen))
	man.SetOutput("url", *url)
	man.SetOutput("json", *jsonPath)
	man.RecordSessionMetric("qps", res.QPS)
	man.RecordSessionMetric("errors", float64(res.Errors))
	man.RecordSessionMetric("cache_hit_rate", res.CacheHitRate)
	man.RecordSessionMetric("replay_p50", res.P50ms*1e6)
	man.RecordSessionMetric("replay_p99", res.P99ms*1e6)
	return nil
}

// sloVerdict renders the daemon's scraped SLO state for the human summaries.
func sloVerdict(res *predtop.ServeReplayResult) string {
	if !res.SLOConfigured() {
		return "slo not configured"
	}
	state := "slo ok"
	if res.SLOBreached > 0 {
		state = "SLO BREACHED"
	}
	return fmt.Sprintf("%s: 1m p99 %.4gs, 1m burn %.2f, %.0f breach(es)",
		state, res.SLOP991m, res.SLOBurn1m, res.SLOBreaches)
}

func splitBenches(s string) []string {
	var out []string
	for _, b := range strings.Split(s, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, b)
		}
	}
	return out
}
