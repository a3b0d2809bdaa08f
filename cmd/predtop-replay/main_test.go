package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"predtop"
	"predtop/internal/runledger"
)

// daemon trains a throwaway 4-layer GPT-3 predictor and serves it in-process.
func daemon(t *testing.T) *predtop.ServeDaemon {
	t.Helper()
	cfg := predtop.GPT3Config()
	cfg.Layers = 4
	model := predtop.BuildModel(cfg)
	rng := rand.New(rand.NewSource(1))
	specs := predtop.SampleStages(model, rng, 10, 3)
	ds := predtop.BuildDataset(predtop.NewEncoder(model, true), specs, predtop.Scenarios(predtop.Platform1())[0], predtop.DefaultProfiler())
	net := predtop.NewDAGTransformer(rng, predtop.TransformerConfig{Layers: 1, Dim: 16, Heads: 2, FFNDim: 32})
	train, val, _ := predtop.Split(rng, len(ds.Samples), 0.6, 0.2)
	trained, _ := predtop.Train(net, ds, train, val, predtop.TrainConfig{Epochs: 2, Patience: 2, BatchSize: 4, Seed: 1})
	dir := t.TempDir()
	if err := predtop.SaveTrained(filepath.Join(dir, "tran.predtop"), trained); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// The short drain keeps a client connection that was dialed but never used
	// (net/http counts it active for 5 s) from stalling the cleanup.
	srv, err := predtop.StartServe(ctx, predtop.ServeConfig{
		ModelDir: dir, Metrics: predtop.NewMetricsRegistry(), ShutdownTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); cancel() })
	return srv
}

func TestReplaySmokeAndLedger(t *testing.T) {
	srv := daemon(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-smoke", "-url", srv.URL(), "-layers", "4"}, &stdout, &stderr); err != nil {
		t.Fatalf("smoke: %v\nstderr: %s", err, &stderr)
	}
	if !strings.HasPrefix(stdout.String(), "smoke ok: 1 query") {
		t.Errorf("smoke stdout: %s", &stdout)
	}

	// A short full replay: summary on stdout, the result as JSON, and a
	// manifest whose session section carries the two latency quantiles that
	// used to sit in a separate bench block.
	dir := t.TempDir()
	jsonPath, ledger := filepath.Join(dir, "r.json"), filepath.Join(dir, "L")
	stdout.Reset()
	err := run([]string{"-url", srv.URL(), "-layers", "4", "-n", "40", "-c", "2", "-json", jsonPath, "-runledger", ledger}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("replay: %v\nstderr: %s", err, &stderr)
	}
	out := stdout.String()
	for _, want := range []string{"replay: 40 queries, 0 errors", "\nlatency: ", "\ncache:   ", "\nslo:     ", "recorded run"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay stdout lacks %q: %s", want, out)
		}
	}
	var res predtop.ServeReplayResult
	if data, err := os.ReadFile(jsonPath); err != nil || json.Unmarshal(data, &res) != nil || res.Queries != 40 {
		t.Errorf("-json result: %v, %+v", err, res)
	}
	paths, _ := filepath.Glob(filepath.Join(ledger, "*.json"))
	if len(paths) != 1 {
		t.Fatalf("ledger holds %d manifests, want 1", len(paths))
	}
	m, err := runledger.Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if m.Session.Metrics["replay_p50"] <= 0 || m.Session.Metrics["replay_p99"] < m.Session.Metrics["replay_p50"] {
		t.Errorf("session metrics: %v", m.Session.Metrics)
	}
	if m.Canonical.Tool != "predtop-replay" || m.Canonical.Config["n"] != "40" {
		t.Errorf("canonical: %+v", m.Canonical)
	}
}

func TestReplayFailsEarlyAndLoudly(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-smoke", "-url", "http://127.0.0.1:1"}, &stdout, &stderr); err == nil {
		t.Error("smoke against a dead port succeeded")
	}
	if err := run([]string{"-url", "http://127.0.0.1:1", "-json", "/nonexistent/dir/r.json"}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Errorf("unwritable -json: %v", err)
	}
}
