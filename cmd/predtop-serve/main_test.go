package main

import (
	"bytes"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"predtop"
)

// The daemon's whole life through run: start on an ephemeral port, answer a
// query, shut down on SIGTERM, and leave complete artifacts — a -metrics log
// ending in the metrics snapshot, an access log, and one ledger manifest.
func TestServeLifecycle(t *testing.T) {
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
	models := filepath.Join(dir, "models")
	if err := os.Mkdir(models, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := predtop.SaveTrained(filepath.Join(models, "tran.predtop"), trained); err != nil {
		t.Fatal(err)
	}

	// Hold SIGTERM for the whole test, so a signal sent before run has
	// installed its own handler cannot kill the test binary.
	hold := make(chan os.Signal, 1)
	signal.Notify(hold, syscall.SIGTERM)
	defer signal.Stop(hold)

	addrFile := filepath.Join(dir, "addr")
	metrics, access, ledger := filepath.Join(dir, "s.jsonl"), filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "L")
	var stdout, stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-models", models, "-listen", "127.0.0.1:0", "-addrfile", addrFile, "-quiet",
			"-metrics", metrics, "-accesslog", access, "-runledger", ledger}, &stdout, &stderr)
	}()
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(10 * time.Millisecond) {
		if b, _ := os.ReadFile(addrFile); len(b) > 0 {
			addr = strings.TrimSpace(string(b))
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before serving: %v\nstderr: %s", err, &stderr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its address file")
		}
	}
	res, err := predtop.ServeReplay(predtop.ServeReplayConfig{URL: "http://" + addr, Queries: 5, Concurrency: 1, Seed: 1, Benches: []string{"GPT-3"}, Layers: 4, MaxLen: 3})
	if err != nil || res.Errors != 0 {
		t.Fatalf("replay against the daemon: %v, %+v", err, res)
	}

	stopped := false
	for deadline := time.Now().Add(10 * time.Second); !stopped; {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon shut down with an error: %v\nstderr: %s", err, &stderr)
			}
			stopped = true
		case <-time.After(50 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("daemon ignored SIGTERM")
			}
		}
	}

	lines := strings.Split(strings.TrimSpace(readFile(t, metrics)), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, `"event":"metrics"`) || !strings.Contains(last, "predtop_serve_requests_total") {
		t.Errorf("-metrics does not end in the metrics snapshot: %.200s", last)
	}
	if !strings.Contains(readFile(t, access), `"event":"access"`) {
		t.Error("access log holds no access record")
	}
	paths, _ := filepath.Glob(filepath.Join(ledger, "*.json"))
	if len(paths) != 1 {
		t.Fatalf("ledger: %v", paths)
	}
	manifest := readFile(t, paths[0])
	for _, want := range []string{"predtop_serve_requests_total", "predtop_serve_queue_depth", `"cachesize"`} {
		if !strings.Contains(manifest, want) {
			t.Errorf("manifest lacks %s", want)
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
