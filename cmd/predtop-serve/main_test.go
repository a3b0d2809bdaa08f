package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"predtop"
	"predtop/internal/cli"
)

// The daemon's whole life through run: start on an ephemeral port, answer
// queries, shut down on SIGTERM, and leave complete artifacts — a -metrics
// log holding the sampled access records and ending in the metrics snapshot,
// and one ledger manifest. One /predict answer must be bit-equal to the
// saved model's prediction along predtop-train -load's path (cli.Bench,
// BuildModel, NewEncoder(model, true), PredictEncoded): the tool prints it
// only to the µs, so this is the check that the two agree in every bit.
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
	metrics, ledger := filepath.Join(dir, "s.jsonl"), filepath.Join(dir, "L")
	var stdout, stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-models", models, "-listen", "127.0.0.1:0", "-addrfile", addrFile, "-quiet",
			"-metrics", metrics, "-runledger", ledger}, &stdout, &stderr)
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
	if left, _ := filepath.Glob(addrFile + ".tmp*"); len(left) != 0 {
		t.Errorf("the address file's temporary survived its rename: %v", left)
	}
	res, err := predtop.ServeReplay(predtop.ServeReplayConfig{URL: "http://" + addr, Queries: 5, Concurrency: 1, Seed: 1, Benches: []string{"GPT-3"}, Layers: 4, MaxLen: 3})
	if err != nil || res.Errors != 0 {
		t.Fatalf("replay against the daemon: %v, %+v", err, res)
	}

	path := filepath.Join(models, "tran.predtop")
	loaded, err := predtop.LoadTrained(path)
	if err != nil {
		t.Fatal(err)
	}
	benchCfg, err := cli.Bench("GPT-3", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := loaded.PredictEncoded(predtop.NewEncoder(predtop.BuildModel(benchCfg), true).Encode(predtop.StageSpec{Lo: 1, Hi: 3}))
	resp, err := http.Post("http://"+addr+"/predict", "application/json",
		strings.NewReader(`{"bench":"GPT-3","layers":4,"lo":1,"hi":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var answer struct {
		LatencySeconds float64 `json:"latency_s"`
	}
	err = json.NewDecoder(resp.Body).Decode(&answer)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict: status %d, %v", resp.StatusCode, err)
	}
	if math.Float64bits(answer.LatencySeconds) != math.Float64bits(want) {
		t.Errorf("/predict answered %v s, predtop-train -load's path gives %v s", answer.LatencySeconds, want)
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

	records := readFile(t, metrics)
	lines := strings.Split(strings.TrimSpace(records), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, `"event":"metrics"`) || !strings.Contains(last, "predtop_serve_requests_total") {
		t.Errorf("-metrics does not end in the metrics snapshot: %.200s", last)
	}
	if !strings.Contains(records, `"event":"access"`) {
		t.Error("-metrics holds no access record")
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
