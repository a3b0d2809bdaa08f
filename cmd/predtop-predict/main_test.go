package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predtop"
)

// tinyModel trains and saves what `predtop-train -layers 4 -maxlen 2
// -epochs 2` saves (same seed, same RNG stream), through the library.
func tinyModel(t *testing.T) string {
	t.Helper()
	cfg := predtop.GPT3Config()
	cfg.Layers = 4
	model := predtop.BuildModel(cfg)
	rng := rand.New(rand.NewSource(1))
	specs := predtop.SampleStages(model, rng, 0, 2)
	scenario := predtop.Scenarios(predtop.Platform2())[0]
	ds := predtop.BuildDataset(predtop.NewEncoder(model, true), specs, scenario, predtop.DefaultProfiler())
	net := predtop.NewDAGTransformer(rng, predtop.TransformerConfig{Layers: 2, Dim: 32, Heads: 2, FFNDim: 64})
	train, val, _ := predtop.Split(rng, len(ds.Samples), 0.5, 0.1)
	trained, _ := predtop.Train(net, ds, train, val, predtop.TrainConfig{Epochs: 2, BatchSize: 4, Seed: 1})
	path := filepath.Join(t.TempDir(), "m.predtop")
	if err := predtop.SaveTrained(path, trained); err != nil {
		t.Fatal(err)
	}
	return path
}

// The golden is the stdout of the predtop-predict binary built at the commit
// before the tools moved onto internal/cli, run on the model its
// predtop-train saved.
func TestPredictCheckGolden(t *testing.T) {
	model := tinyModel(t)
	jsonl := filepath.Join(t.TempDir(), "p.jsonl")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-model", model, "-layers", "4", "-lo", "1", "-hi", "3", "-check", "-metrics", jsonl}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, &stderr)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "predict_stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(want) {
		t.Errorf("stdout differs\n--- got\n%s--- want\n%s", &stdout, want)
	}
	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		_, rest, _ := strings.Cut(line, `"event":"`)
		event, _, _ := strings.Cut(rest, `"`)
		events = append(events, event)
	}
	if got := strings.Join(events, " "); got != "run prediction check" {
		t.Errorf("JSONL record sequence = %q", got)
	}
}

func TestPredictRejectsBadArgumentsEarly(t *testing.T) {
	model := tinyModel(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown bench", []string{"-bench", "gpt4"}},
		{"unknown platform", []string{"-check", "-platform", "3"}},
		{"unknown scenario", []string{"-check", "-conf", "9"}},
		{"bad range", []string{"-lo", "3", "-hi", "2"}},
		{"missing model", []string{"-model", "/nonexistent/m.predtop"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jsonl := filepath.Join(t.TempDir(), "p.jsonl")
			var stdout, stderr bytes.Buffer
			args := append([]string{"-model", model, "-layers", "4", "-metrics", jsonl}, tc.args...)
			if err := run(args, &stdout, &stderr); err == nil {
				t.Fatal("run succeeded")
			}
			if stdout.Len() != 0 {
				t.Errorf("printed before the rejection: %s", &stdout)
			}
			if _, err := os.Stat(jsonl); err == nil {
				t.Error("metrics file created before the rejection")
			}
		})
	}
}
