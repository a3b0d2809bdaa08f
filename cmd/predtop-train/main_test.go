package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"predtop"
	"predtop/internal/runledger"
)

// The goldens under testdata/ were captured from the binaries of the commit
// before the tools moved onto internal/cli, with the tiny arguments below:
// stdout (wall-clock field masked), `predtop-runs show -canonical` of the
// recorded manifest, and the JSONL record sequence (event and field order).
// The JSONL shape was re-pinned when the metrics registry became the
// daemon's (a batch tool's stream no longer ends in a registry snapshot),
// when -workers went (the run record lost its workers field), and when the
// records restating the manifest and stdout went (run, restore and summary),
// leaving the epoch records.
var tinyArgs = []string{"-layers", "4", "-maxlen", "2", "-epochs", "2"}

var wallClock = regexp.MustCompile(`in [0-9.]+s\n`)

func golden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// jsonlShape renders a JSONL stream as one "event: field,field,…" line per
// record (fields in emission order) — everything but the values.
func jsonlShape(t *testing.T, data []byte) string {
	t.Helper()
	var b strings.Builder
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		dec := json.NewDecoder(bytes.NewReader(line))
		if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
			t.Fatalf("record is not a JSON object: %s", line)
		}
		var keys []string
		var event string
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			var val json.RawMessage
			if err := dec.Decode(&val); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key.(string))
			if key == "event" {
				json.Unmarshal(val, &event)
			}
		}
		fmt.Fprintf(&b, "%s: %s\n", event, strings.Join(keys, ","))
	}
	return b.String()
}

func TestTrainGoldenAndDeterministic(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "L")
	var stdouts [2]string
	for i := range stdouts {
		model := filepath.Join(dir, "m.predtop")
		jsonl := filepath.Join(dir, fmt.Sprintf("t%d.jsonl", i))
		var stdout, stderr bytes.Buffer
		args := append([]string{"-o", model, "-runledger", ledger, "-metrics", jsonl}, tinyArgs...)
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run %d: %v\nstderr: %s", i, err, &stderr)
		}
		out := strings.ReplaceAll(stdout.String(), dir+string(filepath.Separator), "")
		stdouts[i] = wallClock.ReplaceAllString(out, "in <wall>s\n")
		if i == 0 {
			golden(t, "train_stdout.golden", stdouts[0])
			data, err := os.ReadFile(jsonl)
			if err != nil {
				t.Fatal(err)
			}
			golden(t, "train_jsonl_shape.golden", jsonlShape(t, data))
		}
		if _, err := predtop.LoadTrained(model); err != nil {
			t.Fatalf("saved model does not load: %v", err)
		}
	}
	if stdouts[0] != stdouts[1] {
		t.Errorf("same-seed reruns print different stdout:\n%s---\n%s", stdouts[0], stdouts[1])
	}

	// Two same-seed runs share one content address (<id>.json, <id>.1.json)
	// and byte-identical canonical sections.
	paths, _ := filepath.Glob(filepath.Join(ledger, "*.json"))
	if len(paths) != 2 {
		t.Fatalf("ledger holds %d manifests, want 2: %v", len(paths), paths)
	}
	for _, p := range paths {
		m, err := runledger.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := m.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		golden(t, "train_canonical.golden.json", string(canon))
	}
}

// A run's two records of its training agree: -metrics holds one epoch record
// per epoch the manifest says ran, and the one at the manifest's best epoch
// carries its best validation loss, bit for bit.
func TestTrainRecordsAgree(t *testing.T) {
	dir := t.TempDir()
	jsonl, ledger := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "L")
	args := append([]string{"-o", filepath.Join(dir, "m.predtop"), "-quiet", "-metrics", jsonl, "-runledger", ledger}, tinyArgs...)
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, &stderr)
	}
	paths, _ := filepath.Glob(filepath.Join(ledger, "*.json"))
	if len(paths) != 1 {
		t.Fatalf("ledger holds %d manifests, want 1", len(paths))
	}
	m, err := runledger.Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	metrics := m.Canonical.Metrics
	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	var epochs []predtop.EpochStats
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec struct {
			Event string `json:"event"`
			predtop.EpochStats
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Event != "epoch" {
			t.Fatalf("-metrics holds a %q record; want epoch records only", rec.Event)
		}
		epochs = append(epochs, rec.EpochStats)
	}
	if float64(len(epochs)) != metrics["epochs_run"] {
		t.Fatalf("%d epoch records, manifest epochs_run %v", len(epochs), metrics["epochs_run"])
	}
	best := int(metrics["best_epoch"])
	if best < 1 || best > len(epochs) || epochs[best-1].Epoch != best {
		t.Fatalf("manifest best_epoch %d has no epoch record", best)
	}
	if got, want := epochs[best-1].ValLoss, metrics["best_val_loss"]; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("epoch %d val_loss %v, manifest best_val_loss %v", best, got, want)
	}
}

// The span profiler is the run's one wall clock: with -trace and -profile both
// set each phase is on the timeline once (it used to appear twice, on a
// "phases" track and mirrored on "spans"), and -trace alone still carries the
// spans Train opens under its own.
func TestTrainTraceIsTheSpanProfile(t *testing.T) {
	dir := t.TempDir()
	trace := func(extra ...string) string {
		path := filepath.Join(dir, "t.json")
		args := append([]string{"-o", filepath.Join(dir, "m.predtop"), "-quiet", "-trace", path}, tinyArgs...)
		var stdout, stderr bytes.Buffer
		if err := run(append(args, extra...), &stdout, &stderr); err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, &stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	both := trace("-profile", filepath.Join(dir, "p.txt"))
	for _, phase := range []string{"profile", "train", "evaluate"} {
		if n := strings.Count(both, `"name":"`+phase+`"`); n != 1 {
			t.Errorf("-trace -profile: phase %q is on the timeline %d times, want once", phase, n)
		}
	}
	alone := trace()
	for _, span := range []string{"train", "batch", "step", "eval"} {
		if !strings.Contains(alone, `"name":"`+span+`"`) {
			t.Errorf("-trace alone: no %q span on the timeline", span)
		}
	}
}

// Bad names and unwritable outputs fail before anything is profiled or
// trained, and leave no file behind.
func TestTrainRejectsBadArgumentsEarly(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown bench", []string{"-bench", "gpt4"}},
		{"unknown platform", []string{"-platform", "3"}},
		{"unknown scenario", []string{"-mesh", "9"}},
		{"unknown arch", []string{"-arch", "foo"}},
		{"unwritable trace", []string{"-trace", "/nonexistent/dir/t.json"}},
		{"unwritable metrics", []string{"-metrics", "/nonexistent/dir/t.jsonl"}},
		{"unwritable model", []string{"-o", "/nonexistent/dir/m.predtop"}},
		{"unknown flag", []string{"-nosuchflag"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{"-o", filepath.Join(dir, "m.predtop"), "-runledger", filepath.Join(dir, "L")}, tinyArgs...)
			var stdout, stderr bytes.Buffer
			if err := run(append(args, tc.args...), &stdout, &stderr); err == nil {
				t.Fatal("run succeeded")
			}
			if strings.Contains(stdout.String(), "profiled") {
				t.Errorf("stages were profiled before the rejection:\n%s", &stdout)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
				t.Errorf("files left behind: %v", left)
			}
		})
	}
}

// A training fraction that leaves no held-out stages — past 1, or rounding to
// every stage of a small sample — is an error naming -trainfrac, raised
// before training and before any model is saved, not an MRE over nothing.
func TestTrainRejectsEmptyTestSplit(t *testing.T) {
	for _, frac := range []string{"1.5", "0.95"} {
		t.Run(frac, func(t *testing.T) {
			model := filepath.Join(t.TempDir(), "m.predtop")
			args := append([]string{"-o", model, "-samples", "10", "-trainfrac", frac}, tinyArgs...)
			var stdout, stderr bytes.Buffer
			err := run(args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), "-trainfrac") {
				t.Fatalf("err = %v, want an error naming -trainfrac", err)
			}
			if strings.Contains(stdout.String(), "trained") {
				t.Errorf("training ran before the rejection:\n%s", &stdout)
			}
			if _, statErr := os.Stat(model); !os.IsNotExist(statErr) {
				t.Errorf("model written despite the error (stat: %v)", statErr)
			}
		})
	}
}

// tinyModel runs the tiny training with -stage 1:3 under -quiet and returns
// the saved model's path and the run's stdout: the probed stage's two lines.
func tinyModel(t *testing.T) (path, stdout string) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "m.predtop")
	var out, stderr bytes.Buffer
	args := append([]string{"-o", path, "-quiet", "-stage", "1:3"}, tinyArgs...)
	if err := run(args, &out, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, &stderr)
	}
	return path, out.String()
}

// The golden is the stdout of the stage-prediction tool built at the commit
// before the tools moved onto internal/cli, run with -check on the model the
// tiny training saves. -load of that model prints it byte for byte, and so
// does the training run that saved it.
func TestPredictCheckGolden(t *testing.T) {
	model, trainOut := tinyModel(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-load", model, "-layers", "4", "-stage", "1:3"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, &stderr)
	}
	golden(t, "predict_stdout.golden", stdout.String())
	golden(t, "predict_stdout.golden", trainOut)
}

// A bad stage, an unknown name, a missing model, or -load without a stage to
// probe or with a ledger or -metrics file to record in fails before anything
// prints or any file is created. Only the cases that train pass -metrics (a
// file that would be created), so each -load case fails on its own argument.
func TestPredictRejectsBadArgumentsEarly(t *testing.T) {
	model, _ := tinyModel(t)
	ledger := filepath.Join(t.TempDir(), "L")
	for _, tc := range []struct {
		name    string
		args    []string
		metrics bool
	}{
		{"unknown bench", []string{"-load", model, "-stage", "1:3", "-bench", "gpt4"}, false},
		{"unknown platform", []string{"-load", model, "-stage", "1:3", "-platform", "3"}, false},
		{"unknown scenario", []string{"-load", model, "-stage", "1:3", "-conf", "9"}, false},
		{"bad range", []string{"-load", model, "-stage", "4:7"}, false},
		{"missing model", []string{"-load", "/nonexistent/m.predtop", "-stage", "1:3"}, false},
		{"stage without hi", []string{"-stage", "3"}, true},
		{"empty stage", []string{"-stage", "2:1"}, true},
		{"non-numeric stage", []string{"-stage", "a:b"}, true},
		{"load without stage", []string{"-load", model}, false},
		{"load with runledger", []string{"-load", model, "-stage", "1:3", "-runledger", ledger}, false},
		{"load with metrics", []string{"-load", model, "-stage", "1:3"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{"-layers", "4", "-o", filepath.Join(dir, "m.predtop")}, tc.args...)
			if tc.metrics {
				args = append(args, "-metrics", filepath.Join(dir, "p.jsonl"))
			}
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err == nil {
				t.Fatal("run succeeded")
			}
			if stdout.Len() != 0 {
				t.Errorf("printed before the rejection: %s", &stdout)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
				t.Errorf("files created before the rejection: %v", left)
			}
		})
	}
	if _, err := os.Stat(ledger); !os.IsNotExist(err) {
		t.Errorf("ledger created despite the rejection (stat: %v)", err)
	}
}
