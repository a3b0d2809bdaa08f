package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predtop/internal/runledger"
)

// Unknown names used to print nothing, exit 0, and still record a manifest;
// now they fail before any output or ledger entry exists.
func TestEvalRejectsBadArgumentsEarly(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown bench", []string{"-bench", "gpt4"}},
		{"unknown platform", []string{"-platform", "3"}},
		{"unknown preset", []string{"-preset", "huge"}},
		{"unwritable report", []string{"-out", "/nonexistent/dir/r.txt"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			args := append([]string{"-runledger", filepath.Join(dir, "L"), "-profile", filepath.Join(dir, "p.txt")}, tc.args...)
			if err := run(args, &stdout, &stderr); err == nil {
				t.Fatal("run succeeded")
			}
			if stdout.Len() != 0 {
				t.Errorf("printed before the rejection: %s", &stdout)
			}
			if _, err := os.Stat(filepath.Join(dir, "L")); err == nil {
				t.Error("a manifest was recorded for a rejected run")
			}
		})
	}
}

// With the grids switched off the tool still runs its whole lifecycle: the
// report file exists, the ledger holds one manifest carrying the preset's
// seed and the result-determining flags.
func TestEvalLifecycleWithoutGrids(t *testing.T) {
	dir := t.TempDir()
	out, ledger := filepath.Join(dir, "r.txt"), filepath.Join(dir, "L")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-tables=false", "-bench", "gpt3", "-platform", "1", "-out", out, "-runledger", ledger, "-quiet"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, &stderr)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("report file: %v", err)
	}
	paths, _ := filepath.Glob(filepath.Join(ledger, "*.json"))
	if len(paths) != 1 {
		t.Fatalf("ledger holds %d manifests, want 1", len(paths))
	}
	m, err := runledger.Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	c := m.Canonical
	if c.Tool != "predtop-eval" || c.Seed != 1 || c.Config["preset"] != "quick" || c.Config["tables"] != "false" {
		t.Errorf("manifest identity: %+v", c)
	}
	if m.Session.Outputs["out"] != out {
		t.Errorf("session outputs: %v", m.Session.Outputs)
	}
}

// -fig replaces the accuracy results with one motivating figure, through the
// same lifecycle: the report tees into -out, bad names fail first.
func TestFiguresFig6TeesIntoOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "f.txt")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fig", "6", "-out", out}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, &stderr)
	}
	file, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.Len() == 0 || stdout.String() != string(file) {
		t.Errorf("stdout and -out differ:\n%s---\n%s", &stdout, file)
	}
	if !strings.Contains(stdout.String(), "Fig 6") {
		t.Errorf("no Fig 6 in the report:\n%s", &stdout)
	}
	if err := run([]string{"-fig", "6", "-preset", "huge"}, &stdout, &stderr); err == nil {
		t.Error("unknown preset accepted")
	}
	if err := run([]string{"-fig", "7"}, &stdout, &stderr); err == nil {
		t.Error("unknown figure accepted")
	}
}
