package main

import (
	"bytes"
	"maps"
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
		{"unwritable trace", []string{"-trace", "/nonexistent/dir/t.json"}},
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
// ledger holds one manifest carrying the preset's seed and the
// result-determining flags, and no -platform, which only the grids read.
func TestEvalLifecycleWithoutGrids(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "L")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-tables=false", "-bench", "gpt3", "-platform", "1", "-runledger", ledger, "-quiet"}, &stdout, &stderr); err != nil {
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
	c := m.Canonical
	if c.Tool != "predtop-eval" || c.Seed != 1 || c.Config["preset"] != "quick" || c.Config["tables"] != "false" {
		t.Errorf("manifest identity: %+v", c)
	}
	if _, ok := c.Config["platform"]; ok {
		t.Errorf("a run without grids recorded -platform: %+v", c.Config)
	}
}

// -fig 2 runs the benchmarks -bench names and records the keys it reads:
// -platform, -ablate and -tables change nothing there.
func TestFig2FollowsBench(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "L")
	var stdout, stderr bytes.Buffer
	args := []string{"-fig", "2", "-bench", "MoE", "-platform", "1", "-tables=false", "-runledger", ledger, "-quiet"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, &stderr)
	}
	if out := stdout.String(); !strings.Contains(out, "Fig 2 (MoE)") || strings.Contains(out, "GPT-3") {
		t.Errorf("-fig 2 -bench MoE printed:\n%s", out)
	}
	paths, _ := filepath.Glob(filepath.Join(ledger, "*.json"))
	if len(paths) != 1 {
		t.Fatalf("ledger holds %d manifests, want 1", len(paths))
	}
	m, err := runledger.Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"preset": "quick", "bench": "moe", "fig": "2"}
	if !maps.Equal(m.Canonical.Config, want) {
		t.Errorf("config %v, want %v", m.Canonical.Config, want)
	}
}

// -fig replaces the accuracy results with one motivating figure, through the
// same lifecycle: the report prints on stdout, bad names fail first.
func TestFiguresFig6(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fig", "6"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, &stderr)
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
