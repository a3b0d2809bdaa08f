package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/planner"
	"predtop/internal/stage"
)

// savedReport plans six segments over a synthetic latency source scaled by
// slow and saves the plan's report the way -report does.
func savedReport(t *testing.T, dir, name string, slow float64) string {
	t.Helper()
	lat := func(sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
		return slow * float64(sp.Len()) / float64(mesh.NumDevices()), true
	}
	p := cluster.Platform2()
	plan, ok := planner.Optimize(6, p, lat, planner.Options{Microbatches: 8})
	if !ok {
		t.Fatal("no plan")
	}
	lats := make([]float64, len(plan.Stages))
	for i, sp := range plan.Stages {
		lats[i], _ = lat(sp, plan.Meshes[i])
	}
	path := filepath.Join(dir, name)
	r := planner.BuildReport(nil, p, plan, lats, planner.ReportOptions{Version: "test", Microbatches: 8})
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPlanDiffOfSavedReports(t *testing.T) {
	dir := t.TempDir()
	base, scen := savedReport(t, dir, "base.json", 1), savedReport(t, dir, "scen.json", 2)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-diff", base + "," + scen}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, &stderr)
	}
	if out := stdout.String(); !strings.Contains(out, "total") || !strings.Contains(out, "+100.0") {
		t.Errorf("diff of a 2x slower scenario:\n%s", out)
	}
	for _, spec := range []string{base, base + "," + filepath.Join(dir, "missing.json")} {
		if err := run([]string{"-diff", spec}, &stdout, &stderr); err == nil {
			t.Errorf("-diff %q succeeded", spec)
		}
	}
}

// Bad names fail before the report directory or a ledger entry exists.
func TestPlanRejectsBadArgumentsEarly(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "gpt4"}, {"-preset", "huge"}, {"-whatif", "warp=9"}, {"-trace", "/nonexistent/dir/t.json"},
	} {
		dir := t.TempDir()
		common := []string{"-report", filepath.Join(dir, "rep"), "-runledger", filepath.Join(dir, "L")}
		if args[0] == "-trace" { // reaches Open, so the report directory already exists
			common = common[2:]
		}
		var stdout, stderr bytes.Buffer
		if err := run(append(common, args...), &stdout, &stderr); err == nil {
			t.Errorf("run %v succeeded", args)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 || stdout.Len() != 0 {
			t.Errorf("run %v left %d entries behind and printed %q", args, len(left), &stdout)
		}
	}
}
