package planner

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predtop/internal/cluster"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenReport builds the fixed report the golden tests pin: a deterministic
// search over the synthetic latency source with every provenance block
// populated from constants.
func goldenReport(t *testing.T) *Report {
	t.Helper()
	p := cluster.Platform2()
	var stats SearchStats
	plan, ok := Optimize(6, p, syntheticLatency, Options{Microbatches: 8, Stats: &stats})
	if !ok {
		t.Fatal("no plan")
	}
	lats := make([]float64, len(plan.Stages))
	for i, sp := range plan.Stages {
		lats[i], _ = syntheticLatency(sp, plan.Meshes[i])
	}
	return BuildReport(nil, p, plan, ReportOptions{
		Version:      "PredTOP-Tran",
		TraceID:      "0123456789abcdef",
		Microbatches: 8,
		StageLats:    lats,
		Provenance: ProviderInfo{
			Source: "PredTOP-Tran", Kind: "PredTOP-Tran", Seed: 1,
			Fingerprint: "00000000deadbeef", Predictors: 9, SampleFrac: 0.15,
		},
		Search: &stats,
		Meter: &Meter{
			ProfileSeconds: 1.5, TrainSeconds: 2.25, InferSeconds: 0.125,
			StagesProfiled: 27, CacheHits: 40, CacheMisses: 33,
		},
	})
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestReportGoldenJSON(t *testing.T) {
	r := goldenReport(t)
	b, err := r.WriteJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "plan_report.json", b)

	// Same seed, same inputs → byte-identical JSON (the plan-smoke contract).
	b2, err := goldenReport(t).WriteJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("repeated report build not byte-identical")
	}
}

func TestReportGoldenText(t *testing.T) {
	checkGolden(t, "plan_report.txt", []byte(goldenReport(t).Render()))
}

func TestReportRoundTrip(t *testing.T) {
	r := goldenReport(t)
	path := filepath.Join(t.TempDir(), "r.json")
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := r.WriteJSON()
	b2, _ := back.WriteJSON()
	if !bytes.Equal(b1, b2) {
		t.Fatal("report did not round-trip through SaveFile/LoadReport")
	}
}

// SaveFile replaces the report by rename, never by rewriting it in place: a
// hard link to the previous file keeps the previous bytes, no temporary file
// is left behind, and a failing save leaves the previous report
// byte-identical — so a run killed mid-write cannot tear a report that
// LoadReport or predtop-plan -diff will read.
func TestReportSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path, twin := filepath.Join(dir, "r.json"), filepath.Join(dir, "twin.json")
	old := []byte("{\"version\": \"previous\"}\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(path, twin); err != nil {
		t.Fatal(err)
	}
	r := goldenReport(t)
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 2 {
		t.Fatalf("directory holds %v, want only the report and its twin", left)
	}
	if b, _ := os.ReadFile(twin); !bytes.Equal(b, old) {
		t.Fatalf("SaveFile rewrote the previous file in place: twin now %q", b)
	}

	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r.EstLatency = math.NaN() // unencodable: the save must fail
	if err := r.SaveFile(path); err == nil {
		t.Fatal("SaveFile of an unencodable report succeeded")
	}
	if b, _ := os.ReadFile(path); !bytes.Equal(b, saved) {
		t.Fatal("failing SaveFile changed the previous report")
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) != 0 {
		t.Fatalf("temporary files left behind: %v", tmp)
	}
}

func TestReportEstimateFallback(t *testing.T) {
	plan, ok := Optimize(4, cluster.Platform1(), syntheticLatency, Options{Microbatches: 8})
	if !ok {
		t.Fatal("no plan")
	}
	r := BuildReport(nil, cluster.Platform1(), plan, ReportOptions{Microbatches: 8})
	if r.LatencySource != "estimate" {
		t.Fatalf("no model and no StageLats should fall back to estimates, got %q", r.LatencySource)
	}
	for i, s := range r.Stages {
		if s.Latency != plan.StageEst[i] {
			t.Fatalf("stage %d latency %v != estimate %v", i, s.Latency, plan.StageEst[i])
		}
	}
	if r.NumSegments != 4 || r.Microbatches != 8 {
		t.Fatalf("report header wrong: %+v", r)
	}
}

func TestDiffRender(t *testing.T) {
	base := goldenReport(t)
	scen := goldenReport(t)
	scen.Scenario = "internode-bw=x4"
	for i := range scen.Stages {
		scen.Stages[i].Latency *= 0.5
	}
	scen.Pipeline = pipelineReport(stageLatsOf(scen), scen.Microbatches)

	d := Diff(base, scen)
	if d.ScenarioTotal >= d.BaseTotal || d.Delta >= 0 {
		t.Fatalf("halved stages should reduce total: %+v", d)
	}
	if len(d.Stages) != len(base.Stages) {
		t.Fatalf("diff rows %d != stages %d", len(d.Stages), len(base.Stages))
	}
	out := d.Render()
	for _, want := range []string{"what-if diff", "internode-bw=x4", "total", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff rendering missing %q:\n%s", want, out)
		}
	}

	// Identity diff: zero delta, rendered as "no latency change".
	same := Diff(base, goldenReport(t))
	if same.Delta != 0 || same.DeltaPct != 0 {
		t.Fatalf("identity diff not zero: %+v", same)
	}
	if !strings.Contains(same.Render(), "no latency change") {
		t.Fatal("identity diff not flagged")
	}
}

func TestDiffUnequalStageCounts(t *testing.T) {
	base := goldenReport(t)
	scen := goldenReport(t)
	scen.Stages = scen.Stages[:1]
	d := Diff(base, scen)
	if len(d.Stages) != len(base.Stages) {
		t.Fatalf("diff must cover the longer plan: %d", len(d.Stages))
	}
	last := d.Stages[len(d.Stages)-1]
	if !last.InBase || last.InScenario {
		t.Fatalf("presence flags wrong: %+v", last)
	}
	if !strings.Contains(d.Render(), "-") {
		t.Fatal("missing-stage marker absent from rendering")
	}
}

func stageLatsOf(r *Report) []float64 {
	lats := make([]float64, len(r.Stages))
	for i, s := range r.Stages {
		lats[i] = s.Latency
	}
	return lats
}
