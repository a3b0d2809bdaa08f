package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/graphnn"
	"predtop/internal/models"
	"predtop/internal/obs"
	"predtop/internal/planner"
	"predtop/internal/predictor"
	"predtop/internal/sim"
	"predtop/internal/stage"
)

// micro is a minimal preset for fast end-to-end harness tests.
func micro() Preset {
	return Preset{
		Name:      "micro",
		GPTStages: 14, MoEStages: 12, MaxLen: 2, MoEMaxLen: 2,
		GPTLayers: 6, MoELayers: 6,
		Fractions: []int{40, 70},
		Train:     predictor.TrainConfig{Epochs: 4, Patience: 4, BatchSize: 4},
		Tran:      graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2, FFNDim: 32},
		GCN:       graphnn.GCNConfig{Layers: 2, Dim: 16},
		GAT:       graphnn.GATConfig{Layers: 1, Dim: 8, Heads: 2},

		Microbatches:  8,
		PlanMaxLenGPT: 4, PlanMaxLenMoE: 4,
		Fig10MoELayers: 6,
		PredSampleFrac: 0.3,
		PlanTrain:      predictor.TrainConfig{Epochs: 4, Patience: 4, BatchSize: 4},

		RandomPlans: 6,
		Seed:        3,
	}
}

func TestPresetsSane(t *testing.T) {
	for _, name := range []string{"quick", "paper", "paperlite"} {
		if p, ok := ByName(name); !ok || p.Name != name {
			t.Fatalf("ByName(%q) = %q, %v", name, p.Name, ok)
		}
	}
	if _, ok := ByName("huge"); ok {
		t.Fatal("ByName accepted an unknown preset")
	}
	for _, p := range []Preset{Quick(), Paper()} {
		bs := p.Benchmarks()
		if len(bs) != 2 || bs[0].Name != "GPT-3" || bs[1].Name != "MoE" {
			t.Fatalf("%s benchmarks: %+v", p.Name, bs)
		}
		if len(p.Fractions) == 0 || p.Train.Epochs == 0 {
			t.Fatalf("%s preset incomplete", p.Name)
		}
		for _, b := range bs {
			if b.MaxLen < 1 {
				t.Fatalf("%s %s MaxLen %d", p.Name, b.Name, b.MaxLen)
			}
		}
	}
	// Quick shrinks models; Paper keeps Table IV depths.
	if Quick().Benchmarks()[0].Config.Layers >= 24 {
		t.Fatal("quick preset should shrink GPT-3")
	}
	if Paper().Benchmarks()[0].Config.Layers != 24 || Paper().Benchmarks()[1].Config.Layers != 32 {
		t.Fatal("paper preset must keep Table IV depths")
	}
}

// graphsPerClass counts the stage graphs mdl's stage classes had built on
// prof: every StageGraph call, forward or training, records one root
// stage_graph[lo:hi) span, and the profile tree carries the counts.
func graphsPerClass(t *testing.T, prof *obs.Profiler, mdl *models.Model) map[models.StageClass]int {
	t.Helper()
	var buf strings.Builder
	if err := prof.WriteProfileTree(&buf); err != nil {
		t.Fatal(err)
	}
	per := map[models.StageClass]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "stage_graph[") {
			continue
		}
		var lo, hi int
		if _, err := fmt.Sscanf(line, "stage_graph[%d:%d)", &lo, &hi); err != nil {
			t.Fatalf("profile line %q: %v", line, err)
		}
		f := strings.Fields(line)
		n, err := strconv.Atoi(f[len(f)-1])
		if err != nil {
			t.Fatalf("profile line %q: %v", line, err)
		}
		per[mdl.StageClass(lo, hi)] += n
	}
	return per
}

// checkGraphsPerClass fails unless the run built at most one training graph
// and one forward encoding of each stage class, and built some of want
// classes (0: any number).
func checkGraphsPerClass(t *testing.T, run string, per map[models.StageClass]int, want int) {
	t.Helper()
	if len(per) == 0 || want > 0 && len(per) != want {
		t.Fatalf("%s built graphs of %d stage classes, want %d", run, len(per), want)
	}
	for class, n := range per {
		if n > 2 {
			t.Fatalf("%s built %d stage graphs of class %q, want at most 2 (one training graph, one encoding)", run, n, class)
		}
	}
}

func TestRunMRETableEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	p := micro()
	p.Obs.Prof = obs.NewProfiler()
	bench := p.Benchmarks()[0]
	tab := RunMRETable(p, bench, cluster.Platform1(), nil)
	// One label cache and one encoder for the table's three scenarios.
	checkGraphsPerClass(t, "the MRE table", graphsPerClass(t, p.Obs.Prof, models.Build(bench.Config)), tab.Classes)
	if len(tab.MRE) != len(p.Fractions) {
		t.Fatalf("fractions: %d", len(tab.MRE))
	}
	if len(tab.Scenarios) != 3 {
		t.Fatalf("platform-1 scenarios: %d", len(tab.Scenarios))
	}
	for fi := range tab.MRE {
		for si := range tab.MRE[fi] {
			for mi, v := range tab.MRE[fi][si] {
				if v <= 0 || v != v {
					t.Fatalf("MRE[%d][%d][%d] = %v", fi, si, mi, v)
				}
			}
		}
	}
	out := tab.Render()
	for _, want := range []string{"GPT-3", "Mesh 1", "GCN", "Tran", "70%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if w := tab.WinRate(0) + tab.WinRate(1) + tab.WinRate(2); w < 0.999 || w > 1.001 {
		t.Fatalf("win rates don't partition: %v", w)
	}

	aggs := Aggregates([]*MRETable{tab})
	if len(aggs) != len(p.Fractions)*len(ModelNames) {
		t.Fatalf("aggregates: %d", len(aggs))
	}
	for _, std := range []bool{false, true} {
		if out := RenderAggregates(aggs, std); !strings.Contains(out, "GPT-3") {
			t.Fatal("aggregate render missing series")
		}
	}
	if out := RenderFig3([]*MRETable{tab}); !strings.Contains(out, "(70% training samples)") || !strings.Contains(out, "Tran") {
		t.Fatalf("Fig 3 render not at the largest fraction:\n%s", out)
	}
}

// TestMRETableAttribution: each family's attribution is the grid-order merge
// of its cells' held-out evaluations — a sample-weighted mean of the cell
// MREs, so it lies within their range — with every held-out sample counted
// once per axis.
func TestMRETableAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	p := micro()
	p.Fractions = []int{70}
	tab := RunMRETable(p, p.Benchmarks()[0], cluster.Platform1(), nil)
	for mi, family := range ModelNames {
		a := tab.Attribution[family]
		if a == nil || a.Samples == 0 {
			t.Fatalf("%s: no attribution: %+v", family, a)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for si := range tab.Scenarios {
			lo, hi = math.Min(lo, tab.MRE[0][si][mi]), math.Max(hi, tab.MRE[0][si][mi])
		}
		if tol := 1e-9 * (1 + hi); a.MREPct < lo-tol || a.MREPct > hi+tol {
			t.Errorf("%s: merged MRE %.6f outside the cell range [%.6f, %.6f]", family, a.MREPct, lo, hi)
		}
		n := 0
		for _, b := range a.ByDepth {
			n += b.N
		}
		if n != a.Samples {
			t.Errorf("%s: depth buckets count %d samples, attribution %d", family, n, a.Samples)
		}
	}
}

func TestRunFig2EndToEnd(t *testing.T) {
	p := micro()
	for _, bench := range p.Benchmarks() {
		r := RunFig2(p, bench, nil)
		if r.Benchmark != bench.Name {
			t.Fatalf("fig2 of %s labeled %s", bench.Name, r.Benchmark)
		}
		if len(r.Latencies) == 0 {
			t.Fatalf("%s: no plans", r.Benchmark)
		}
		if r.Spread() < 1 {
			t.Fatalf("%s: spread %v", r.Benchmark, r.Spread())
		}
		if out := r.Render(); !strings.Contains(out, "median") {
			t.Fatal("fig2 render missing stats")
		}
	}
}

func TestRunFig10EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	p := micro()
	p.Obs.Prof = obs.NewProfiler()
	bench := p.Benchmarks()[0]
	runs := RunFig10(p, bench, nil)
	if len(runs) != 5 {
		t.Fatalf("fig10 versions: %d", len(runs))
	}
	mdl, _ := Fig10Model(p, bench)
	// One label cache and one encoder for the five sources and the truth.
	checkGraphsPerClass(t, "Fig 10", graphsPerClass(t, p.Obs.Prof, mdl), 0)
	var full, partial PlanRun
	for _, r := range runs {
		if !r.OK {
			t.Fatalf("%s failed", r.Version)
		}
		// Every feasible run carries a provenance report of its plan.
		if r.Report == nil {
			t.Fatalf("%s: no report", r.Version)
		}
		if r.Report.Cost == nil || r.Report.Cost.TotalSeconds <= 0 || r.Report.Pipeline.Total <= 0 {
			t.Fatalf("%s: zero cost or latency", r.Version)
		}
		n := r.Plan.NumStages()
		if n == 0 || len(r.Plan.StageEst) != n {
			t.Fatalf("%s: run plan incomplete: %+v", r.Version, r.Plan)
		}
		if r.Report.Version != r.Version || len(r.Report.Stages) != n {
			t.Fatalf("%s: report mismatch: %+v", r.Version, r.Report)
		}
		// The shared evaluation labeler gives each plan the ground truth a
		// labeler of its own gives it, to the bit.
		want, ok := planner.EvaluatePlan(predictor.NewLabeler(mdl, sim.DefaultProfiler()), r.Plan, p.Microbatches)
		if !ok || math.Float64bits(r.Report.Pipeline.Total) != math.Float64bits(want) {
			t.Fatalf("%s: report total %v, the plan's own evaluation %v (ok %v)",
				r.Version, r.Report.Pipeline.Total, want, ok)
		}
		if r.Report.LatencySource != "simulator" {
			t.Fatalf("%s: latency source %q", r.Version, r.Report.LatencySource)
		}
		if s := r.Report.Search; s == nil || s.LatencyLookups == 0 || s.TmaxCandidates == 0 {
			t.Fatalf("%s: search stats missing: %+v", r.Version, s)
		}
		if c := r.Report.Cost; c.TotalSeconds != c.ProfileSeconds+c.TrainSeconds+c.InferSeconds {
			t.Fatalf("%s: cost block does not add up: %+v", r.Version, c)
		}
		if r.Report.Provenance.Source != r.Version {
			t.Fatalf("%s: provenance source %q", r.Version, r.Report.Provenance.Source)
		}
		if strings.HasPrefix(r.Version, "PredTOP") {
			pv := r.Report.Provenance
			if len(pv.Fingerprint) != 16 || pv.Predictors == 0 || pv.Seed != p.Seed {
				t.Fatalf("%s: predictor provenance incomplete: %+v", r.Version, pv)
			}
		}
		switch r.Version {
		case "Alpa-Full":
			full = r
		case "Alpa-Partial":
			partial = r
		}
	}
	if partial.Report.Cost.TotalSeconds >= full.Report.Cost.TotalSeconds {
		t.Fatal("partial profiling must cost less than full")
	}
	// Every predictor version must beat partial profiling on cost — the
	// core Fig-10a claim.
	var reports []*planner.Report
	for i, r := range runs {
		reports = append(reports, r.Report)
		if c := r.Report.Cost.TotalSeconds; i >= 2 && c >= partial.Report.Cost.TotalSeconds {
			t.Fatalf("%s (%.0fs) not cheaper than partial (%.0fs)",
				r.Version, c, partial.Report.Cost.TotalSeconds)
		}
	}
	out := RenderFig10("GPT-3", reports)
	for _, want := range []string{"(a) optimization time", "(b) iteration latency", "vs partial", "vs full"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig10 render missing %q", want)
		}
	}
}

func TestRenderFig6(t *testing.T) {
	out := RenderFig6()
	if !strings.Contains(out, "stage 4") || !strings.Contains(out, "Eqn 4") {
		t.Fatalf("fig6 render:\n%s", out)
	}
}

func TestRunAblationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	p := micro()
	rows := RunAblation(p, p.Benchmarks()[0], cluster.Platform1(), 0.5, nil)
	if len(rows) != 5 {
		t.Fatalf("ablation rows: %d", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		if r.MRE <= 0 {
			t.Fatalf("%s: MRE %v", r.Variant, r.MRE)
		}
		byName[r.Variant] = r
	}
	// Pruning must shrink the encoded graphs.
	if byName["no-pruning"].AvgN <= byName["full"].AvgN {
		t.Fatalf("pruning did not shrink graphs: %v vs %v",
			byName["no-pruning"].AvgN, byName["full"].AvgN)
	}
	if out := RenderAblation("GPT-3", rows); !strings.Contains(out, "no-DAGRA") {
		t.Fatal("ablation render incomplete")
	}
}

// TestMaskAblatedKeepsSharedEncodings checks the mask and depth ablations
// copy each distinct encoding once: samples of one stage class share their
// ablated copy as they shared the original, so training still runs each
// distinct graph once per minibatch, and no ablated copy aliases an original.
func TestMaskAblatedKeepsSharedEncodings(t *testing.T) {
	bench := micro().Benchmarks()[0]
	mdl := models.Build(bench.Config)
	specs := stage.AllSpecs(mdl.NumSegments(), 3)
	ds := predictor.BuildDataset(predictor.NewEncoder(mdl, true), specs,
		cluster.Scenarios(cluster.Platform1())[0], sim.DefaultProfiler())
	distinct := func(ds *predictor.Dataset) map[*stage.Encoded]bool {
		set := map[*stage.Encoded]bool{}
		for _, s := range ds.Samples {
			set[s.Encoded] = true
		}
		return set
	}
	orig := distinct(ds)
	if len(orig) >= len(ds.Samples) {
		t.Fatalf("%d samples of %d distinct encodings: no class is shared", len(ds.Samples), len(orig))
	}
	for _, v := range []struct{ openMask, zeroDepth bool }{{true, false}, {false, true}} {
		ab := maskAblated(ds, v.openMask, v.zeroDepth)
		got := distinct(ab)
		if len(got) != len(orig) {
			t.Fatalf("%+v: %d distinct ablated encodings, want %d as in the original", v, len(got), len(orig))
		}
		for e := range got {
			if orig[e] {
				t.Fatalf("%+v: an ablated sample holds an original encoding", v)
			}
		}
		for i, s := range ab.Samples {
			o := ds.Samples[i]
			if s.Spec != o.Spec || s.Measured != o.Measured || s.Encoded.X != o.Encoded.X {
				t.Fatalf("%+v: sample %d changed beyond its mask and depths", v, i)
			}
		}
	}
}

// TestMRETableWorkerInvariant checks the experiment harness inherits the
// engine's determinism: the full MRE grid is bitwise identical whether cells
// run serially (GOMAXPROCS 1) or concurrently (GOMAXPROCS 3), because each
// cell derives its RNGs from its own (fraction, scenario, model) coordinates,
// never from schedule order.
func TestMRETableWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("grid comparison is slow")
	}
	p := micro()
	p.Fractions = []int{60}
	p.Train.Epochs = 2
	p.Train.Patience = 2
	bench := p.Benchmarks()[0]

	run := func(procs int) *MRETable {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return RunMRETable(p, bench, cluster.Platform1(), io.Discard)
	}
	serial := run(1)
	concurrent := run(3)
	for fi := range serial.MRE {
		for si := range serial.MRE[fi] {
			for mi, want := range serial.MRE[fi][si] {
				got := concurrent.MRE[fi][si][mi]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cell f=%d s=%d m=%d: GOMAXPROCS=3 %v != GOMAXPROCS=1 %v",
						fi, si, mi, got, want)
				}
			}
		}
	}
}
