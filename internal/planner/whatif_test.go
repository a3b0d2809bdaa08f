package planner

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/pipeline"
	"predtop/internal/stage"
)

// TestWhatIfUnperturbedBitwise is the what-if determinism property: replaying
// a plan against the unperturbed platform must reproduce the plan's
// simulator-exact evaluation bitwise — per stage and in the Eqn-4 total —
// for the zero perturbation, all-identity scale factors, and an explicit
// same-microbatch override alike.
func TestWhatIfUnperturbedBitwise(t *testing.T) {
	mdl := tinyModel()
	p := cluster.Platform1()
	const B = 8
	plan, ok := Optimize(mdl.NumSegments(), p, TrueLatency(mdl), Options{Microbatches: B})
	if !ok {
		t.Fatal("no plan")
	}
	wantLats, ok := StageLatencies(newLabeler(mdl), plan)
	if !ok {
		t.Fatal("baseline evaluation infeasible")
	}
	wantTotal := pipeline.Latency(wantLats, B)

	cases := []struct {
		name string
		pt   Perturbation
	}{
		{"zero perturbation", Perturbation{}},
		{"identity scales", Perturbation{IntraNodeBW: 1, InterNodeBW: 1, InterNodeLatency: 1}},
		{"same microbatches", Perturbation{Microbatches: B}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, ok := WhatIf(newLabeler(mdl), p, plan, B, tc.pt, ReportOptions{})
			if !ok {
				t.Fatal("what-if infeasible on unperturbed platform")
			}
			for i, s := range r.Stages {
				if math.Float64bits(s.Latency) != math.Float64bits(wantLats[i]) {
					t.Fatalf("stage %d latency %v != baseline %v", i, s.Latency, wantLats[i])
				}
			}
			if math.Float64bits(r.Pipeline.Total) != math.Float64bits(wantTotal) {
				t.Fatalf("what-if total %v != baseline %v", r.Pipeline.Total, wantTotal)
			}
		})
	}
}

func TestWhatIfMicrobatchOverride(t *testing.T) {
	mdl := tinyModel()
	p := cluster.Platform1()
	plan, ok := Optimize(mdl.NumSegments(), p, TrueLatency(mdl), Options{Microbatches: 8})
	if !ok {
		t.Fatal("no plan")
	}
	lats, _ := StageLatencies(newLabeler(mdl), plan)
	r, ok := WhatIf(newLabeler(mdl), p, plan, 8, Perturbation{Microbatches: 16}, ReportOptions{})
	if !ok {
		t.Fatal("what-if failed")
	}
	want := pipeline.Latency(lats, 16)
	if math.Float64bits(r.Pipeline.Total) != math.Float64bits(want) {
		t.Fatalf("doubled-B total %v != %v", r.Pipeline.Total, want)
	}
	if r.Microbatches != 16 || r.Scenario != "microbatches=16" {
		t.Fatalf("scenario header wrong: %+v", r)
	}
}

// TestWhatIfBandwidthMonotone: scaling the interconnects up can only help
// (or leave unchanged) every stage.
func TestWhatIfBandwidthMonotone(t *testing.T) {
	mdl := tinyModel()
	p := cluster.Platform2()
	plan, ok := Optimize(mdl.NumSegments(), p, TrueLatency(mdl), Options{Microbatches: 8})
	if !ok {
		t.Fatal("no plan")
	}
	base, ok := WhatIf(newLabeler(mdl), p, plan, 8, Perturbation{}, ReportOptions{})
	if !ok {
		t.Fatal("baseline what-if failed")
	}
	fast, ok := WhatIf(newLabeler(mdl), p, plan, 8, Perturbation{IntraNodeBW: 8, InterNodeBW: 8}, ReportOptions{})
	if !ok {
		t.Fatal("scaled what-if failed")
	}
	for i := range base.Stages {
		if fast.Stages[i].Latency > base.Stages[i].Latency {
			t.Fatalf("stage %d slower with 8x bandwidth: %v > %v",
				i, fast.Stages[i].Latency, base.Stages[i].Latency)
		}
	}
	if fast.Pipeline.Total > base.Pipeline.Total {
		t.Fatalf("total slower with 8x bandwidth: %v > %v", fast.Pipeline.Total, base.Pipeline.Total)
	}

	d := Diff(base, fast)
	if d.Delta > 0 {
		t.Fatalf("diff delta positive: %+v", d)
	}
	if !strings.Contains(d.Render(), "unperturbed") {
		t.Fatalf("baseline label missing:\n%s", d.Render())
	}
}

// TestWhatIfPlatformSwap replays a platform-1 plan (submeshes up to 1×2) on
// platform 2, whose slower inter-node fabric is irrelevant for intra-node
// meshes but whose different GPU changes compute latency.
func TestWhatIfPlatformSwap(t *testing.T) {
	mdl := tinyModel()
	p1 := cluster.Platform1()
	plan, ok := Optimize(mdl.NumSegments(), p1, TrueLatency(mdl), Options{Microbatches: 8})
	if !ok {
		t.Fatal("no plan")
	}
	p2 := cluster.Platform2()
	r, ok := WhatIf(newLabeler(mdl), p1, plan, 8, Perturbation{Platform: &p2}, ReportOptions{})
	if !ok {
		t.Fatal("platform swap infeasible")
	}
	if r.Platform != p2.Name {
		t.Fatalf("report platform %q, want %q", r.Platform, p2.Name)
	}
	if r.Pipeline.Total <= 0 {
		t.Fatalf("swapped plan has no latency: %+v", r.Pipeline)
	}

	// The reverse direction must fail: platform-2 plans may use 2×2 meshes
	// that platform 1 (1 node) cannot host.
	plan2, ok := Optimize(mdl.NumSegments(), p2, TrueLatency(mdl), Options{Microbatches: 8})
	if !ok {
		t.Fatal("no platform-2 plan")
	}
	uses2x2 := false
	for _, m := range plan2.Meshes {
		if m.Nodes > 1 {
			uses2x2 = true
		}
	}
	if uses2x2 {
		if _, ok := WhatIf(newLabeler(mdl), p2, plan2, 8, Perturbation{Platform: &p1}, ReportOptions{}); ok {
			t.Fatal("2-node submesh replayed onto a 1-node platform")
		}
	}
}

// TestEvaluateAndWhatIfWorkerInvariant checks that the labeler's concurrent
// labeling of a mesh's configurations keeps the ground truth's bits: under
// GOMAXPROCS 1 (serial) and 3 (more workers than cores), EvaluatePlan and a
// what-if replay of a plan with a stage on each mesh shape, the 2×2 one with
// three configurations, must give identical answers. It runs under -short so
// the race pass covers the fan-out outside FullProfiling.
func TestEvaluateAndWhatIfWorkerInvariant(t *testing.T) {
	p := cluster.Platform2()
	meshes := cluster.Meshes(p)
	plan := Plan{
		Stages: []stage.Spec{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 5}, {Lo: 5, Hi: 8}},
		Meshes: []cluster.Mesh{meshes[0], meshes[2], meshes[1]},
	}
	pt := Perturbation{InterNodeBW: 4, Microbatches: 16}
	run := func(procs int) (uint64, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		lab := newLabeler(tinyModel())
		eval, ok := EvaluatePlan(lab, plan, 8)
		if !ok {
			t.Fatalf("GOMAXPROCS=%d: plan infeasible", procs)
		}
		r, ok := WhatIf(lab, p, plan, 8, pt, ReportOptions{})
		if !ok {
			t.Fatalf("GOMAXPROCS=%d: what-if infeasible", procs)
		}
		b, err := r.WriteJSON()
		if err != nil {
			t.Fatal(err)
		}
		return math.Float64bits(eval), b
	}
	serialEval, serialReport := run(1)
	concEval, concReport := run(3)
	if concEval != serialEval {
		t.Fatalf("EvaluatePlan: GOMAXPROCS=3 %#x != GOMAXPROCS=1 %#x", concEval, serialEval)
	}
	if !bytes.Equal(concReport, serialReport) {
		t.Fatalf("what-if report: GOMAXPROCS=3\n%s\n!= GOMAXPROCS=1\n%s", concReport, serialReport)
	}
}

func TestParsePerturbation(t *testing.T) {
	cases := []struct {
		in      string
		want    string // canonical String() of the parsed perturbation
		wantErr bool
	}{
		{"", "unperturbed", false},
		{"   ", "unperturbed", false},
		{"microbatches=32", "microbatches=32", false},
		{"b=4", "microbatches=4", false},
		{"internode-bw=x4", "internode-bw=x4", false},
		{"internode-bw=4", "internode-bw=x4", false},
		{"platform=2,intranode-bw=2,internode-lat=x0.5", "platform=Platform2-A5500,intranode-bw=x2,internode-lat=x0.5", false},
		{"Microbatches=8", "microbatches=8", false},
		{"microbatches=0", "", true},
		{"microbatches=abc", "", true},
		{"platform=3", "", true},
		{"internode-bw=-1", "", true},
		{"intranode-bw=xNaN", "", true},
		{"internode-bw=xInf", "", true},
		{"internode-lat=+Inf", "", true},
		{"intranode-bw=x1e999", "", true},
		{"bogus=1", "", true},
		{"microbatches", "", true},
	}
	for _, tc := range cases {
		pt, err := ParsePerturbation(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("%q: want error, got %+v", tc.in, pt)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if got := pt.String(); got != tc.want {
			t.Fatalf("%q parsed to %q, want %q", tc.in, got, tc.want)
		}
	}
	if _, err := ParsePerturbation("bogus=1"); err == nil || !strings.Contains(err.Error(), "microbatches") {
		t.Fatalf("unknown-key error should list valid keys: %v", err)
	}
}

// FuzzParsePerturbation: the -whatif parser never panics; a spec it accepts
// sets every field it sets to a finite positive value; and an accepted spec
// that names no platform round-trips through String (the zero perturbation's
// "unperturbed" label stands for the empty spec).
func FuzzParsePerturbation(f *testing.F) {
	for _, seed := range []string{
		"", "microbatches=32", "b=4,internode-bw=x4", "platform=2,intranode-bw=2,internode-lat=x0.5",
		"intranode-bw=xNaN", "internode-bw=xInf", "internode-lat=x1e-320", "internode-bw=x0x1p-2",
		"microbatches=0", "platform=3", "=", ",,", "internode-bw=x1e308,intranode-bw=1_0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pt, err := ParsePerturbation(spec)
		if err != nil {
			return
		}
		for name, v := range map[string]float64{
			"intranode-bw": pt.IntraNodeBW, "internode-bw": pt.InterNodeBW, "internode-lat": pt.InterNodeLatency,
		} {
			if v != 0 && !(v > 0 && !math.IsInf(v, 1)) {
				t.Fatalf("%q: %s = %v, want a finite positive scale", spec, name, v)
			}
		}
		if pt.Microbatches < 0 {
			t.Fatalf("%q: microbatches = %d", spec, pt.Microbatches)
		}
		if pt.Platform != nil {
			return
		}
		canon := pt.String()
		if pt.IsZero() {
			canon = ""
		}
		back, err := ParsePerturbation(canon)
		if err != nil || back != pt {
			t.Fatalf("%q → %q → %+v, %v: does not round-trip", spec, canon, back, err)
		}
	})
}
