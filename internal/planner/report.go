package planner

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"predtop/internal/cluster"
	"predtop/internal/models"
	"predtop/internal/pipeline"
	"predtop/internal/predictor"
)

// StageReport explains one pipeline stage of a plan: which segments it
// covers, the submesh executing it, and its latency under both the estimate
// that drove the search and the ground truth the report was built with.
type StageReport struct {
	Index    int `json:"index"`
	Lo       int `json:"lo"`
	Hi       int `json:"hi"`
	Segments int `json:"segments"`
	// MeshNodes × MeshGPUsPerNode is the submesh shape; Devices its size.
	MeshNodes       int  `json:"mesh_nodes"`
	MeshGPUsPerNode int  `json:"mesh_gpus_per_node"`
	Devices         int  `json:"devices"`
	CrossNode       bool `json:"cross_node,omitempty"`
	// EstLatency is the search-time estimate (profiled or predicted);
	// Latency is the stage's true latency handed to BuildReport.
	EstLatency float64 `json:"est_latency"`
	Latency    float64 `json:"latency"`
}

// PipelineReport decomposes the Eqn-4 iteration latency: Total =
// SumStages + (B−1)·MaxStage, with the bubble share quantifying how much of
// the iteration the non-bottleneck stages spend idle.
type PipelineReport struct {
	SumStages float64 `json:"sum_stages"`
	MaxStage  float64 `json:"max_stage"`
	// Bottleneck is the index of the slowest stage (−1 for an empty plan).
	Bottleneck    int     `json:"bottleneck"`
	BubbleSeconds float64 `json:"bubble_seconds"`
	Total         float64 `json:"total"`
	BubbleShare   float64 `json:"bubble_share"`
}

// CostReport is the Meter snapshot attached to a report: simulated seconds
// and counts only, so reports stay byte-identical across runs of one seed.
type CostReport struct {
	ProfileSeconds float64 `json:"profile_seconds"`
	TrainSeconds   float64 `json:"train_seconds"`
	InferSeconds   float64 `json:"infer_seconds"`
	TotalSeconds   float64 `json:"total_seconds"`
	StagesProfiled int     `json:"stages_profiled"`
}

// Report is the full provenance record of one planner run: what was planned
// (model, platform, microbatches), who answered the latency queries
// (Provenance), what the search explored (Search), what it cost (Cost), and
// the resulting plan stage by stage with its pipeline decomposition. Every
// field is deterministic for a fixed seed, so the JSON rendering is
// byte-identical across runs — the property the plan-smoke CI gate pins.
type Report struct {
	// Version names the planner version ("Alpa-Full", "PredTOP-Tran", ...).
	Version string `json:"version,omitempty"`
	// TraceID correlates the report with the run's predtop_run_info series,
	// JSONL events, and Chrome trace (seed-derived, never wall-clock).
	TraceID  string `json:"trace_id,omitempty"`
	Model    string `json:"model,omitempty"`
	Platform string `json:"platform,omitempty"`
	// Scenario describes a what-if perturbation ("" for a baseline report).
	Scenario     string `json:"scenario,omitempty"`
	NumSegments  int    `json:"segments"`
	Microbatches int    `json:"microbatches"`
	// LatencySource says where Stages[i].Latency came from. It is always
	// "simulator": BuildReport takes the simulator-exact stage latencies.
	LatencySource string         `json:"latency_source"`
	EstLatency    float64        `json:"est_latency"`
	Provenance    ProviderInfo   `json:"provenance"`
	Search        *SearchStats   `json:"search,omitempty"`
	Cost          *CostReport    `json:"cost,omitempty"`
	Stages        []StageReport  `json:"stages"`
	Pipeline      PipelineReport `json:"pipeline"`
}

// ReportOptions supplies the context BuildReport cannot derive from the plan
// itself. Every field is optional.
type ReportOptions struct {
	// Version and TraceID label the report (see Report fields).
	Version string
	TraceID string
	// Microbatches is B in Eqn 4 (non-positive selects the Options default
	// of 16, matching Optimize).
	Microbatches int
	// Provenance identifies the latency source that drove the search.
	Provenance ProviderInfo
	// Meter, when non-nil, attaches the optimization-cost snapshot.
	Meter *Meter
}

// BuildReport assembles the provenance report for a plan whose stages have
// the true latencies lats (StageLatencies), one per stage: a plan's ground
// truth is computed once, by the caller, and the report only records it. mdl
// names the model and may be nil. A searched plan's Search stats become the
// report's search block. Building a report never mutates the plan.
func BuildReport(mdl *models.Model, p cluster.Platform, plan Plan, lats []float64, opt ReportOptions) *Report {
	if len(lats) != len(plan.Stages) {
		panic(fmt.Sprintf("planner: BuildReport got %d stage latencies for a plan of %d stages", len(lats), len(plan.Stages)))
	}
	if opt.Microbatches <= 0 {
		opt.Microbatches = defaultMicrobatches
	}

	r := &Report{
		Version:       opt.Version,
		TraceID:       opt.TraceID,
		Platform:      p.Name,
		Microbatches:  opt.Microbatches,
		LatencySource: "simulator",
		EstLatency:    plan.Est,
		Provenance:    opt.Provenance,
	}
	if plan.Search.LatencyLookups > 0 {
		s := plan.Search
		r.Search = &s
	}
	if mdl != nil {
		r.Model = mdl.Config.Name
	}
	for i, sp := range plan.Stages {
		m := plan.Meshes[i]
		sr := StageReport{
			Index: i, Lo: sp.Lo, Hi: sp.Hi, Segments: sp.Hi - sp.Lo,
			MeshNodes: m.Nodes, MeshGPUsPerNode: m.GPUsPerNode,
			Devices: m.NumDevices(), CrossNode: m.CrossNode(), Latency: lats[i],
		}
		if i < len(plan.StageEst) {
			sr.EstLatency = plan.StageEst[i]
		}
		r.NumSegments += sr.Segments
		r.Stages = append(r.Stages, sr)
	}
	r.Pipeline = pipelineReport(lats, opt.Microbatches)
	if opt.Meter != nil {
		m := opt.Meter
		r.Cost = &CostReport{
			ProfileSeconds: m.ProfileSeconds, TrainSeconds: m.TrainSeconds,
			InferSeconds: m.InferSeconds, TotalSeconds: m.Total(),
			StagesProfiled: m.StagesProfiled,
		}
	}
	return r
}

func pipelineReport(lats []float64, microbatches int) PipelineReport {
	var pr PipelineReport
	for _, t := range lats {
		pr.SumStages += t
	}
	pr.Bottleneck, pr.MaxStage = pipeline.Bottleneck(lats)
	pr.Total = pipeline.Latency(lats, microbatches)
	pr.BubbleSeconds = pr.Total - pr.SumStages
	pr.BubbleShare = pipeline.BubbleFraction(lats, microbatches)
	return pr
}

// WriteJSON renders the report as indented JSON with a trailing newline —
// the canonical byte-identical-per-seed serialization.
func (r *Report) WriteJSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// SaveFile writes the canonical JSON rendering to path through
// predictor.AtomicWrite, so a run killed mid-write leaves the previous
// report, never a torn one.
func (r *Report) SaveFile(path string) error {
	b, err := r.WriteJSON()
	if err != nil {
		return err
	}
	return predictor.AtomicWrite(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// LoadReport reads a report previously written by SaveFile.
func LoadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("planner: parse report %s: %w", path, err)
	}
	return &r, nil
}

// Render returns the /statusz-style human rendering of the report. Pure
// function of the report contents — deterministic, golden-testable.
func (r *Report) Render() string {
	var b strings.Builder
	title := "plan report"
	if r.Version != "" {
		title += " · " + r.Version
	}
	fmt.Fprintf(&b, "=== %s ===\n", title)
	if r.Model != "" || r.Platform != "" {
		fmt.Fprintf(&b, "model: %-22s platform: %s\n", r.Model, r.Platform)
	}
	if r.Scenario != "" {
		fmt.Fprintf(&b, "scenario: %s\n", r.Scenario)
	}
	fmt.Fprintf(&b, "segments: %-4d microbatches: %-4d stages: %-4d latency source: %s\n",
		r.NumSegments, r.Microbatches, len(r.Stages), r.LatencySource)
	if r.TraceID != "" {
		fmt.Fprintf(&b, "trace: %s\n", r.TraceID)
	}
	if p := r.Provenance; p.Source != "" {
		fmt.Fprintf(&b, "provenance: %s", p.Source)
		if p.Fingerprint != "" {
			fmt.Fprintf(&b, " seed=%d fingerprint=%s predictors=%d sample_frac=%g",
				p.Seed, p.Fingerprint, p.Predictors, p.SampleFrac)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nstages:\n")
	fmt.Fprintf(&b, "  %-3s %-9s %-6s %-7s %-5s %12s %12s\n",
		"#", "segments", "mesh", "devices", "fab", "est(s)", "lat(s)")
	for _, s := range r.Stages {
		fab := "intra"
		if s.CrossNode {
			fab = "inter"
		}
		fmt.Fprintf(&b, "  %-3d [%d,%d)%*s %dx%-4d %-7d %-5s %12.6f %12.6f\n",
			s.Index, s.Lo, s.Hi, maxInt(0, 6-digits(s.Lo)-digits(s.Hi)), "",
			s.MeshNodes, s.MeshGPUsPerNode, s.Devices, fab, s.EstLatency, s.Latency)
	}
	p := r.Pipeline
	b.WriteString("\npipeline (Eqn 4):\n")
	fmt.Fprintf(&b, "  sum stages:  %12.6f s\n", p.SumStages)
	fmt.Fprintf(&b, "  max stage:   %12.6f s (stage %d)\n", p.MaxStage, p.Bottleneck)
	fmt.Fprintf(&b, "  bubble:      %12.6f s (share %.4f)\n", p.BubbleSeconds, p.BubbleShare)
	fmt.Fprintf(&b, "  total:       %12.6f s   (search estimate: %.6f s)\n", p.Total, r.EstLatency)
	if s := r.Search; s != nil {
		b.WriteString("\nsearch:\n")
		fmt.Fprintf(&b, "  space: %d segments × %d meshes, %d devices, max stage len %d\n",
			s.Segments, s.Meshes, s.Devices, s.MaxStageLen)
		fmt.Fprintf(&b, "  lookups: %d (%d feasible, %d infeasible)\n",
			s.LatencyLookups, s.Feasible, s.Infeasible)
		fmt.Fprintf(&b, "  tmax candidates: %d   dp states: %d   dp transitions: %d   improvements: %d\n",
			s.TmaxCandidates, s.DPStates, s.DPTransitions, s.Improvements)
	}
	if c := r.Cost; c != nil {
		b.WriteString("\ncost (simulated):\n")
		fmt.Fprintf(&b, "  profile %.3f s + train %.3f s + infer %.3f s = %.3f s (%d stages profiled)\n",
			c.ProfileSeconds, c.TrainSeconds, c.InferSeconds, c.TotalSeconds, c.StagesProfiled)
	}
	return b.String()
}

func digits(v int) int { return len(fmt.Sprint(v)) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// StageDiff is one row of a report diff: the same stage index under the
// baseline and scenario reports.
type StageDiff struct {
	Index int `json:"index"`
	// InBase/InScenario report presence: a what-if never changes the stage
	// set, but diffs over arbitrary report files may compare plans of
	// different depth.
	InBase     bool    `json:"in_base"`
	InScenario bool    `json:"in_scenario"`
	Base       float64 `json:"base"`
	Scenario   float64 `json:"scenario"`
	Delta      float64 `json:"delta"`
}

// ReportDiff is the side-by-side latency comparison of two reports —
// typically a baseline plan and its what-if replay.
type ReportDiff struct {
	BaseLabel     string      `json:"base_label,omitempty"`
	ScenarioLabel string      `json:"scenario_label,omitempty"`
	Stages        []StageDiff `json:"stages"`
	BaseTotal     float64     `json:"base_total"`
	ScenarioTotal float64     `json:"scenario_total"`
	Delta         float64     `json:"delta"`
	// DeltaPct is the relative change in percent (0 when the base is 0).
	DeltaPct float64 `json:"delta_pct"`
}

// Diff compares two reports stage by stage (aligned by index) and on the
// Eqn-4 total.
func Diff(base, scen *Report) *ReportDiff {
	d := &ReportDiff{
		BaseLabel:     labelOf(base),
		ScenarioLabel: labelOf(scen),
		BaseTotal:     base.Pipeline.Total,
		ScenarioTotal: scen.Pipeline.Total,
	}
	d.Delta = d.ScenarioTotal - d.BaseTotal
	if d.BaseTotal != 0 {
		d.DeltaPct = 100 * d.Delta / d.BaseTotal
	}
	n := maxInt(len(base.Stages), len(scen.Stages))
	for i := 0; i < n; i++ {
		sd := StageDiff{Index: i}
		if i < len(base.Stages) {
			sd.InBase = true
			sd.Base = base.Stages[i].Latency
		}
		if i < len(scen.Stages) {
			sd.InScenario = true
			sd.Scenario = scen.Stages[i].Latency
		}
		sd.Delta = sd.Scenario - sd.Base
		d.Stages = append(d.Stages, sd)
	}
	return d
}

func labelOf(r *Report) string {
	if r.Scenario != "" {
		return r.Scenario
	}
	if r.Version != "" {
		return r.Version
	}
	return "baseline"
}

// Render returns the human rendering of the diff: one row per stage plus the
// Eqn-4 totals, deltas signed and percentages against the baseline.
func (d *ReportDiff) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== what-if diff: %s → %s ===\n", d.BaseLabel, d.ScenarioLabel)
	fmt.Fprintf(&b, "  %-5s %14s %14s %14s\n", "stage", "base(s)", "scenario(s)", "delta(s)")
	for _, s := range d.Stages {
		base, scen := fmt.Sprintf("%.6f", s.Base), fmt.Sprintf("%.6f", s.Scenario)
		if !s.InBase {
			base = "-"
		}
		if !s.InScenario {
			scen = "-"
		}
		fmt.Fprintf(&b, "  %-5d %14s %14s %+14.6f\n", s.Index, base, scen, s.Delta)
	}
	fmt.Fprintf(&b, "  %-5s %14.6f %14.6f %+14.6f (%+.2f%%)\n",
		"total", d.BaseTotal, d.ScenarioTotal, d.Delta, d.DeltaPct)
	if math.Abs(d.Delta) < 1e-15 {
		b.WriteString("  no latency change under this scenario\n")
	}
	return b.String()
}
