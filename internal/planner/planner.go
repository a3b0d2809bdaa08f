// Package planner implements the inter-operator (pipeline) parallelization
// planner the paper integrates PredTOP into (§VI, §VIII-B): an Alpa-style
// dynamic program that slices the model into contiguous stages, assigns each
// stage a submesh, and minimizes the Eqn-4 iteration latency — driven either
// by profiled stage latencies (vanilla Alpa, full or partial profiling) or
// by a trained latency predictor (PredTOP).
//
// Beyond the search itself, the package makes every planner run auditable
// with two instruments: Optimize returns deterministic search statistics
// with its plan (Plan.Search) and times itself on a span profiler
// (Options.Prof).
// BuildReport turns a plan into a provenance Report (JSON + text) carrying
// the stats, and WhatIf replays a cached plan against a perturbed cluster
// without re-searching (DESIGN.md §11). All of it observes only — plans are
// bitwise identical with either instrument on or off.
package planner

import (
	"math"
	"slices"

	"predtop/internal/cluster"
	"predtop/internal/obs"
	"predtop/internal/pipeline"
	"predtop/internal/predictor"
	"predtop/internal/stage"
)

// choicem records one DP decision: the stage end boundary and mesh index.
type choicem struct{ hi, mesh int }

// LatencyFn estimates the optimal intra-stage latency of a stage on a mesh.
// ok reports whether the pair is usable (fits memory / was profiled).
type LatencyFn func(sp stage.Spec, mesh cluster.Mesh) (lat float64, ok bool)

// defaultMicrobatches is B in Eqn 4 when a caller gives none.
const defaultMicrobatches = 16

// Options configures the inter-stage search.
type Options struct {
	// Microbatches is B in Eqn 4 (default 16; non-positive selects the
	// default).
	Microbatches int
	// MaxStageLen caps stage length in segments (0 = unbounded).
	MaxStageLen int
	// Prof, when non-nil, receives hierarchical spans for the search — its
	// only wall-clock record: planner.optimize → estimate (every (stage,
	// mesh) lookup; their count is SearchStats.LatencyLookups) and dp (one
	// folded "tmax" child across the t_max sweep). A nil profiler is a
	// zero-cost no-op and never alters the plan.
	Prof *obs.Profiler
}

func (o Options) withDefaults() Options {
	if o.Microbatches <= 0 {
		o.Microbatches = defaultMicrobatches
	}
	return o
}

// SearchStats describes what one Optimize call explored. All fields are
// deterministic functions of the search inputs (never wall-clock or
// scheduling order), which is what lets them ride inside byte-identical plan
// reports; wall time lives only in the span tree (Options.Prof).
type SearchStats struct {
	// Segments, Meshes, and Devices echo the search space dimensions.
	Segments int `json:"segments"`
	Meshes   int `json:"meshes"`
	Devices  int `json:"devices"`
	// MaxStageLen is the effective stage-length cap the search ran with.
	MaxStageLen int `json:"max_stage_len"`
	// LatencyLookups counts latency-source queries; Feasible/Infeasible
	// split them by outcome (infeasible = out of memory / unprofiled /
	// non-positive or +Inf estimates).
	LatencyLookups int64 `json:"latency_lookups"`
	Feasible       int64 `json:"feasible_pairs"`
	Infeasible     int64 `json:"infeasible_pairs"`
	// TmaxCandidates is the number of distinct bottleneck-latency values the
	// outer enumeration sweeps after dedup.
	TmaxCandidates int `json:"tmax_candidates"`
	// DPStates counts (segment, devices-remaining) cells evaluated across
	// the whole sweep; DPTransitions counts candidate (boundary, mesh)
	// decisions examined inside those cells.
	DPStates      int64 `json:"dp_states"`
	DPTransitions int64 `json:"dp_transitions"`
	// Improvements counts how many t_max candidates improved the incumbent
	// plan — the last improvement is the returned plan.
	Improvements int `json:"improvements"`
}

// Plan is a complete parallelization plan: a stage partition and the submesh
// executing each stage.
type Plan struct {
	Stages []stage.Spec
	Meshes []cluster.Mesh
	// StageEst holds each stage's latency estimate from the source that
	// drove the search, parallel to Stages.
	StageEst []float64
	// Est is the Eqn-4 iteration latency under the estimates that drove the
	// search.
	Est float64
	// Search is what the search that returned the plan explored, set
	// whenever Optimize got valid input (also when it found no plan); zero
	// on a plan no search produced, such as a what-if replay.
	Search SearchStats
}

// NumStages returns the pipeline depth.
func (p Plan) NumStages() int { return len(p.Stages) }

// Optimize searches for the plan minimizing Eqn 4 over all contiguous stage
// partitions and submesh assignments that exactly tile the cluster's
// devices: it asks lat for every (stage, mesh) pair once (estimate), then
// searches only those answers (search).
//
// Degenerate input — non-positive numSegments, a platform with no devices,
// or a nil latency source — is reported as infeasible (ok=false), never a
// panic.
func Optimize(numSegments int, p cluster.Platform, lat LatencyFn, opt Options) (Plan, bool) {
	opt = opt.withDefaults()
	meshes := cluster.Meshes(p)
	totalDev := p.Nodes * p.GPUsPerNode
	if numSegments <= 0 || lat == nil || len(meshes) == 0 || totalDev <= 0 {
		return Plan{}, false
	}
	maxLen := opt.MaxStageLen
	if maxLen <= 0 || maxLen > numSegments {
		maxLen = numSegments
	}
	stats := SearchStats{
		Segments: numSegments, Meshes: len(meshes), Devices: totalDev,
		MaxStageLen: maxLen,
	}

	root := opt.Prof.Start("planner.optimize")
	defer root.End()
	span := root.Start("estimate")
	est := estimate(numSegments, maxLen, meshes, lat, &stats)
	span.End()
	return search(est, meshes, totalDev, opt.Microbatches, stats, root)
}

// estimate asks lat for every (stage, mesh) pair of stage.AllSpecs ×
// meshes, once each and in that order, into a dense table, and counts the
// lookups by outcome on stats.
func estimate(numSegments, maxLen int, meshes []cluster.Mesh, lat LatencyFn, stats *SearchStats) estTable {
	est := newEstTable(numSegments, maxLen, len(meshes))
	for _, sp := range stage.AllSpecs(numSegments, maxLen) {
		for mi, mesh := range meshes {
			stats.LatencyLookups++
			if t, ok := lat(sp, mesh); ok && t > 0 && !math.IsInf(t, 1) {
				stats.Feasible++
				est.v[est.at(sp.Lo, sp.Hi, mi)] = t
			} else {
				stats.Infeasible++
			}
		}
	}
	return est
}

// search runs Alpa's inter-op DP over est alone: it enumerates the
// bottleneck latency t_max over the table's distinct finite entries and, for
// each, runs a (segment, devices-remaining) DP minimizing Σtᵢ subject to
// tᵢ ≤ t_max. The returned plan carries stats with the DP's counts added.
func search(est estTable, meshes []cluster.Mesh, totalDev, microbatches int, stats SearchStats, root obs.Span) (Plan, bool) {
	candidates := slices.DeleteFunc(slices.Clone(est.v), func(t float64) bool { return math.IsInf(t, 1) })
	if len(candidates) == 0 {
		return Plan{Search: stats}, false
	}
	slices.Sort(candidates)
	M := len(meshes)
	devs := make([]int, M)
	for mi, mesh := range meshes {
		devs[mi] = mesh.NumDevices()
	}

	bestT := math.Inf(1)
	var bestPlan Plan
	B := float64(microbatches - 1)

	// DP state: f[k*W+d] = min Σt to place segments [k, numSegments) using
	// exactly d devices; choice[k*W+d] records (hi, meshIdx).
	numSegments, maxLen := est.segments, est.maxLen
	W := totalDev + 1
	f := make([]float64, (numSegments+1)*W)
	choice := make([]choicem, (numSegments+1)*W)
	last := f[numSegments*W:]
	for d := range last {
		last[d] = math.Inf(1)
	}
	last[0] = 0

	tmaxes := dedup(candidates)
	stats.TmaxCandidates = len(tmaxes)
	dpSpan := root.Start("dp")
	for _, tmax := range tmaxes {
		it := dpSpan.Start("tmax")
		// The boundary row k = numSegments is fixed; every other cell scans
		// each (hi, mesh) decision its stage-length cap allows.
		stats.DPStates += int64(W)
		for k := numSegments - 1; k >= 0; k-- {
			hiMax := min(k+maxLen, numSegments)
			stats.DPStates += int64(W)
			stats.DPTransitions += int64(W * (hiMax - k) * M)
			row := f[k*W : (k+1)*W]
			for d := range row {
				best := math.Inf(1)
				var pick choicem
				for hi := k + 1; hi <= hiMax; hi++ {
					ests := est.v[est.at(k, hi, 0):][:M]
					rest := f[hi*W : (hi+1)*W]
					for mi, t := range ests {
						c := devs[mi]
						if c > d || t > tmax {
							continue
						}
						if v := t + rest[d-c]; v < best {
							best = v
							pick = choicem{hi: hi, mesh: mi}
						}
					}
				}
				row[d] = best
				choice[k*W+d] = pick
			}
		}
		if sum := f[totalDev]; !math.IsInf(sum, 1) {
			total := sum + B*tmax
			if total < bestT {
				bestT = total
				bestPlan = reconstruct(choice, W, meshes, numSegments, totalDev, est)
				bestPlan.Est = total
				stats.Improvements++
			}
		}
		it.End()
	}
	dpSpan.End()
	bestPlan.Search = stats
	return bestPlan, !math.IsInf(bestT, 1)
}

// estTable holds the search's stage estimates densely, indexed by (lo,
// stage length, mesh): +Inf marks a pair that is unusable or never asked
// (beyond the length cap or the model's end).
type estTable struct {
	v                        []float64
	segments, maxLen, meshes int
}

func newEstTable(numSegments, maxLen, meshes int) estTable {
	v := make([]float64, numSegments*maxLen*meshes)
	for i := range v {
		v[i] = math.Inf(1)
	}
	return estTable{v, numSegments, maxLen, meshes}
}

// at returns the index of stage [lo, hi) on mesh mi; the meshes of one stage
// are adjacent.
func (e estTable) at(lo, hi, mi int) int { return (lo*e.maxLen+hi-lo-1)*e.meshes + mi }

func dedup(sorted []float64) []float64 {
	out := sorted[:0:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func reconstruct(choice []choicem, W int, meshes []cluster.Mesh, numSegments, totalDev int, est estTable) Plan {
	var plan Plan
	k, d := 0, totalDev
	for k < numSegments {
		c := choice[k*W+d]
		plan.Stages = append(plan.Stages, stage.Spec{Lo: k, Hi: c.hi})
		plan.Meshes = append(plan.Meshes, meshes[c.mesh])
		plan.StageEst = append(plan.StageEst, est.v[est.at(k, c.hi, c.mesh)])
		d -= meshes[c.mesh].NumDevices()
		k = c.hi
	}
	return plan
}

// TrueStageLatency returns the simulator-exact optimal latency of a training
// stage on a mesh: the best over the labels lab holds for the mesh's
// Table-III configurations. ok is false when no configuration fits memory.
func TrueStageLatency(lab *predictor.Labeler, sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
	best := math.Inf(1)
	for _, l := range lab.MeshLabels(sp, mesh) {
		if l.OK && l.True < best {
			best = l.True
		}
	}
	return best, !math.IsInf(best, 1)
}

// StageLatencies returns each plan stage's true optimal intra-op latency on
// its assigned mesh — the input to both Eqn-4 evaluation and schedule-trace
// rendering. ok is false when any stage is infeasible.
func StageLatencies(lab *predictor.Labeler, plan Plan) ([]float64, bool) {
	lats := make([]float64, len(plan.Stages))
	for i, sp := range plan.Stages {
		t, ok := TrueStageLatency(lab, sp, plan.Meshes[i])
		if !ok {
			return nil, false
		}
		lats[i] = t
	}
	return lats, true
}

// EvaluatePlan returns the ground-truth Eqn-4 iteration latency of a plan
// (each stage at its true optimal intra-op latency). ok is false when any
// stage is infeasible on its assigned mesh.
func EvaluatePlan(lab *predictor.Labeler, plan Plan, microbatches int) (float64, bool) {
	lats, ok := StageLatencies(lab, plan)
	if !ok {
		return 0, false
	}
	return pipeline.Latency(lats, microbatches), true
}
