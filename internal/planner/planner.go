// Package planner implements the inter-operator (pipeline) parallelization
// planner the paper integrates PredTOP into (§VI, §VIII-B): an Alpa-style
// dynamic program that slices the model into contiguous stages, assigns each
// stage a submesh, and minimizes the Eqn-4 iteration latency — driven either
// by profiled stage latencies (vanilla Alpa, full or partial profiling) or
// by a trained latency predictor (PredTOP).
//
// Beyond the search itself, the package makes every planner run auditable
// with two instruments: Optimize fills deterministic search statistics
// (SearchStats) and times itself on a span profiler (Options.Prof).
// BuildReport turns a plan into a provenance Report (JSON + text) carrying
// the stats, and WhatIf replays a cached plan against a perturbed cluster
// without re-searching (DESIGN.md §11). All of it observes only — plans are
// bitwise identical with either instrument on or off.
package planner

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"predtop/internal/cluster"
	"predtop/internal/intraop"
	"predtop/internal/models"
	"predtop/internal/obs"
	"predtop/internal/pipeline"
	"predtop/internal/stage"
)

// choicem records one DP decision: the stage end boundary and mesh index.
type choicem struct{ hi, mesh int }

// LatencyFn estimates the optimal intra-stage latency of a stage on a mesh.
// ok reports whether the pair is usable (fits memory / was profiled).
type LatencyFn func(sp stage.Spec, mesh cluster.Mesh) (lat float64, ok bool)

// Options configures the inter-stage search.
type Options struct {
	// Microbatches is B in Eqn 4 (default 16; non-positive selects the
	// default).
	Microbatches int
	// MaxStageLen caps stage length in segments (0 = unbounded).
	MaxStageLen int
	// Prof, when non-nil, receives hierarchical spans for the search — its
	// only wall-clock record: planner.optimize → estimate (one child per
	// (stage, mesh) pair) and dp (one folded "tmax" child across the t_max
	// sweep). A nil profiler is a zero-cost no-op and never alters the plan.
	Prof *obs.Profiler
	// Stats, when non-nil, is filled with the search's exploration
	// statistics. Every field is a deterministic count derived from the
	// inputs — never a wall-clock reading — so stats can appear in
	// byte-identical provenance reports. Observation only.
	Stats *SearchStats
}

func (o Options) withDefaults() Options {
	if o.Microbatches <= 0 {
		o.Microbatches = 16
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
}

// NumStages returns the pipeline depth.
func (p Plan) NumStages() int { return len(p.Stages) }

// Optimize searches for the plan minimizing Eqn 4 over all contiguous stage
// partitions and submesh assignments that exactly tile the cluster's
// devices. It enumerates the bottleneck latency t_max over all candidate
// stage latencies and, for each, runs a (segment, devices-remaining) DP
// minimizing Σtᵢ subject to tᵢ ≤ t_max — Alpa's inter-op formulation.
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
	// Every return path below hands the stats to the caller's slot.
	if opt.Stats != nil {
		defer func() { *opt.Stats = stats }()
	}

	root := opt.Prof.Start("planner.optimize")
	defer root.End()
	if root.Enabled() { // skip string formatting when profiling is off
		root.Attr("segments", strconv.Itoa(numSegments))
		root.Attr("meshes", strconv.Itoa(len(meshes)))
		root.Attr("devices", strconv.Itoa(totalDev))
	}

	// Memoize estimates for every feasible (stage, mesh) pair.
	type pairKey struct {
		lo, hi, mesh int
	}
	est := make(map[pairKey]float64)
	var candidates []float64
	estSpan := root.Start("estimate")
	for _, sp := range stage.AllSpecs(numSegments, maxLen) {
		for mi, mesh := range meshes {
			stats.LatencyLookups++
			var ps obs.Span
			if estSpan.Enabled() {
				ps = estSpan.Start(fmt.Sprintf("s%d:%d/m%d", sp.Lo, sp.Hi, mi))
			}
			t, ok := lat(sp, mesh)
			ps.End()
			if ok && t > 0 && !math.IsInf(t, 1) {
				stats.Feasible++
				est[pairKey{sp.Lo, sp.Hi, mi}] = t
				candidates = append(candidates, t)
			} else {
				stats.Infeasible++
			}
		}
	}
	estSpan.End()
	if len(candidates) == 0 {
		return Plan{}, false
	}
	sort.Float64s(candidates)

	bestT := math.Inf(1)
	var bestPlan Plan
	B := float64(opt.Microbatches - 1)

	// DP state: f[k][d] = min Σt to place segments [k, numSegments) using
	// exactly d devices; choice[k][d] records (hi, meshIdx).
	f := make([][]float64, numSegments+1)
	choice := make([][]choicem, numSegments+1)
	for k := range f {
		f[k] = make([]float64, totalDev+1)
		choice[k] = make([]choicem, totalDev+1)
	}

	tmaxes := dedup(candidates)
	stats.TmaxCandidates = len(tmaxes)
	dpSpan := root.Start("dp")
	for _, tmax := range tmaxes {
		it := dpSpan.Start("tmax")
		for k := numSegments; k >= 0; k-- {
			for d := 0; d <= totalDev; d++ {
				stats.DPStates++
				if k == numSegments {
					if d == 0 {
						f[k][d] = 0
					} else {
						f[k][d] = math.Inf(1)
					}
					continue
				}
				f[k][d] = math.Inf(1)
				for hi := k + 1; hi <= numSegments && hi-k <= maxLen; hi++ {
					for mi, mesh := range meshes {
						stats.DPTransitions++
						c := mesh.NumDevices()
						if c > d {
							continue
						}
						t, ok := est[pairKey{k, hi, mi}]
						if !ok || t > tmax {
							continue
						}
						if rest := f[hi][d-c]; t+rest < f[k][d] {
							f[k][d] = t + rest
							choice[k][d] = choicem{hi: hi, mesh: mi}
						}
					}
				}
			}
		}
		if sum := f[0][totalDev]; !math.IsInf(sum, 1) {
			total := sum + B*tmax
			if total < bestT {
				bestT = total
				bestPlan = reconstruct(choice, meshes, numSegments, totalDev, func(lo, hi, mesh int) float64 {
					return est[pairKey{lo, hi, mesh}]
				})
				bestPlan.Est = total
				stats.Improvements++
			}
		}
		it.End()
	}
	dpSpan.End()
	return bestPlan, !math.IsInf(bestT, 1)
}

func dedup(sorted []float64) []float64 {
	out := sorted[:0:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func reconstruct(choice [][]choicem, meshes []cluster.Mesh, numSegments, totalDev int, est func(lo, hi, mesh int) float64) Plan {
	var plan Plan
	k, d := 0, totalDev
	for k < numSegments {
		c := choice[k][d]
		plan.Stages = append(plan.Stages, stage.Spec{Lo: k, Hi: c.hi})
		plan.Meshes = append(plan.Meshes, meshes[c.mesh])
		plan.StageEst = append(plan.StageEst, est(k, c.hi, c.mesh))
		d -= meshes[c.mesh].NumDevices()
		k = c.hi
	}
	return plan
}

// TrueStageLatency returns the simulator-exact optimal latency of a training
// stage on a mesh: the best over the mesh's Table-III configurations. ok is
// false when no configuration fits memory.
func TrueStageLatency(m *models.Model, sp stage.Spec, mesh cluster.Mesh) (float64, bool) {
	g := m.StageGraph(sp.Lo, sp.Hi, true)
	best := math.Inf(1)
	for _, conf := range cluster.ConfigsFor(mesh) {
		res := intraop.Optimize(g, cluster.Scenario{Mesh: mesh, Config: conf})
		if res.Feasible && res.Latency < best {
			best = res.Latency
		}
	}
	return best, !math.IsInf(best, 1)
}

// StageLatencies returns each plan stage's true optimal intra-op latency on
// its assigned mesh — the input to both Eqn-4 evaluation and schedule-trace
// rendering. ok is false when any stage is infeasible.
func StageLatencies(m *models.Model, plan Plan) ([]float64, bool) {
	lats := make([]float64, len(plan.Stages))
	for i, sp := range plan.Stages {
		t, ok := TrueStageLatency(m, sp, plan.Meshes[i])
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
func EvaluatePlan(m *models.Model, plan Plan, microbatches int) (float64, bool) {
	lats, ok := StageLatencies(m, plan)
	if !ok {
		return 0, false
	}
	return pipeline.Latency(lats, microbatches), true
}
