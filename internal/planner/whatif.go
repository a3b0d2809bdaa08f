package planner

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"predtop/internal/cluster"
	"predtop/internal/predictor"
)

// Perturbation describes a counterfactual scenario for WhatIf: an absolute
// microbatch override plus multiplicative scalings of the cluster's
// interconnects, or a wholesale platform swap. The zero value perturbs
// nothing.
type Perturbation struct {
	// Microbatches overrides B in Eqn 4 when positive.
	Microbatches int
	// Platform, when non-nil, replaces the baseline platform entirely
	// (interconnect scalings below then apply to it).
	Platform *cluster.Platform
	// IntraNodeBW / InterNodeBW / InterNodeLatency are multiplicative scale
	// factors applied when positive: 2.0 doubles the bandwidth (or latency),
	// 1.0 is identity. Non-positive means "leave unchanged".
	IntraNodeBW      float64
	InterNodeBW      float64
	InterNodeLatency float64
}

// IsZero reports whether the perturbation changes nothing.
func (pt Perturbation) IsZero() bool {
	return pt.Microbatches <= 0 && pt.Platform == nil &&
		pt.IntraNodeBW <= 0 && pt.InterNodeBW <= 0 && pt.InterNodeLatency <= 0
}

// Apply returns the perturbed platform.
func (pt Perturbation) Apply(p cluster.Platform) cluster.Platform {
	if pt.Platform != nil {
		p = *pt.Platform
	}
	if pt.IntraNodeBW > 0 {
		p.IntraNode.BandwidthGBs *= pt.IntraNodeBW
	}
	if pt.InterNodeBW > 0 {
		p.InterNode.BandwidthGBs *= pt.InterNodeBW
	}
	if pt.InterNodeLatency > 0 {
		p.InterNode.LatencyUS *= pt.InterNodeLatency
	}
	return p
}

// String renders the canonical perturbation description used as the
// Report.Scenario label (keys in fixed order, "unperturbed" for the zero
// value).
func (pt Perturbation) String() string {
	var parts []string
	if pt.Platform != nil {
		parts = append(parts, "platform="+pt.Platform.Name)
	}
	if pt.Microbatches > 0 {
		parts = append(parts, "microbatches="+strconv.Itoa(pt.Microbatches))
	}
	if pt.IntraNodeBW > 0 {
		parts = append(parts, fmt.Sprintf("intranode-bw=x%g", pt.IntraNodeBW))
	}
	if pt.InterNodeBW > 0 {
		parts = append(parts, fmt.Sprintf("internode-bw=x%g", pt.InterNodeBW))
	}
	if pt.InterNodeLatency > 0 {
		parts = append(parts, fmt.Sprintf("internode-lat=x%g", pt.InterNodeLatency))
	}
	if len(parts) == 0 {
		return "unperturbed"
	}
	return strings.Join(parts, ",")
}

// whatIfKeys maps the -whatif flag's key names to setters, so the parser and
// its error message stay in sync.
var whatIfKeys = map[string]func(*Perturbation, string) error{
	"microbatches": parseMicrobatches,
	"b":            parseMicrobatches,
	"platform": func(pt *Perturbation, v string) error {
		var p cluster.Platform
		switch v {
		case "1":
			p = cluster.Platform1()
		case "2":
			p = cluster.Platform2()
		default:
			return fmt.Errorf("want 1 or 2, got %q", v)
		}
		pt.Platform = &p
		return nil
	},
	"intranode-bw":  func(pt *Perturbation, v string) error { return parseScale(&pt.IntraNodeBW, v) },
	"internode-bw":  func(pt *Perturbation, v string) error { return parseScale(&pt.InterNodeBW, v) },
	"internode-lat": func(pt *Perturbation, v string) error { return parseScale(&pt.InterNodeLatency, v) },
}

func parseMicrobatches(pt *Perturbation, v string) error {
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return fmt.Errorf("want a positive integer, got %q", v)
	}
	pt.Microbatches = n
	return nil
}

func parseScale(dst *float64, v string) error {
	f, err := strconv.ParseFloat(strings.TrimPrefix(v, "x"), 64)
	if err != nil || !(f > 0) || math.IsInf(f, 1) { // NaN and +Inf are no scale
		return fmt.Errorf("want a positive scale factor, got %q", v)
	}
	*dst = f
	return nil
}

// ParsePerturbation parses the -whatif flag syntax: comma-separated
// key=value pairs, e.g. "microbatches=32,internode-bw=x4". Valid keys:
// microbatches (alias b, positive int), platform (1 or 2), intranode-bw /
// internode-bw / internode-lat (positive scale factors, optional "x"
// prefix). An empty string is the zero perturbation.
func ParsePerturbation(s string) (Perturbation, error) {
	var pt Perturbation
	if strings.TrimSpace(s) == "" {
		return pt, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return Perturbation{}, fmt.Errorf("planner: perturbation %q: want key=value", part)
		}
		set, ok := whatIfKeys[strings.ToLower(kv[0])]
		if !ok {
			return Perturbation{}, fmt.Errorf("planner: unknown perturbation key %q (valid: %s)",
				kv[0], strings.Join(sortedWhatIfKeys(), ", "))
		}
		if err := set(&pt, kv[1]); err != nil {
			return Perturbation{}, fmt.Errorf("planner: perturbation %s: %w", kv[0], err)
		}
	}
	return pt, nil
}

func sortedWhatIfKeys() []string {
	keys := make([]string, 0, len(whatIfKeys))
	for k := range whatIfKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WhatIf replays a cached plan against a perturbed cluster — Daydream's
// question, answered without re-search: keep the plan's stage partition and
// submesh shapes fixed, rebind each submesh to the perturbed platform, take
// every stage's optimal intra-op latency from lab (whose labels are keyed by
// the whole scenario value, so the perturbed meshes get labels of their own),
// and recompose Eqn 4 at the (possibly overridden) microbatch count. The
// returned report carries the perturbation as its Scenario label, ready for
// Diff against the baseline report. A labeler that already holds the
// baseline's labels (the run's own, as in experiments.RunFig10) reuses its
// class graphs and gives the same bits as a fresh one. ok is false when a
// stage no longer fits (e.g. the swapped platform has less memory) or the
// perturbed platform cannot host a stage's submesh shape.
func WhatIf(lab *predictor.Labeler, base cluster.Platform, plan Plan, microbatches int, pt Perturbation, opt ReportOptions) (*Report, bool) {
	perturbed := pt.Apply(base)
	if microbatches <= 0 {
		microbatches = defaultMicrobatches
	}
	if pt.Microbatches > 0 {
		microbatches = pt.Microbatches
	}

	replayed := Plan{Est: plan.Est, StageEst: plan.StageEst, Stages: plan.Stages}
	for _, m := range plan.Meshes {
		if m.Nodes > perturbed.Nodes || m.GPUsPerNode > perturbed.GPUsPerNode {
			return nil, false
		}
		replayed.Meshes = append(replayed.Meshes,
			cluster.Mesh{Index: m.Index, Platform: perturbed, Nodes: m.Nodes, GPUsPerNode: m.GPUsPerNode})
	}
	lats, ok := StageLatencies(lab, replayed)
	if !ok {
		return nil, false
	}

	opt.Microbatches = microbatches
	r := BuildReport(lab.Model(), perturbed, replayed, lats, opt)
	r.Scenario = pt.String()
	return r, true
}
