// Package sim is the ground-truth execution-cost model that stands in for
// the paper's physical GPU platforms (A40 and RTX A5500 clusters).
//
// It costs tensor-level operators with a roofline model — compute-bound at a
// shape- and kind-dependent fraction of peak, or memory-bound at GDDR
// bandwidth — plus kernel-launch overheads, element-wise fusion, ring
// collectives over NVLink or Ethernet, and a deterministic per-(kernel,
// shape, device) efficiency perturbation. These are exactly the effects that
// make real profiles non-trivial for an additive white-box model while
// remaining learnable from graph structure, which is the property the
// paper's black-box comparison (GCN vs GAT vs DAG Transformer) exercises.
package sim

import (
	"math"

	"predtop/internal/cluster"
	"predtop/internal/ir"
	"predtop/internal/xmath"
)

// Exec costs operators on one mesh under one intra-operator parallelism
// configuration.
type Exec struct {
	Mesh   cluster.Mesh
	Config cluster.ParallelConfig
}

// NewExec returns an Exec for a scenario.
func NewExec(sc cluster.Scenario) Exec { return Exec{Mesh: sc.Mesh, Config: sc.Config} }

// Peak returns the device peak throughput for dt in FLOP/s.
func (e Exec) Peak(dt ir.DType) float64 {
	return e.Mesh.Platform.GPU.PeakTFLOPS[dt] * 1e12
}

// MPFabric returns the interconnect tensor/model-parallel collectives use:
// the NVLink bridge when the MP group fits inside a node, otherwise the
// inter-node network.
func (e Exec) MPFabric() cluster.Interconnect {
	if e.Config.ModelParallel <= e.Mesh.Platform.GPUsPerNode {
		return e.Mesh.Platform.IntraNode
	}
	return e.Mesh.Platform.InterNode
}

// DPFabric returns the interconnect data-parallel gradient synchronization
// uses: intra-node only when the whole configuration fits inside one node.
func (e Exec) DPFabric() cluster.Interconnect {
	if e.Config.Degree() <= e.Mesh.Platform.GPUsPerNode {
		return e.Mesh.Platform.IntraNode
	}
	return e.Mesh.Platform.InterNode
}

// FNV-1a (64-bit) parameters: the hash behind the jitter and the profiler's
// measurement noise, inlined so a hash costs no allocation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPut folds the low n bytes of v, least significant first, into the
// FNV-1a state h.
func fnvPut(h, v uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime64
	}
	return h
}

// jitter returns a deterministic efficiency perturbation in
// [1−amp, 1+amp] keyed by the operator's kind, shape, dtype, and the device
// context — the shape-specific kernel-selection quirks real GPUs exhibit.
// The key is FNV-1a over 4 little-endian bytes per field: kind, dtype, each
// shape dimension, platform index, mesh index, data- and model-parallel
// degree.
func (e Exec) jitter(n *ir.Node, amp float64) float64 {
	h := fnvPut(fnvOffset64, uint64(n.Kind), 4)
	h = fnvPut(h, uint64(n.DType), 4)
	for _, d := range n.Shape {
		h = fnvPut(h, uint64(d), 4)
	}
	h = fnvPut(h, uint64(e.Mesh.Platform.Index), 4)
	h = fnvPut(h, uint64(e.Mesh.Index), 4)
	h = fnvPut(h, uint64(e.Config.DataParallel), 4)
	h = fnvPut(h, uint64(e.Config.ModelParallel), 4)
	u := float64(h%1_000_003) / 1_000_003.0
	return 1 - amp + 2*amp*u
}

// dotEfficiency models the achievable fraction of peak for a dot_general:
// small contraction or output tiles keep the tensor cores underfed.
func (e Exec) dotEfficiency(n *ir.Node) float64 {
	ash := n.Ins[0].Shape
	k := float64(ash[len(ash)-1])
	nOut := float64(n.Shape[len(n.Shape)-1])
	m := float64(1)
	if len(n.Shape) >= 2 {
		m = float64(n.Shape[len(n.Shape)-2])
	}
	eff := 0.72
	eff *= math.Min(1, xmath.Pow(k/512, 0.25))
	eff *= math.Min(1, xmath.Pow(nOut/128, 0.15))
	eff *= math.Min(1, xmath.Pow(m/128, 0.15))
	return eff * e.jitter(n, 0.10)
}

// OpCost is one operator's cost under an Exec with the shard count and
// fusion left open: its work, its memory traffic and its jittered
// efficiency, computed once so each layout or strategy a caller weighs costs
// only a division (Time).
type OpCost struct {
	free   bool    // not a kernel: inputs, weights, collectives
	dot    bool    // compute-bound candidate; everything else streams memory
	flops  float64 // whole-operator work
	bytes  float64 // output plus operand traffic
	rate   float64 // achieved FLOP/s: peak × efficiency
	eff    float64 // efficiency, which also slows bandwidth-bound kernels
	bw     float64 // memory bandwidth in B/s
	launch float64 // kernel-launch overhead in seconds
}

// Cost returns n's shard-independent cost terms under e.
func (e Exec) Cost(n *ir.Node) OpCost {
	if n.Class != ir.ClassOperator || n.Kind.IsCollective() {
		return OpCost{free: true}
	}
	gpu := e.Mesh.Platform.GPU
	bytes := float64(n.Bytes())
	for _, in := range n.Ins {
		bytes += float64(in.Bytes())
	}
	var eff float64
	switch {
	case n.Kind == ir.KindDot:
		eff = e.dotEfficiency(n)
	case n.Kind == ir.KindGather || n.Kind == ir.KindScatter:
		// Irregular access: bandwidth-bound well below streaming rate.
		eff = 0.35 * e.jitter(n, 0.08)
	default:
		eff = 0.9 * e.jitter(n, 0.05)
	}
	return OpCost{
		dot: n.Kind == ir.KindDot, flops: float64(n.Flops()), bytes: bytes,
		rate: e.Peak(n.DType) * eff, eff: eff,
		bw: gpu.MemBandwidthGBs * 1e9, launch: gpu.KernelLaunchUS * 1e-6,
	}
}

// Time returns the operator's execution time in seconds when its work is
// divided over shard devices. fused marks an element-wise operator fused
// into its producer's kernel (near-free: no launch, no extra memory pass).
func (c OpCost) Time(shard int, fused bool) float64 {
	if c.free {
		return 0
	}
	s := float64(shard)
	var t float64
	if c.dot {
		t = math.Max(c.flops/s/c.rate, c.bytes/s/c.bw)
	} else {
		// Element-wise and data-movement kernels are bandwidth-bound; their
		// arithmetic is hidden under the memory streams.
		t = c.bytes / s / c.bw / c.eff
	}
	if fused {
		return t * 0.08
	}
	return t + c.launch
}

// RingTime returns the time of a ring-based collective moving the given
// payload factor of bytes across devices over fabric f.
func ringTime(bytes float64, devices int, f cluster.Interconnect, passes float64) float64 {
	if devices <= 1 || bytes <= 0 {
		return 0
	}
	n := float64(devices)
	steps := passes * (n - 1)
	return steps*f.LatencyUS*1e-6 + passes*(n-1)/n*bytes/(f.BandwidthGBs*1e9)
}

// AllReduceTime returns the ring all-reduce time for bytes over devices.
func AllReduceTime(bytes float64, devices int, f cluster.Interconnect) float64 {
	return ringTime(bytes, devices, f, 2) // reduce-scatter + all-gather
}

// AllGatherTime returns the ring all-gather time for bytes over devices.
func AllGatherTime(bytes float64, devices int, f cluster.Interconnect) float64 {
	return ringTime(bytes, devices, f, 1)
}

// MPAllReduce returns the tensor-parallel activation all-reduce time for an
// activation of the given bytes under this configuration.
func (e Exec) MPAllReduce(bytes float64) float64 {
	return AllReduceTime(bytes, e.Config.ModelParallel, e.MPFabric())
}

// MPAllGather returns the tensor-parallel all-gather time.
func (e Exec) MPAllGather(bytes float64) float64 {
	return AllGatherTime(bytes, e.Config.ModelParallel, e.MPFabric())
}

// DPGradSync returns the per-iteration data-parallel gradient all-reduce
// time for a stage holding paramBytes of weights (already divided by any
// model-parallel sharding).
func (e Exec) DPGradSync(paramBytes float64) float64 {
	return AllReduceTime(paramBytes, e.Config.DataParallel, e.DPFabric())
}

// Fused reports whether operator n fuses into its producer: element-wise
// kernels fuse when their first operand comes from another operator that has
// no other consumer — otherwise the intermediate must be materialized. This
// is the context-dependent effect that rewards graph-structure-aware
// predictors over purely additive per-node models.
func Fused(n *ir.Node, consumerCount []int) bool {
	if !n.Kind.IsElementwise() || len(n.Ins) == 0 {
		return false
	}
	p := n.Ins[0]
	return p.Class == ir.ClassOperator && !p.Kind.IsCollective() && consumerCount[p.ID] == 1
}

// MemoryBytes estimates per-device memory for executing g: parameters (plus
// Adam optimizer state) divided by the model-parallel degree, and the two
// largest activation working sets divided by the data-parallel token split.
func (e Exec) MemoryBytes(g *ir.Graph) float64 {
	var params, act, maxAct float64
	for _, n := range g.Nodes {
		if n.Param {
			params += float64(n.Bytes())
			continue
		}
		if n.Class == ir.ClassOperator {
			b := float64(n.Bytes())
			act += b * 0.15 // live fraction under rematerialization
			if b > maxAct {
				maxAct = b
			}
		}
	}
	perDevParams := params * 4 / float64(e.Config.ModelParallel) // weight+grad+2 Adam moments
	perDevAct := (act + 2*maxAct) / float64(e.Config.Degree())
	return perDevParams + perDevAct
}

// FitsMemory reports whether g fits in device memory under e.
func (e Exec) FitsMemory(g *ir.Graph) bool {
	return e.MemoryBytes(g) <= e.Mesh.Platform.GPU.MemoryGB*1e9
}
