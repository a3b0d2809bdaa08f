// Package cluster models the two experimental platforms of the paper
// (§VII-A): their GPUs, intra-node NVLink and inter-node Ethernet links, and
// the mesh / parallelism configurations of Tables II and III.
package cluster

import (
	"fmt"

	"predtop/internal/ir"
)

// GPUSpec describes one accelerator.
type GPUSpec struct {
	Name string
	// PeakTFLOPS is the theoretical peak throughput per element type.
	PeakTFLOPS map[ir.DType]float64
	// MemBandwidthGBs is HBM/GDDR bandwidth in GB/s.
	MemBandwidthGBs float64
	// MemoryGB is device memory capacity.
	MemoryGB float64
	// KernelLaunchUS is the fixed per-kernel launch overhead in µs.
	KernelLaunchUS float64
}

// A40 returns the NVIDIA A40 spec (Platform 1: 48 GB GDDR6, 696 GB/s).
func A40() GPUSpec {
	return GPUSpec{
		Name: "A40",
		PeakTFLOPS: map[ir.DType]float64{
			ir.F32: 37.4, ir.F16: 149.7, ir.BF16: 149.7,
			ir.I32: 18.7, ir.U32: 18.7, ir.Bool: 18.7,
		},
		MemBandwidthGBs: 696,
		MemoryGB:        48,
		KernelLaunchUS:  5,
	}
}

// A5500 returns the NVIDIA RTX A5500 spec (Platform 2: 24 GB GDDR6, 768 GB/s).
func A5500() GPUSpec {
	return GPUSpec{
		Name: "A5500",
		PeakTFLOPS: map[ir.DType]float64{
			ir.F32: 34.1, ir.F16: 136.4, ir.BF16: 136.4,
			ir.I32: 17.1, ir.U32: 17.1, ir.Bool: 17.1,
		},
		MemBandwidthGBs: 768,
		MemoryGB:        24,
		KernelLaunchUS:  5,
	}
}

// Interconnect is a point-to-point or collective fabric.
type Interconnect struct {
	BandwidthGBs float64 // per-direction bandwidth
	LatencyUS    float64 // per-message latency
}

// Platform is one of the paper's two experimental environments.
type Platform struct {
	Name        string
	Index       int
	Nodes       int
	GPUsPerNode int
	GPU         GPUSpec
	IntraNode   Interconnect // NVLink bridge
	InterNode   Interconnect // node-to-node network
}

// Platform1 returns the Dell R750XA server: 1 node × 2 A40, NVLink
// (112.5 GB/s bidirectional).
func Platform1() Platform {
	return Platform{
		Name: "Platform1-A40", Index: 1,
		Nodes: 1, GPUsPerNode: 2, GPU: A40(),
		IntraNode: Interconnect{BandwidthGBs: 56.25, LatencyUS: 3},
		InterNode: Interconnect{BandwidthGBs: 56.25, LatencyUS: 3},
	}
}

// Platform2 returns the 2-node Precision 5820 cluster: 2 × 2 A5500, NVLink
// within a node, 10 GbE across nodes.
func Platform2() Platform {
	return Platform{
		Name: "Platform2-A5500", Index: 2,
		Nodes: 2, GPUsPerNode: 2, GPU: A5500(),
		IntraNode: Interconnect{BandwidthGBs: 56.25, LatencyUS: 3},
		InterNode: Interconnect{BandwidthGBs: 1.25, LatencyUS: 30},
	}
}

// Mesh is a rectangular device slice of a platform (Table II).
type Mesh struct {
	Index       int
	Platform    Platform
	Nodes       int
	GPUsPerNode int
}

// NumDevices returns the device count of the mesh.
func (m Mesh) NumDevices() int { return m.Nodes * m.GPUsPerNode }

// CrossNode reports whether the mesh spans multiple nodes (collectives then
// ride the slower inter-node fabric).
func (m Mesh) CrossNode() bool { return m.Nodes > 1 }

// String implements fmt.Stringer.
func (m Mesh) String() string {
	return fmt.Sprintf("mesh%d(%dx%d %s)", m.Index, m.Nodes, m.GPUsPerNode, m.Platform.GPU.Name)
}

// Meshes enumerates the mesh configurations of Table II available on p.
func Meshes(p Platform) []Mesh {
	ms := []Mesh{{Index: 1, Platform: p, Nodes: 1, GPUsPerNode: 1}}
	if p.GPUsPerNode >= 2 {
		ms = append(ms, Mesh{Index: 2, Platform: p, Nodes: 1, GPUsPerNode: 2})
	}
	if p.Nodes >= 2 && p.GPUsPerNode >= 2 {
		ms = append(ms, Mesh{Index: 3, Platform: p, Nodes: 2, GPUsPerNode: 2})
	}
	return ms
}

// ParallelConfig is an intra-operator parallelism configuration (Table III):
// how many ways the batch axis (data parallel) and the operator/weight axes
// (model parallel) are split across the mesh.
type ParallelConfig struct {
	Index         int
	DataParallel  int
	ModelParallel int
	Remark        string
}

// Degree returns the total number of devices the configuration uses.
func (c ParallelConfig) Degree() int { return c.DataParallel * c.ModelParallel }

// String implements fmt.Stringer.
func (c ParallelConfig) String() string {
	return fmt.Sprintf("conf%d(dp=%d,mp=%d)", c.Index, c.DataParallel, c.ModelParallel)
}

// ConfigsFor enumerates the benchmark configurations of Table III for a mesh.
func ConfigsFor(m Mesh) []ParallelConfig {
	switch m.NumDevices() {
	case 1:
		return []ParallelConfig{{Index: 1, DataParallel: 1, ModelParallel: 1, Remark: "Single GPU (No parallelism)"}}
	case 2:
		return []ParallelConfig{
			{Index: 1, DataParallel: 2, ModelParallel: 1, Remark: "2 way Data parallel"},
			{Index: 2, DataParallel: 1, ModelParallel: 2, Remark: "2 way Model parallel"},
		}
	case 4:
		return []ParallelConfig{
			{Index: 1, DataParallel: 4, ModelParallel: 1, Remark: "4 way Data parallel"},
			{Index: 2, DataParallel: 2, ModelParallel: 2, Remark: "2 way Data and 2 way Model parallel"},
			{Index: 3, DataParallel: 1, ModelParallel: 4, Remark: "4 way Model parallel only"},
		}
	}
	return nil
}

// Scenario is one (mesh, configuration) runtime pair — the unit the paper's
// MRE tables are indexed by.
type Scenario struct {
	Mesh   Mesh
	Config ParallelConfig
}

// String implements fmt.Stringer.
func (s Scenario) String() string {
	return fmt.Sprintf("%s/%s", s.Mesh, s.Config)
}

// Scenarios enumerates every (mesh, configuration) pair of a platform, in
// the order the paper's tables list them.
func Scenarios(p Platform) []Scenario {
	var out []Scenario
	for _, m := range Meshes(p) {
		for _, c := range ConfigsFor(m) {
			out = append(out, Scenario{Mesh: m, Config: c})
		}
	}
	return out
}
