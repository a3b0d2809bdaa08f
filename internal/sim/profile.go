package sim

import (
	"math"

	"predtop/internal/ir"
)

// Profiler models Alpa's stage-profiling procedure: each measurement carries
// small run-to-run noise, and obtaining it costs real wall-clock time —
// intra-operator optimization, XLA compilation, input transfer to the GPU,
// and warmup plus timed executions (§VIII-B enumerates these components).
type Profiler struct {
	// NoiseFrac is the relative standard deviation of measurement noise.
	NoiseFrac float64
	// Warmup and Trials are the untimed and timed executions per profile.
	Warmup, Trials int
}

// DefaultProfiler mirrors typical profiling practice (±0.8 % noise,
// 2 warmup + 5 timed runs).
func DefaultProfiler() Profiler { return Profiler{NoiseFrac: 0.008, Warmup: 2, Trials: 5} }

// Measure returns a noisy observation of the true latency, deterministic in
// seed (so profiles are reproducible across processes).
func (p Profiler) Measure(trueLatency float64, seed uint64) float64 {
	if p.NoiseFrac == 0 {
		return trueLatency
	}
	// Deterministic gaussian via hashed Box-Muller.
	v := fnvPut(fnvOffset64, seed, 8)
	u1 := (float64(v%1_000_003) + 1) / 1_000_004
	u2 := float64((v/1_000_003)%1_000_003) / 1_000_003
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return trueLatency * (1 + p.NoiseFrac*z)
}

// CompileSeconds models Alpa's per-stage intra-operator optimization and XLA
// compilation time, which grows with the operator count and the sharding
// search space (the dominant term of "full profiling" cost in Fig 10a).
func CompileSeconds(g *ir.Graph, e Exec) float64 {
	ops := 0
	dots := 0
	for _, n := range g.Nodes {
		if n.Class == ir.ClassOperator {
			ops++
			if n.Kind == ir.KindDot {
				dots++
			}
		}
	}
	// ILP/strategy enumeration grows with the per-dot strategy count under
	// model parallelism; base compilation is per-op.
	strategies := 1.0
	if e.Config.ModelParallel > 1 {
		strategies = 3.0
	}
	return 0.035*float64(ops) + 0.12*float64(dots)*strategies
}

// TransferSeconds models moving stage parameters and sample input to the
// devices before profiling (PCIe-class bandwidth).
func TransferSeconds(g *ir.Graph) float64 {
	var bytes float64
	for _, n := range g.Nodes {
		if n.Param || n.Class == ir.ClassInput {
			bytes += float64(n.Bytes())
		}
	}
	const pcieGBs = 12.0
	return bytes / (pcieGBs * 1e9)
}

// ProfileCostSeconds is the full wall-clock cost of profiling one stage on
// one mesh: compile + transfer + (warmup+trials) executions.
func (p Profiler) ProfileCostSeconds(g *ir.Graph, e Exec, trueLatency float64) float64 {
	return CompileSeconds(g, e) + TransferSeconds(g) + float64(p.Warmup+p.Trials)*trueLatency
}
