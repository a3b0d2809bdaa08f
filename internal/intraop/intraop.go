// Package intraop is the intra-operator (model/tensor parallelism)
// optimizer: for a stage graph on a device mesh under a Table-III
// configuration it chooses a sharding strategy per weight matmul —
// replicated, column-parallel, or row-parallel — to minimize the stage
// execution latency, including resharding and all-reduce communication.
//
// It plays the role of Alpa's intra-op pass: the "optimal intra-stage
// latency" it returns is the quantity PredTOP's black-box model learns to
// predict (§III: "We only focus on the optimal latency generated by an
// intra-stage compiler").
//
// The optimizer treats the topological order of the stage graph as the
// kernel execution sequence (GPUs execute stage kernels serially) and runs a
// Viterbi-style dynamic program over the activation layout state
// {replicated, sharded}, which is exact for this execution model.
package intraop

import (
	"math"
	"math/rand"

	"predtop/internal/cluster"
	"predtop/internal/ir"
	"predtop/internal/sim"
)

// Strategy is the sharding choice for one weight matmul.
type Strategy uint8

// Sharding strategies for weight matmuls under model parallelism.
const (
	Replicated     Strategy = iota // full weight on every device
	ColumnParallel                 // output columns sharded; activations become sharded
	RowParallel                    // input rows sharded; all-reduce restores full output
	numStrategies
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Replicated:
		return "replicated"
	case ColumnParallel:
		return "column"
	case RowParallel:
		return "row"
	}
	return "strategy?"
}

// Result is the outcome of optimizing or evaluating a stage on a scenario.
type Result struct {
	// Latency is the stage execution time in seconds (+Inf if infeasible).
	Latency float64
	// Feasible is false when the stage does not fit in device memory.
	Feasible bool
	// MemGB is the estimated per-device memory footprint.
	MemGB float64
	// Strategies records the chosen strategy per weight matmul, in
	// topological order (nil when ModelParallel == 1).
	Strategies []Strategy
}

// layout is the activation layout state of the Viterbi DP.
type layout int

const (
	layoutFull layout = iota
	layoutSharded
	numLayouts
)

// isWeightDot reports whether n is a matmul against a trainable weight
// (unwrapping the mixed-precision convert emitted by the model builders).
func isWeightDot(n *ir.Node) bool {
	if n.Kind != ir.KindDot || len(n.Ins) != 2 {
		return false
	}
	w := n.Ins[1]
	for w.Kind == ir.KindConvert || w.Kind == ir.KindReshape || w.Kind == ir.KindBroadcast {
		w = w.Ins[0]
	}
	return w.Param
}

// Optimize returns the optimal intra-stage latency of g under scenario sc.
func Optimize(g *ir.Graph, sc cluster.Scenario) Result {
	return run(g, sc, nil)
}

// Evaluate costs g under an explicit per-weight-matmul strategy assignment
// (used to explore suboptimal plans, e.g. Fig 2's random plans).
func Evaluate(g *ir.Graph, sc cluster.Scenario, strategies []Strategy) Result {
	return run(g, sc, strategies)
}

// RandomStrategies draws a uniformly random strategy per weight matmul of g.
func RandomStrategies(g *ir.Graph, rng *rand.Rand) []Strategy {
	var out []Strategy
	for _, n := range g.Nodes {
		if isWeightDot(n) {
			out = append(out, Strategy(rng.Intn(int(numStrategies))))
		}
	}
	return out
}

// run performs the Viterbi DP (forced == nil) or a forced-strategy walk.
func run(g *ir.Graph, sc cluster.Scenario, forced []Strategy) Result {
	e := sim.NewExec(sc)
	dp := sc.Config.DataParallel
	mp := sc.Config.ModelParallel

	memGB := e.MemoryBytes(g) / 1e9
	res := Result{MemGB: memGB}
	if !e.FitsMemory(g) {
		res.Latency = math.Inf(1)
		return res
	}
	res.Feasible = true

	consumers := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Ins {
			consumers[in.ID]++
		}
	}

	if mp <= 1 {
		// No layout choices: straight walk.
		total := 0.0
		for _, n := range g.Nodes {
			total += e.Cost(n).Time(dp, sim.Fused(n, consumers))
		}
		res.Latency = total + e.DPGradSync(paramBytes(g))
		return res
	}

	// Viterbi over activation layout. cost[l] is the best running latency
	// with the activations currently in layout l; back[w][l] is the move of
	// weight matmul w that reached layout l on that best path.
	cost := [numLayouts]float64{0, math.Inf(1)}
	type backPointer struct {
		strat Strategy
		from  layout
	}
	var back [][numLayouts]backPointer

	// reshard returns the cost of moving from layout `from` to the layout
	// an operator requires.
	reshard := func(from, to layout, actBytes float64) float64 {
		if from == to {
			return 0
		}
		if from == layoutSharded && to == layoutFull {
			return e.MPAllGather(actBytes / float64(dp))
		}
		return 0 // slicing a replicated activation locally is free
	}

	wIdx := 0
	for _, n := range g.Nodes {
		if n.Class != ir.ClassOperator {
			continue
		}
		fused := sim.Fused(n, consumers)
		// The node's work, traffic and jittered efficiency, costed once for
		// every layout and strategy weighed below.
		oc := e.Cost(n)

		if isWeightDot(n) {
			type move struct {
				strat    Strategy
				in, out  layout
				costTime float64
			}
			outBytes := float64(n.Bytes())
			sharded := oc.Time(dp*mp, false)
			moves := []move{
				{Replicated, layoutFull, layoutFull, oc.Time(dp, false)},
				{ColumnParallel, layoutFull, layoutSharded, sharded},
				{RowParallel, layoutSharded, layoutFull, sharded + e.MPAllReduce(outBytes/float64(dp))},
			}
			var next [numLayouts]float64
			var bp [numLayouts]backPointer
			next[layoutFull], next[layoutSharded] = math.Inf(1), math.Inf(1)
			for _, mv := range moves {
				if forced != nil && mv.strat != forced[wIdx] {
					continue
				}
				for from := layout(0); from < numLayouts; from++ {
					if math.IsInf(cost[from], 1) {
						continue
					}
					inBytes := float64(n.Ins[0].Bytes())
					c := cost[from] + reshard(from, mv.in, inBytes) + mv.costTime
					if c < next[mv.out] {
						next[mv.out] = c
						bp[mv.out] = backPointer{mv.strat, from}
					}
				}
			}
			cost = next
			back = append(back, bp)
			wIdx++
			continue
		}

		// Non-choice operators preserve layout; sharded layouts divide the
		// activation work over the MP group as well.
		for l := layout(0); l < numLayouts; l++ {
			if math.IsInf(cost[l], 1) {
				continue
			}
			shard := dp
			if l == layoutSharded {
				shard = dp * mp
			}
			cost[l] += oc.Time(shard, fused)
		}
	}

	// The stage boundary requires fully-replicated activations.
	outBytes := 0.0
	if len(g.Outputs) > 0 {
		outBytes = float64(g.Outputs[0].Bytes())
	}
	final, at := cost[layoutFull], layoutFull
	if alt := cost[layoutSharded] + e.MPAllGather(outBytes/float64(dp)); alt < final {
		final, at = alt, layoutSharded
	}
	if math.IsInf(final, 1) {
		// A forced plan may be layout-inconsistent; surface it as a very
		// slow—but finite—plan by falling back to fully replicated.
		return run(g, sc, replicatedPlan(len(forced)))
	}

	res.Latency = final + e.DPGradSync(paramBytes(g)/float64(mp))
	res.Strategies = make([]Strategy, len(back))
	for w := len(back) - 1; w >= 0; w-- {
		res.Strategies[w] = back[w][at].strat
		at = back[w][at].from
	}
	return res
}

func replicatedPlan(n int) []Strategy {
	out := make([]Strategy, n)
	for i := range out {
		out[i] = Replicated
	}
	return out
}

func paramBytes(g *ir.Graph) float64 {
	var b float64
	for _, n := range g.Nodes {
		if n.Param {
			b += float64(n.Bytes())
		}
	}
	return b
}
