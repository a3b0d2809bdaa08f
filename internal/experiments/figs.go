package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"predtop/internal/cluster"
	"predtop/internal/models"
	"predtop/internal/pipeline"
	"predtop/internal/planner"
	"predtop/internal/predictor"
	"predtop/internal/sim"
)

// Fig2Result is the plan-latency distribution of one benchmark on
// Platform 2 (Fig 2: 100 random parallelization plans).
type Fig2Result struct {
	Benchmark string
	Latencies []float64 // sorted, seconds
}

// RunFig2 evaluates RandomPlans random parallelization plans of each
// benchmark on Platform 2 under the ground-truth simulator.
func RunFig2(p Preset, log io.Writer) []Fig2Result {
	if log == nil {
		log = io.Discard
	}
	platform := cluster.Platform2()
	var out []Fig2Result
	for _, bench := range p.Benchmarks() {
		// One labeler per benchmark: every draw of a stage class costs its
		// strategies on the one training graph the labeler built for it.
		lab := predictor.NewLabeler(models.Build(bench.Config), sim.DefaultProfiler())
		rng := rand.New(rand.NewSource(p.Seed))
		var lats []float64
		attempts := 0
		for len(lats) < p.RandomPlans && attempts < p.RandomPlans*20 {
			attempts++
			if t, ok := planner.RandomPlanLatency(lab, platform, rng, p.Microbatches); ok {
				lats = append(lats, t)
			}
		}
		sort.Float64s(lats)
		fmt.Fprintf(log, "[fig2 %s] %d plans in %d attempts\n", bench.Name, len(lats), attempts)
		out = append(out, Fig2Result{Benchmark: bench.Name, Latencies: lats})
	}
	return out
}

// Render prints the Fig-2 distribution: summary statistics and a CDF strip.
func (r Fig2Result) Render() string {
	var b strings.Builder
	n := len(r.Latencies)
	if n == 0 {
		return fmt.Sprintf("Fig 2 (%s): no feasible plans\n", r.Benchmark)
	}
	q := func(f float64) float64 { return r.Latencies[int(f*float64(n-1))] }
	fmt.Fprintf(&b, "Fig 2 (%s): iteration latency of %d random parallelization plans\n", r.Benchmark, n)
	fmt.Fprintf(&b, "  min %.3fs  p25 %.3fs  median %.3fs  p75 %.3fs  max %.3fs  (max/min = %.1fx)\n",
		q(0), q(0.25), q(0.5), q(0.75), q(1), q(1)/q(0))
	// Histogram over 10 buckets.
	lo, hi := q(0), q(1)
	buckets := make([]int, 10)
	for _, v := range r.Latencies {
		i := int((v - lo) / (hi - lo + 1e-12) * 10)
		if i > 9 {
			i = 9
		}
		buckets[i]++
	}
	for i, c := range buckets {
		fmt.Fprintf(&b, "  [%6.3f, %6.3f) %s (%d)\n",
			lo+float64(i)*(hi-lo)/10, lo+float64(i+1)*(hi-lo)/10, strings.Repeat("#", c), c)
	}
	return b.String()
}

// Spread returns max/min — Fig 2's headline: the same model and hardware
// vary widely across plans.
func (r Fig2Result) Spread() float64 {
	if len(r.Latencies) == 0 {
		return 0
	}
	return r.Latencies[len(r.Latencies)-1] / r.Latencies[0]
}

// RenderFig6 renders the Fig-6 pipeline: four stages and three microbatches
// with stage 2 the bottleneck, drawn from the 1F1B schedule simulator, plus
// the Eqn-4 closed form.
func RenderFig6() string {
	lat := []float64{1, 3, 1, 1}
	var b strings.Builder
	b.WriteString("Fig 6: pipeline with four stages and three microbatches (stage 2 bottleneck)\n")
	b.WriteString(pipeline.RenderTimeline(lat, 3, 66))
	return b.String()
}
