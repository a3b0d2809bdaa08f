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

// RunFig2 evaluates RandomPlans random parallelization plans of the
// benchmark on Platform 2 under the ground-truth simulator, through one
// labeler: every draw of a stage class costs its strategies on the one
// training graph the labeler built for it.
func RunFig2(p Preset, bench Benchmark, log io.Writer) Fig2Result {
	if log == nil {
		log = io.Discard
	}
	lab := predictor.NewLabeler(models.Build(bench.Config), sim.DefaultProfiler())
	rng := rand.New(rand.NewSource(p.Seed))
	var lats []float64
	attempts := 0
	for len(lats) < p.RandomPlans && attempts < p.RandomPlans*20 {
		attempts++
		if t, ok := planner.RandomPlanLatency(lab, cluster.Platform2(), rng, p.Microbatches); ok {
			lats = append(lats, t)
		}
	}
	sort.Float64s(lats)
	fmt.Fprintf(log, "[fig2 %s] %d plans in %d attempts\n", bench.Name, len(lats), attempts)
	return Fig2Result{Benchmark: bench.Name, Latencies: lats}
}

// Fig2Summary is the headline of one Fig-2 distribution: how many random
// plans were feasible and the min, p25, median, p75 and max of their
// iteration latencies (seconds).
type Fig2Summary struct {
	Benchmark string
	Plans     int
	Quantiles [5]float64
}

// Summary returns the distribution's headline.
func (r Fig2Result) Summary() Fig2Summary {
	s := Fig2Summary{Benchmark: r.Benchmark, Plans: len(r.Latencies)}
	if n := len(r.Latencies); n > 0 {
		for i, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
			s.Quantiles[i] = r.Latencies[int(f*float64(n-1))]
		}
	}
	return s
}

// Fig2Quantiles names Fig2Summary.Quantiles in order.
var Fig2Quantiles = [5]string{"min", "p25", "median", "p75", "max"}

// Metrics returns the headline keyed for a run manifest's canonical metrics:
// fig2_<bench>_plans and fig2_<bench>_<quantile> per Fig2Quantiles entry
// (bench lower-cased).
func (s Fig2Summary) Metrics() map[string]float64 {
	key := "fig2_" + strings.ToLower(s.Benchmark) + "_"
	m := map[string]float64{key + "plans": float64(s.Plans)}
	for i, q := range Fig2Quantiles {
		m[key+q] = s.Quantiles[i]
	}
	return m
}

// Render prints the headline: the plan count and the five quantiles.
func (s Fig2Summary) Render() string {
	if s.Plans == 0 {
		return fmt.Sprintf("Fig 2 (%s): no feasible plans\n", s.Benchmark)
	}
	q := s.Quantiles
	return fmt.Sprintf("Fig 2 (%s): iteration latency of %d random parallelization plans\n"+
		"  min %.3fs  p25 %.3fs  median %.3fs  p75 %.3fs  max %.3fs  (max/min = %.1fx)\n",
		s.Benchmark, s.Plans, q[0], q[1], q[2], q[3], q[4], q[4]/q[0])
}

// Render prints the Fig-2 distribution: its headline and a histogram.
func (r Fig2Result) Render() string {
	s := r.Summary()
	var b strings.Builder
	b.WriteString(s.Render())
	if s.Plans == 0 {
		return b.String()
	}
	// Histogram over 10 buckets.
	lo, hi := s.Quantiles[0], s.Quantiles[4]
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
