// Package pipeline implements the paper's white-box model of inter-stage
// (pipeline) parallelism (§V): the closed-form iteration latency of Eqn 4
// and an explicit event-driven schedule simulator used to validate it and to
// render Fig-6-style timelines. Inter-stage communication is ignored, as the
// paper argues it is negligible next to stage execution on high-bandwidth
// links.
package pipeline

import (
	"fmt"
	"math"
	"strings"
)

// Latency returns Eqn 4: T = Σ tᵢ + (B−1)·max tⱼ, the end-to-end pipeline
// execution time of S stages over B microbatches.
func Latency(stageLat []float64, microbatches int) float64 {
	if len(stageLat) == 0 || microbatches <= 0 {
		return 0
	}
	sum, max := 0.0, 0.0
	for _, t := range stageLat {
		sum += t
		if t > max {
			max = t
		}
	}
	return sum + float64(microbatches-1)*max
}

// Bottleneck returns the index and latency of the slowest stage.
func Bottleneck(stageLat []float64) (int, float64) {
	idx, max := -1, 0.0
	for i, t := range stageLat {
		if t > max {
			idx, max = i, t
		}
	}
	return idx, max
}

// BubbleFraction returns the share of device time lost to the pipeline
// bubble under Eqn 4 — a standard diagnostic for pipeline plans.
func BubbleFraction(stageLat []float64, microbatches int) float64 {
	if len(stageLat) == 0 || microbatches <= 0 {
		return 0
	}
	total := Latency(stageLat, microbatches)
	if total == 0 {
		return 0
	}
	busy := 0.0
	for _, t := range stageLat {
		busy += t * float64(microbatches)
	}
	ideal := busy / float64(len(stageLat))
	frac := 1 - ideal/total
	return math.Max(frac, 0)
}

// Task is one (stage, microbatch) execution in a simulated schedule.
type Task struct {
	Stage, Microbatch int
	Start, End        float64
}

// Simulate runs the synchronous pipeline schedule: stage i starts microbatch
// j as soon as it finished microbatch j−1 and stage i−1 delivered microbatch
// j. It returns the makespan and the full task timeline.
func Simulate(stageLat []float64, microbatches int) (float64, []Task) {
	s := len(stageLat)
	if s == 0 || microbatches <= 0 {
		return 0, nil
	}
	stageFree := make([]float64, s)
	prevDone := make([]float64, microbatches) // completion of (i−1, j)
	var tasks []Task
	makespan := 0.0
	for i := 0; i < s; i++ {
		for j := 0; j < microbatches; j++ {
			start := stageFree[i]
			if prevDone[j] > start {
				start = prevDone[j]
			}
			end := start + stageLat[i]
			stageFree[i] = end
			prevDone[j] = end
			tasks = append(tasks, Task{Stage: i, Microbatch: j, Start: start, End: end})
			if end > makespan {
				makespan = end
			}
		}
	}
	return makespan, tasks
}

// RenderTimeline draws an ASCII Gantt chart of a simulated schedule
// (Fig 6), one row per stage, at the given number of columns.
func RenderTimeline(stageLat []float64, microbatches, cols int) string {
	makespan, tasks := Simulate(stageLat, microbatches)
	if makespan == 0 {
		return ""
	}
	rows := make([][]byte, len(stageLat))
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", cols))
	}
	for _, t := range tasks {
		lo := int(t.Start / makespan * float64(cols))
		hi := int(t.End / makespan * float64(cols))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > cols {
			hi = cols
		}
		ch := byte('0' + t.Microbatch%10)
		for c := lo; c < hi; c++ {
			rows[t.Stage][c] = ch
		}
	}
	var b strings.Builder
	for i, row := range rows {
		fmt.Fprintf(&b, "stage %d |%s|\n", i+1, row)
	}
	fmt.Fprintf(&b, "makespan %.4g (Eqn 4: %.4g)\n", makespan, Latency(stageLat, microbatches))
	return b.String()
}
