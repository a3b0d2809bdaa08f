package pipeline

import (
	"fmt"
	"math"

	"predtop/internal/obs"
)

// AddSchedule appends the simulated 1F1B schedule to a trace builder: one
// named track per stage ("<prefix>stage N"), one slice per
// (stage, microbatch) task. Latencies are interpreted as seconds of
// simulated time starting at the trace origin. It validates its input —
// microbatches < 1, negative, NaN, or infinite latencies are an error
// rather than a garbage trace — and is a no-op on a nil builder (after
// validation, so callers catch bad inputs regardless of tracing).
func AddSchedule(tb *obs.TraceBuilder, prefix string, stageLat []float64, microbatches int) error {
	if microbatches < 1 {
		return fmt.Errorf("pipeline: microbatches must be >= 1, got %d", microbatches)
	}
	for i, t := range stageLat {
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("pipeline: invalid latency %v for stage %d", t, i+1)
		}
	}
	_, tasks := Simulate(stageLat, microbatches)
	for _, t := range tasks {
		tb.Slice(fmt.Sprintf("%sstage %d", prefix, t.Stage+1),
			fmt.Sprintf("mb%d", t.Microbatch), t.Start, t.End-t.Start)
	}
	return nil
}
