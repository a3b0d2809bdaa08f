package ag

import (
	"time"

	"predtop/internal/obs"
)

// Tape-mark profiling: models bracket the ops of each layer between
// StartLayer and LayerSpan.End, which (a) times the layer's forward pass as a
// child span of the context's attached obs.Span and (b) records the half-open
// tape index range the layer produced. Backward then attributes each node's
// VJP time to the innermost enclosing mark, yielding a per-layer backward
// profile from the same single instrumentation point — no second set of
// hooks, no change to Predict signatures.
//
// The whole mechanism honours the obs nil no-op contract: with no span
// attached (or an inert one), StartLayer returns the zero LayerSpan, records
// no marks, and Backward takes its original untimed path, so uninstrumented
// runs are bitwise identical and allocation-free.

// layerMark is the tape index range [lo, hi) recorded while the named layer
// span was open. hi is -1 until the span ends.
type layerMark struct {
	name   string
	lo, hi int
}

// SetSpan attaches the profiling span under which this tape's layer spans
// nest. Passing the zero Span detaches. Existing marks are cleared: a span
// belongs to exactly one forward pass.
func (c *Context) SetSpan(s obs.Span) {
	c.span = s
	c.marks = c.marks[:0]
}

// LayerSpan is an in-flight per-layer measurement opened by StartLayer. The
// zero LayerSpan is inert.
type LayerSpan struct {
	c    *Context
	mark int
	span obs.Span
}

// StartLayer opens a forward span named name under the context's attached
// span and begins a tape mark covering every node recorded until End. Nested
// layers are attributed innermost-first during Backward. Inert (zero cost,
// zero allocations) when no span is attached.
func (c *Context) StartLayer(name string) LayerSpan {
	if !c.span.Enabled() {
		return LayerSpan{}
	}
	c.marks = append(c.marks, layerMark{name: name, lo: len(c.nodes), hi: -1})
	return LayerSpan{c: c, mark: len(c.marks) - 1, span: c.span.Start(name)}
}

// End closes the layer: the forward span folds into the profile tree and the
// tape mark's upper bound is pinned for backward attribution. No-op when
// inert.
func (l LayerSpan) End() {
	if l.c == nil {
		return
	}
	l.c.marks[l.mark].hi = len(l.c.nodes)
	l.span.End()
}

// backwardProfiled replays the tape exactly like the untimed Backward loop —
// same nodes, same reverse order, bitwise-identical gradients — while timing
// each VJP and attributing it to the innermost layer mark containing the
// node. Per-layer totals land as children of bspan via Record; VJP time for
// nodes outside every mark (loss ops, pooling glue) is reported under
// "(unattributed)".
func (c *Context) backwardProfiled(bspan obs.Span) {
	labels := make([]int, len(c.nodes)) // mark index + 1; 0 = outside all marks
	for mi, m := range c.marks {
		hi := m.hi
		if hi < 0 || hi > len(labels) {
			hi = len(labels)
		}
		// Marks are recorded in StartLayer order, so nested (inner) marks
		// come later and overwrite their enclosing layer's label here.
		for i := m.lo; i < hi; i++ {
			labels[i] = mi + 1
		}
	}
	totals := make([]time.Duration, len(c.marks)+1)
	counts := make([]int64, len(c.marks)+1)
	for i := len(c.nodes) - 1; i >= 0; i-- {
		n := c.nodes[i]
		if n.grad == nil || !n.requires {
			continue
		}
		t0 := time.Now()
		c.runBack(n)
		d := time.Since(t0)
		totals[labels[i]] += d
		counts[labels[i]]++
	}
	for mi, m := range c.marks {
		if counts[mi+1] > 0 {
			bspan.Record(m.name, totals[mi+1], counts[mi+1])
		}
	}
	if counts[0] > 0 {
		bspan.Record("(unattributed)", totals[0], counts[0])
	}
}
