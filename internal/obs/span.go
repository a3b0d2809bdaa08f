// Package obs is the batch tools' observability layer. A batch code path —
// predictor training, planner search, experiment grids — keeps exactly two
// instruments: a deterministic stats struct of its own for facts, and this
// package's span Profiler for time, the only wall clock it starts and stops.
// Around them obs provides the structured JSONL event Sink, the Chrome-tracing
// TraceBuilder (no clock of its own: it renders the profiler's span intervals
// and simulated schedules), the deterministic TraceContext, the crash
// FlightRecorder and the debug HTTP Server. Metrics and SLOs are the serving
// daemon's, in internal/serve.
//
// Observation is free when disabled and passive when enabled: a nil
// *Profiler, *Sink, *TraceBuilder, *FlightRecorder or *Logger is a no-op (no
// allocation, no time.Now), so hot loops are instrumented unconditionally,
// and nothing observed feeds back into computation, so the bitwise
// determinism of training (DESIGN.md §6) holds with observability on or off.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Profiler aggregates nestable Spans into a deterministic self-time profile
// tree: each distinct span path (e.g. train → forward → l0.attn) becomes one
// node accumulating total monotonic duration and invocation count across
// every goroutine that opened it. It is the one wall clock batch code starts
// and stops: one instrumentation call yields both artifacts —
// WriteProfileTree's flame-style text report and, when a TraceBuilder is
// attached (AttachTrace), the span's interval as a slice on a Chrome-trace
// track.
//
// The profiler follows the package's nil no-op contract: a nil *Profiler
// hands out inert Spans whose every method (including nested Start) costs
// zero allocations and zero time.Now calls, so hot loops are instrumented
// unconditionally. All methods are safe for concurrent use; sibling spans
// opened by parallel workers fold into the same tree node.
type Profiler struct {
	epoch time.Time // origin of the mirrored trace slices; set once by NewProfiler
	mu    sync.Mutex
	root  profNode
	trace *TraceBuilder
	track string
}

// profNode is one aggregated node of the profile tree. Children are keyed by
// span name; rendering sorts names, so the report layout depends only on the
// set of instrumentation points reached, never on goroutine interleaving.
type profNode struct {
	name     string
	total    time.Duration
	count    int64
	children map[string]*profNode
}

func (n *profNode) child(name string) *profNode {
	c, ok := n.children[name]
	if !ok {
		if n.children == nil {
			n.children = map[string]*profNode{}
		}
		c = &profNode{name: name}
		n.children[name] = c
	}
	return c
}

// NewProfiler returns an empty enabled profiler; mirrored trace slices are
// timed from this moment.
func NewProfiler() *Profiler { return &Profiler{epoch: time.Now()} }

// Enabled reports whether the profiler records anything (false on nil).
func (p *Profiler) Enabled() bool { return p != nil }

// AttachTrace mirrors every completed span as a Chrome-trace slice on the
// named track of tb, timed from the profiler's creation, so the aggregate
// profile tree and the raw timeline come from the same clock readings. A nil
// profiler or nil builder leaves the profiler unchanged.
func (p *Profiler) AttachTrace(tb *TraceBuilder, track string) {
	if p == nil || tb == nil {
		return
	}
	p.mu.Lock()
	p.trace, p.track = tb, track
	p.mu.Unlock()
}

// Start opens a top-level span. See Span.Start for nesting.
func (p *Profiler) Start(name string) Span {
	if p == nil {
		return Span{}
	}
	return Span{p: p, node: &p.root}.Start(name)
}

// Span is an in-flight node of the profile tree. The zero Span is inert:
// every method no-ops at zero cost, so handles can be threaded
// unconditionally. A Span is a value — copy it freely, but End it once.
type Span struct {
	p     *Profiler
	node  *profNode
	start time.Time
}

// Enabled reports whether the span records anything (false on the zero
// Span, i.e. when profiling is off). Call sites use it to skip
// span-name construction (fmt.Sprintf) on the disabled path.
func (s Span) Enabled() bool { return s.p != nil }

// Start opens a child span named name under s, beginning its monotonic
// timer. Inert on an inert parent.
func (s Span) Start(name string) Span {
	if s.p == nil {
		return Span{}
	}
	s.p.mu.Lock()
	node := s.node.child(name)
	s.p.mu.Unlock()
	return Span{p: s.p, node: node, start: time.Now()}
}

// End closes the span, folding its monotonic elapsed time into the tree and
// (with an attached TraceBuilder) emitting the corresponding trace slice.
// No-op on an inert span.
func (s Span) End() {
	if s.p == nil {
		return
	}
	d := time.Since(s.start)
	s.p.mu.Lock()
	s.node.total += d
	s.node.count++
	tb, track := s.p.trace, s.p.track
	s.p.mu.Unlock()
	if tb != nil {
		tb.Slice(track, s.node.name, s.start.Sub(s.p.epoch).Seconds(), d.Seconds())
	}
}

// Record folds an externally-measured sample — duration d over count
// invocations — into the child node named name, without opening a timer.
// Backward-pass attribution uses this: per-layer durations are measured
// inside the tape replay and deposited here afterwards. No-op when inert.
func (s Span) Record(name string, d time.Duration, count int64) {
	if s.p == nil {
		return
	}
	s.p.mu.Lock()
	c := s.node.child(name)
	c.total += d
	c.count += count
	s.p.mu.Unlock()
}

// WriteProfileTree renders the aggregated spans as an indented self-time
// report: one line per node with total time, self time (total minus
// children, clamped at zero — parallel children can sum past their parent's
// wall time) and invocation count. Nodes print in depth-first name order, so
// the layout is deterministic for a given set of instrumentation points.
// No-op on a nil profiler.
func (p *Profiler) WriteProfileTree(w io.Writer) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var b strings.Builder
	var total time.Duration
	for _, c := range p.root.children {
		total += c.total
	}
	fmt.Fprintf(&b, "# span profile: %d root span(s), total %s\n", len(p.root.children), total)
	fmt.Fprintf(&b, "# %-42s %12s %12s %10s\n", "span", "total", "self", "count")
	writeProfNode(&b, &p.root, 0)
	_, err := io.WriteString(w, b.String())
	return err
}

func writeProfNode(b *strings.Builder, n *profNode, depth int) {
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := n.children[name]
		self := c.total
		for _, g := range c.children {
			self -= g.total
		}
		if self < 0 {
			self = 0
		}
		label := strings.Repeat("  ", depth) + c.name
		fmt.Fprintf(b, "%-44s %12s %12s %10d\n",
			label, c.total.Round(time.Microsecond), self.Round(time.Microsecond), c.count)
		writeProfNode(b, c, depth+1)
	}
}
