package obs

import "sync/atomic"

// TraceContext is the correlation identity of one run: a 64-bit trace id
// shared by everything the run emits (metric exposition, JSONL events, Chrome
// trace, log lines, flight-recorder entries) plus a per-span id. Both ids are
// derived deterministically from the run seed and a monotonic counter — never
// from wall-clock time or math/rand — so the same seed always produces the
// same ids and re-runs stay bitwise comparable (DESIGN.md §7).
//
// A nil *TraceContext is fully inert: every method returns a zero value and
// costs nothing, matching the package-wide nil no-op contract.
type TraceContext struct {
	traceID uint64
	spanID  uint64
	name    string
	ctr     *atomic.Uint64 // shared by the whole trace tree
}

// NewTraceContext returns the root context for a run identified by seed. The
// name (typically the tool name, e.g. "predtop-train") is mixed into the
// trace id so two tools sharing a seed still get distinct traces.
func NewTraceContext(seed int64, name string) *TraceContext {
	h := uint64(seed)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3 // FNV-1a fold
	}
	id := splitmix64(h)
	if id == 0 {
		id = 1 // 0 is the "no trace" sentinel in hex rendering
	}
	return &TraceContext{traceID: id, spanID: id, name: name, ctr: &atomic.Uint64{}}
}

// Child derives a new span under the same trace id. Span ids come from the
// trace-wide counter hashed with the trace id, so they are unique within the
// trace and deterministic given the same creation order.
func (tc *TraceContext) Child(name string) *TraceContext {
	if tc == nil {
		return nil
	}
	n := tc.ctr.Add(1)
	return &TraceContext{
		traceID: tc.traceID,
		spanID:  splitmix64(tc.traceID ^ n),
		name:    name,
		ctr:     tc.ctr,
	}
}

// TraceID returns the 16-hex-digit trace id ("" on nil).
func (tc *TraceContext) TraceID() string {
	if tc == nil {
		return ""
	}
	return hex16(tc.traceID)
}

// SpanID returns the 16-hex-digit span id ("" on nil).
func (tc *TraceContext) SpanID() string {
	if tc == nil {
		return ""
	}
	return hex16(tc.spanID)
}

// RawIDs returns the raw 64-bit (trace, span) ids — the allocation-free form
// the SLO tracker stores, rendering to hex only at exposition time. (0, 0)
// on nil.
func (tc *TraceContext) RawIDs() (trace, span uint64) {
	if tc == nil {
		return 0, 0
	}
	return tc.traceID, tc.spanID
}

// Name returns the span name ("" on nil).
func (tc *TraceContext) Name() string {
	if tc == nil {
		return ""
	}
	return tc.name
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-mixed 64-bit hash used to turn (seed, counter) pairs into ids.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hex16 renders v as exactly 16 lowercase hex digits without fmt overhead.
func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}
