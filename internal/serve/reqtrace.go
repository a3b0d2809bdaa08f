package serve

import (
	"sync/atomic"
	"time"

	"predtop/internal/obs"
)

// The access sampler's tiers: the first accessHeadN requests, every
// accessEvery-th after that, and everything at or over the latency objective
// (accessSlowDefault when the daemon has none).
const (
	accessHeadN       = 8
	accessEvery       = 64
	accessSlowDefault = 100 * time.Millisecond
)

// accessSampler decides which finished /predict requests earn an access-log
// record. Logging every request would swamp the JSONL sink under replay load,
// so the sampler keeps the interesting subset: the first accessHeadN requests
// ("head" — startup behaviour), every request at or over the slow threshold
// ("slow"), every server error ("error"), and every accessEvery-th request
// after that ("rate" — a steady background sample). Decisions come from an
// atomic counter, never from randomness, so a fixed request order always
// samples the same requests. A nil sampler samples nothing.
type accessSampler struct {
	slowS float64
	seen  atomic.Int64
}

// newAccessSampler builds the sampler for a daemon whose p99 objective is
// objective (0 = none).
func newAccessSampler(objective time.Duration) *accessSampler {
	if objective <= 0 {
		objective = accessSlowDefault
	}
	return &accessSampler{slowS: objective.Seconds()}
}

// decide returns the sampling reason for one finished request, or "" to skip
// it. Error and slow requests always log; the head and rate tiers fill in the
// healthy baseline around them.
func (a *accessSampler) decide(durS float64, code int) string {
	if a == nil {
		return ""
	}
	n := a.seen.Add(1)
	switch {
	case code >= 500:
		return "error"
	case durS >= a.slowS:
		return "slow"
	case n <= accessHeadN:
		return "head"
	case n%accessEvery == 0:
		return "rate"
	}
	return ""
}

// reqInfo carries one request's identity and phase evidence from the handler
// back to the instrument wrapper: the request span (whose ids become the SLO
// worst-offender entry), the resolved query, and — for a memo miss that ran
// its forward — the three phase boundaries the handler stamped.
type reqInfo struct {
	span   *obs.TraceContext
	model  string
	bench  string
	lo, hi int
	cached bool

	tWait time.Time // decoded, validated, encoded; asking for a forward slot
	tFwd0 time.Time // slot taken, forward started
	tFwd1 time.Time // forward finished (zero unless a forward ran)
}

// phaseRecord is one request phase in an access record: a named child span
// (deterministic id under the request span) and its duration.
type phaseRecord struct {
	Name   string `json:"name"`
	SpanID string `json:"span_id"`
	Us     int64  `json:"us"`
}

// logAccess emits one sampled {"event":"access"} record for a finished
// /predict request: status, query, total latency, and the per-phase breakdown
// decode → wait → forward → respond (or a single memo_hit phase for cached
// answers), each phase a child span of the request span so the record and
// the SLO worst list join on the same ids.
func (s *Server) logAccess(ri *reqInfo, code int, start time.Time, dur time.Duration) {
	if s.cfg.Sink == nil {
		return
	}
	reason := s.sampler.decide(dur.Seconds(), code)
	if reason == "" {
		return
	}
	rec := map[string]any{
		"event": "access", "endpoint": "/predict", "sampled": reason,
		"code": code, "total_us": dur.Microseconds(),
	}
	if ri.span != nil {
		rec["request_span_id"] = ri.span.SpanID()
	}
	if ri.model != "" {
		rec["model"] = ri.model
	}
	if ri.bench != "" {
		rec["bench"], rec["lo"], rec["hi"] = ri.bench, ri.lo, ri.hi
		rec["cached"] = ri.cached
	}
	var phases []phaseRecord
	addPhase := func(name string, d time.Duration) {
		if d < 0 {
			d = 0
		}
		phases = append(phases, phaseRecord{
			Name: name, SpanID: ri.span.Child(name).SpanID(), Us: d.Microseconds(),
		})
	}
	switch {
	case !ri.tFwd1.IsZero():
		addPhase("decode", ri.tWait.Sub(start))  // decode, validate, encode
		addPhase("wait", ri.tFwd0.Sub(ri.tWait)) // every forward slot busy
		addPhase("forward", ri.tFwd1.Sub(ri.tFwd0))
		addPhase("respond", start.Add(dur).Sub(ri.tFwd1))
	case ri.cached:
		addPhase("memo_hit", dur)
	}
	if phases != nil {
		rec["phases"] = phases
	}
	s.cfg.Sink.Emit(rec)
}
