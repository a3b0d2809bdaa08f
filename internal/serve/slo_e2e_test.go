package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"predtop/internal/obs"
	"predtop/internal/predictor"
	"predtop/internal/stage"
)

// jsonlRecords parses a JSONL buffer into per-event record lists.
func jsonlRecords(t *testing.T, buf *bytes.Buffer) map[string][]map[string]any {
	t.Helper()
	out := map[string][]map[string]any{}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		ev, _ := rec["event"].(string)
		out[ev] = append(out[ev], rec)
	}
	return out
}

// TestSLOBreachIncidentBundle is the end-to-end incident drill: an
// artificially slowed forward path pushes /predict latency over a tight p99
// objective, which must trip exactly one edge-triggered breach and produce a
// correlated evidence bundle — a flight-recorder dump and a CPU profile on
// disk, plus one slo_breach JSONL record whose worst-offender span ids all
// appear in the sampled access records of the same sink.
func TestSLOBreachIncidentBundle(t *testing.T) {
	dir := t.TempDir()
	incidents := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)

	var sinkBuf bytes.Buffer
	sink := obs.NewSink(&sinkBuf)
	flight := obs.NewFlightRecorder(128)
	s := startTestServer(t, dir, func(cfg *Config) {
		cfg.Sink = sink
		cfg.Flight = flight
		cfg.SLOP99 = 5 * time.Millisecond
		cfg.IncidentDir = incidents
	})
	// Slow every forward well past the objective; the hook is in place before
	// the first request is sent.
	s.forward = func(tr predictor.Trained, e *stage.Encoded) float64 {
		time.Sleep(15 * time.Millisecond)
		return tr.PredictEncoded(e)
	}

	// Eleven stages of distinct classes (the memo's key), so nothing
	// memo-hits and every request runs a slowed forward. The tenth arms the
	// breach (sloMinSamples).
	for _, sp := range [][2]int{
		{0, 1}, {1, 2}, {5, 6}, // E, D, H
		{0, 2}, {1, 3}, {4, 6}, // ED, DD, DH
		{0, 3}, {1, 4}, {3, 6}, // EDD, DDD, DDH
		{0, 4}, {1, 5}, // EDDD, DDDD
	} {
		if _, code := postPredict(t, s.URL(), PredictRequest{
			Bench: "GPT-3", Layers: testLayers, Lo: sp[0], Hi: sp[1],
		}); code != 200 {
			t.Fatalf("query [%d,%d): code %d", sp[0], sp[1], code)
		}
	}
	s.incidents.drain()

	// Exactly one ok→breach edge despite eleven violating requests.
	if snap := s.slo.Snapshot(); snap.Breaches != 1 || !snap.Breached {
		t.Fatalf("breaches = %d, breached = %v: want exactly one edge and still in breach", snap.Breaches, snap.Breached)
	}

	if err := sink.Flush(); err != nil {
		t.Fatalf("flushing the sink: %v", err)
	}
	recs := jsonlRecords(t, &sinkBuf)
	breaches := recs["slo_breach"]
	if len(breaches) != 1 {
		t.Fatalf("slo_breach records = %d, want exactly 1", len(breaches))
	}
	br := breaches[0]

	// Both artifacts exist and are non-empty, and the record names them.
	flightPath, _ := br["flight_dump"].(string)
	profPath, _ := br["cpu_profile"].(string)
	for what, p := range map[string]string{"flight_dump": flightPath, "cpu_profile": profPath} {
		if p == "" {
			t.Fatalf("slo_breach record missing %s (record: %v)", what, br)
		}
		if filepath.Dir(p) != incidents {
			t.Errorf("%s %q not under incident dir %q", what, p, incidents)
		}
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("stat %s: %v", what, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s %s is empty", what, p)
		}
	}
	// The flight dump is the serving timeline: it must carry predict notes.
	fdump, err := os.ReadFile(flightPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fdump, []byte("predict")) {
		t.Error("flight dump carries no predict events")
	}

	// Correlation: every worst-offender span id in the breach record appears
	// as a request_span_id of an access record (every request was over the
	// slow threshold, so all were sampled).
	worst, _ := br["worst"].([]any)
	if len(worst) == 0 {
		t.Fatal("slo_breach record has no worst offenders")
	}
	accRecs := recs["access"]
	if len(accRecs) == 0 {
		t.Fatal("no access records sampled")
	}
	accSpans := map[string]bool{}
	for _, a := range accRecs {
		if id, _ := a["request_span_id"].(string); id != "" {
			accSpans[id] = true
		}
		if reason, _ := a["sampled"].(string); reason != "slow" {
			t.Errorf("access record sampled=%q, want slow (record: %v)", reason, a)
		}
	}
	for _, wr := range worst {
		m, _ := wr.(map[string]any)
		id, _ := m["span_id"].(string)
		if id == "" || !accSpans[id] {
			t.Errorf("worst offender span %q has no access-log record", id)
		}
	}

	// Phase breakdown: an uncached slowed request shows the forward phase
	// dominating, with all four phases present and child span ids set.
	wantPhases := []string{"decode", "wait", "forward", "respond"}
	phases, _ := accRecs[0]["phases"].([]any)
	if len(phases) != len(wantPhases) {
		t.Fatalf("access record phases = %v, want %v", phases, wantPhases)
	}
	var forwardUs float64
	for i, p := range phases {
		m, _ := p.(map[string]any)
		if name, _ := m["name"].(string); name != wantPhases[i] {
			t.Errorf("phase %d = %q, want %q", i, m["name"], wantPhases[i])
		}
		if id, _ := m["span_id"].(string); len(id) != 16 {
			t.Errorf("phase %v has bad span id %q", m["name"], m["span_id"])
		}
		if m["name"] == "forward" {
			forwardUs, _ = m["us"].(float64)
		}
	}
	if forwardUs < 10e3 {
		t.Errorf("forward phase %vµs, want ≥ 10ms (the injected slowdown)", forwardUs)
	}

	// The exposition reflects the breach: gauge up, counter at one edge.
	resp, err := http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(raw)
	for _, want := range []string{
		"predtop_slo_breach 1",
		"predtop_slo_breach_total 1",
		`predtop_slo_latency_seconds{quantile="0.99",window="1m0s"}`,
		`predtop_slo_burn_rate{window="5m0s"}`,
		`predtop_slo_error_rate{window="1h0m0s"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// /statusz renders the live verdict with the offenders' trace ids.
	resp, err = http.Get(s.URL() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(raw)
	for _, want := range []string{"predtop-serve status", "state: BREACHED", "worst recent requests:", "queue depth:"} {
		if !strings.Contains(page, want) {
			t.Errorf("/statusz missing %q in:\n%s", want, page)
		}
	}
}

// TestSLOBreachSecondEdge: after the tracker recovers (injected clock idling
// past every window), a second excursion fires a second edge and a second
// slo_breach record — the serving layer must not wedge after one incident.
func TestSLOBreachSecondEdge(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)

	// The injected clock is read by handler goroutines and advanced by the
	// test; an atomic keeps the -race run clean (a plain variable would race —
	// the socket between client and server is no happens-before edge).
	var clockNS atomic.Int64
	clockNS.Store(time.Unix(1000, 0).UnixNano())
	var sinkBuf bytes.Buffer
	s := startTestServer(t, dir, func(cfg *Config) {
		cfg.Sink = obs.NewSink(&sinkBuf)
		cfg.SLOP99 = time.Nanosecond // every request violates
		cfg.sloNow = func() time.Time { return time.Unix(0, clockNS.Load()) }
	})

	// An excursion is sloMinSamples requests (memo hits after the first: with
	// a 1ns objective every answer violates).
	excursion := func() {
		t.Helper()
		for i := 0; i < sloMinSamples; i++ {
			if _, code := postPredict(t, s.URL(), PredictRequest{
				Bench: "GPT-3", Layers: testLayers, Lo: 0, Hi: 1,
			}); code != 200 {
				t.Fatalf("query %d failed", i)
			}
		}
		s.incidents.drain()
	}
	excursion()
	if n := s.slo.Snapshot().Breaches; n != 1 {
		t.Fatalf("first excursion: breaches = %d, want 1", n)
	}

	// Idle past every window: the tracker recovers and re-arms.
	clockNS.Add(int64(2 * time.Hour))
	if snap := s.slo.Snapshot(); snap.Breached {
		t.Fatal("tracker should have recovered after idle windows")
	}
	excursion()
	if n := s.slo.Snapshot().Breaches; n != 2 {
		t.Fatalf("second excursion: breaches = %d, want 2", n)
	}
	if got := bytes.Count(sinkBuf.Bytes(), []byte(`"event":"slo_breach"`)); got != 2 {
		t.Fatalf("slo_breach records = %d, want 2", got)
	}
}

// TestAccessLogHeadSampling: without an SLO, the default sampler still logs
// the first requests ("head"), including the memo_hit phase for cached
// answers.
func TestAccessLogHeadSampling(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)
	var accBuf bytes.Buffer
	acc := obs.NewSink(&accBuf)
	s := startTestServer(t, dir, func(cfg *Config) {
		cfg.Sink = acc
	})
	for _, lo := range []int{0, 0} { // miss then memo hit
		if _, code := postPredict(t, s.URL(), PredictRequest{
			Bench: "GPT-3", Layers: testLayers, Lo: lo, Hi: lo + 2,
		}); code != 200 {
			t.Fatalf("query failed: %d", code)
		}
	}
	if err := acc.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := jsonlRecords(t, &accBuf)["access"]
	if len(recs) != 2 {
		t.Fatalf("access records = %d, want 2 (head sampling)", len(recs))
	}
	for i, r := range recs {
		if reason, _ := r["sampled"].(string); reason != "head" {
			t.Errorf("record %d sampled=%q, want head", i, reason)
		}
	}
	if cached, _ := recs[1]["cached"].(bool); !cached {
		t.Error("second record should be a memo hit")
	}
	phases, _ := recs[1]["phases"].([]any)
	if len(phases) != 1 {
		t.Fatalf("memo hit phases = %v, want exactly [memo_hit]", phases)
	}
	if m, _ := phases[0].(map[string]any); m["name"] != "memo_hit" {
		t.Errorf("memo hit phase = %v", m)
	}
}

// TestIncidentCaptureLeavesOnlyFinalNames: both artifacts of a bundle are
// written under temporary names and renamed into place once complete, so the
// incident directory only ever holds final names — after a clean capture, and
// after one whose CPU profile fails to start because another profiler holds
// the process's one slot, which leaves the flight dump and no profile at all.
func TestIncidentCaptureLeavesOnlyFinalNames(t *testing.T) {
	dir := t.TempDir()
	flight := obs.NewFlightRecorder(16)
	flight.Note("serve", "predict")
	var sink bytes.Buffer
	ic := newIncidentCapture(dir, flight, obs.NewSink(&sink), nil)
	names := func() []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}

	ic.capture(1, sloSnapshot{})
	if got, want := names(), []string{"incident-001-cpu.pprof", "incident-001-flight.jsonl"}; !slices.Equal(got, want) {
		t.Fatalf("after a clean capture the directory holds %v, want %v", got, want)
	}

	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Skipf("CPU profiler already in use: %v", err)
	}
	ic.capture(2, sloSnapshot{})
	pprof.StopCPUProfile()
	want := []string{"incident-001-cpu.pprof", "incident-001-flight.jsonl", "incident-002-flight.jsonl"}
	if got := names(); !slices.Equal(got, want) {
		t.Fatalf("after a capture whose profile failed the directory holds %v, want %v", got, want)
	}
	if !strings.Contains(sink.String(), "profile_error") {
		t.Fatalf("the failed profile left no profile_error on the record: %s", sink.String())
	}
}
