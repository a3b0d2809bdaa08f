package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predtop/internal/models"
	"predtop/internal/obs"
	"predtop/internal/predictor"
	"predtop/internal/stage"
)

// waitFor polls cond until it holds; the events the slot tests wait on (a
// gauge or a counter reaching a value) have no channel to block on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedForward replaces s.forward with one that counts entries, tracks how
// many forwards run at once, and holds each until release is closed. Install
// it before the first request.
type gatedForward struct {
	entries, running, peak atomic.Int64
	release                chan struct{}
}

func gateForward(s *Server) *gatedForward {
	g := &gatedForward{release: make(chan struct{})}
	s.forward = func(tr predictor.Trained, e *stage.Encoded) float64 {
		g.entries.Add(1)
		n := g.running.Add(1)
		for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
		}
		<-g.release
		g.running.Add(-1)
		return tr.PredictEncoded(e)
	}
	return g
}

// testSpecs returns n stage ranges of the test benchmark, distinct while the
// six-segment graph has ranges left.
func testSpecs(n int) []stage.Spec {
	var all []stage.Spec
	for length := 1; length <= 3; length++ {
		for lo := 0; lo+length <= testLayers+2; lo++ {
			all = append(all, stage.Spec{Lo: lo, Hi: lo + length})
		}
	}
	out := make([]stage.Spec, n)
	for i := range out {
		out[i] = all[i%len(all)]
	}
	return out
}

// TestPredictConcurrentBitwise: 16 clients hammer two models over three
// stages with a memo too small to hold them, so forwards of both families run
// side by side on handler goroutines — and every served latency must still
// equal a direct PredictEncoded bit for bit (run with -race).
func TestPredictConcurrentBitwise(t *testing.T) {
	dir := t.TempDir()
	trained := map[string]predictor.Trained{
		"tran": writeTestModel(t, dir, "tran", "tran", 1),
		"gcn":  writeTestModel(t, dir, "gcn", "gcn", 2),
	}
	s := startTestServer(t, dir, func(c *Config) { c.CacheSize = 2 })

	enc := predictor.NewEncoder(models.Build(testBenchCfg()), true)
	type query struct {
		model string
		sp    stage.Spec
		want  uint64
	}
	var queries []query
	for _, key := range []string{"tran", "gcn"} {
		for _, sp := range []stage.Spec{{Lo: 0, Hi: 2}, {Lo: 1, Hi: 3}, {Lo: 2, Hi: 5}} {
			queries = append(queries, query{key, sp, math.Float64bits(trained[key].PredictEncoded(enc.Encode(sp)))})
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				q := queries[(g+rep)%len(queries)]
				resp, code, err := tryPredict(context.Background(), s.URL(), PredictRequest{
					Model: q.model, Bench: "GPT-3", Layers: testLayers, Lo: q.sp.Lo, Hi: q.sp.Hi,
				})
				if err != nil || code != 200 {
					t.Errorf("%s %v: code %d, err %v", q.model, q.sp, code, err)
					return
				}
				if got := math.Float64bits(resp.LatencySeconds); got != q.want {
					t.Errorf("%s %v: served %v diverged from direct PredictEncoded", q.model, q.sp, resp.LatencySeconds)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.misses.Value() <= int64(len(queries)) {
		t.Errorf("misses = %d: the 2-entry memo should have forced repeated forwards", s.misses.Value())
	}
	if d := s.waiting.Value(); d != 0 {
		t.Errorf("queue depth = %v after the burst, want 0", d)
	}
}

// TestForwardSlotsBoundConcurrency: with four clients per core all missing at
// once, exactly GOMAXPROCS forwards run and the rest wait for a slot; once
// the forwards are let go everyone is answered, concurrency never exceeded
// the slot count, and the depth gauge is back at 0.
func TestForwardSlotsBoundConcurrency(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, nil)
	gate := gateForward(s)
	slots := int64(cap(s.slots))
	if slots != int64(runtime.GOMAXPROCS(0)) {
		t.Fatalf("forward slots = %d, want GOMAXPROCS = %d", slots, runtime.GOMAXPROCS(0))
	}

	clients := 4 * int(slots)
	var wg sync.WaitGroup
	for _, sp := range testSpecs(clients) {
		wg.Add(1)
		go func(sp stage.Spec) {
			defer wg.Done()
			if _, code, err := tryPredict(context.Background(), s.URL(), PredictRequest{
				Bench: "GPT-3", Layers: testLayers, Lo: sp.Lo, Hi: sp.Hi,
			}); err != nil || code != 200 {
				t.Errorf("%v: code %d, err %v", sp, code, err)
			}
		}(sp)
	}
	// Every client is now either inside a forward or queued for a slot; none
	// has written the memo, so none of them can have been a hit.
	waitFor(t, "all clients to reach the slot queue", func() bool {
		return gate.entries.Load()+int64(s.waiting.Value()) == int64(clients)
	})
	if got := gate.entries.Load(); got != slots {
		t.Errorf("forwards running with all slots contended = %d, want %d", got, slots)
	}
	if got := int64(s.waiting.Value()); got != int64(clients)-slots {
		t.Errorf("queue depth = %d, want %d", got, int64(clients)-slots)
	}
	close(gate.release)
	wg.Wait()

	if got := gate.peak.Load(); got > slots {
		t.Errorf("peak concurrent forwards = %d, want ≤ %d", got, slots)
	}
	if got := gate.entries.Load(); got != int64(clients) {
		t.Errorf("forwards = %d, want one per client (%d)", got, clients)
	}
	if d := s.waiting.Value(); d != 0 {
		t.Errorf("queue depth = %v after the burst, want 0", d)
	}
}

// TestCancelWhileWaitingCostsNoForward: a client that gives up while every
// slot is busy gets its handler back without a forward having run for it, and
// without the SLO tracker charging the server an error for it.
func TestCancelWhileWaitingCostsNoForward(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, func(c *Config) { c.SLOErr = 0.01 })
	gate := gateForward(s)
	slots := cap(s.slots)

	specs := testSpecs(slots + 1)
	var wg sync.WaitGroup
	for _, sp := range specs[:slots] {
		wg.Add(1)
		go func(sp stage.Spec) {
			defer wg.Done()
			if _, code, err := tryPredict(context.Background(), s.URL(), PredictRequest{
				Bench: "GPT-3", Layers: testLayers, Lo: sp.Lo, Hi: sp.Hi,
			}); err != nil || code != 200 {
				t.Errorf("slot holder %v: code %d, err %v", sp, code, err)
			}
		}(sp)
	}
	waitFor(t, "every slot to be held", func() bool { return gate.entries.Load() == int64(slots) })

	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan error, 1)
	go func() {
		sp := specs[slots]
		_, _, err := tryPredict(ctx, s.URL(), PredictRequest{Bench: "GPT-3", Layers: testLayers, Lo: sp.Lo, Hi: sp.Hi})
		gaveUp <- err
	}()
	waitFor(t, "the extra client to queue", func() bool { return s.waiting.Value() == 1 })
	cancel()
	if err := <-gaveUp; err == nil {
		t.Error("cancelled request returned no error to its client")
	}
	// The handler's return is what moves the per-status request counter and,
	// after it, the SLO tracker: the slot holders have not answered yet, so
	// the one observation is the cancelled request's.
	gone := s.cfg.Metrics.Counter(fmt.Sprintf(`%s{code="%d",endpoint="/predict"}`, RequestsMetric, statusClientClosedRequest))
	waitFor(t, "the cancelled handler to return", func() bool {
		return gone.Value() == 1 && s.slo.Snapshot().Windows[0].Total == 1
	})
	if errs := s.slo.Snapshot().Windows[0].Errors; errs != 0 {
		t.Errorf("SLO errors = %d after a client-side cancel, want 0", errs)
	}
	if d := s.waiting.Value(); d != 0 {
		t.Errorf("queue depth = %v after the cancel, want 0", d)
	}
	if got := gate.entries.Load(); got != int64(slots) {
		t.Errorf("forwards = %d after the cancel, want still %d", got, slots)
	}

	close(gate.release)
	wg.Wait()
	if got := gate.entries.Load(); got != int64(slots) {
		t.Errorf("forwards = %d at the end, want %d: the cancelled request ran one", got, slots)
	}
}

// TestForwardPanicReleasesSlot: net/http recovers a panicking handler, so a
// forward that panics must still hand its slot back — otherwise GOMAXPROCS
// such panics would leave every later miss waiting forever.
func TestForwardPanicReleasesSlot(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, nil)
	s.forward = func(predictor.Trained, *stage.Encoded) float64 { panic("forward blew up") }

	body := fmt.Sprintf(`{"bench":"GPT-3","layers":%d,"lo":0,"hi":2}`, testLayers)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the forward's panic did not reach the handler's caller")
			}
		}()
		s.handlePredict(httptest.NewRecorder(),
			httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader([]byte(body))), &reqInfo{})
	}()
	if n := len(s.slots); n != 0 {
		t.Errorf("%d forward slot(s) still taken after the panic", n)
	}
}

// TestCloseDrainsRunningForward: Close during a slow forward waits for it,
// and the request it belongs to still gets its 200.
func TestCloseDrainsRunningForward(t *testing.T) {
	dir := t.TempDir()
	tr := writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, nil)
	gate := gateForward(s)

	type answer struct {
		resp PredictResponse
		code int
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, code, err := tryPredict(context.Background(), s.URL(), PredictRequest{
			Bench: "GPT-3", Layers: testLayers, Lo: 0, Hi: 2,
		})
		answered <- answer{resp, code, err}
	}()
	waitFor(t, "the forward to start", func() bool { return gate.entries.Load() == 1 })

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Shutdown closes the listener first: once a dial is refused, Close is
	// under way and is waiting on the handler.
	waitFor(t, "the listener to close", func() bool {
		c, err := net.DialTimeout("tcp", s.Addr(), time.Second)
		if err == nil {
			c.Close()
		}
		return err != nil
	})
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a forward was still running", err)
	default:
	}

	close(gate.release)
	a := <-answered
	if a.err != nil || a.code != 200 {
		t.Fatalf("in-flight request during Close: code %d, err %v", a.code, a.err)
	}
	enc := predictor.NewEncoder(models.Build(testBenchCfg()), true)
	want := tr.PredictEncoded(enc.Encode(stage.Spec{Lo: 0, Hi: 2}))
	if math.Float64bits(a.resp.LatencySeconds) != math.Float64bits(want) {
		t.Errorf("drained answer %v, want %v", a.resp.LatencySeconds, want)
	}
	if err := <-closed; err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestPredictHitAllocBudget pins what a memo hit costs in heap allocations
// through the instrumented handler. The bare row has a metrics registry and
// no flight recorder or sink — the benchmark daemon's
// configuration; measured 37 with go1.24 (test request and recorder included).
// The shipped row adds what predtop-serve always passes — flight recorder,
// JSONL sink, SLO objectives — and must cost a hit nothing beyond the sampled
// access record (one request in 64): a hit formats no breadcrumb and emits no
// record of its own.
func TestPredictHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode degrades sync.Pool; steady-state counts not meaningful")
	}
	const bare = 40
	for _, tc := range []struct {
		name   string
		budget float64
		mutate func(*Config)
	}{
		{"bare", bare, nil},
		{"shipped", bare + 1, func(c *Config) {
			c.Flight = obs.NewFlightRecorder(0)
			c.Sink = obs.NewSink(io.Discard)
			c.Sink.AttachFlight(c.Flight)
			c.SLOP99, c.SLOErr = 500*time.Millisecond, 0.05
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeTestModel(t, dir, "tran", "tran", 1)
			s := startTestServer(t, dir, tc.mutate)
			h := s.instrument("/predict", s.handlePredict)
			body := []byte(fmt.Sprintf(`{"bench":"GPT-3","layers":%d,"lo":0,"hi":2}`, testLayers))
			serve := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
				if rec.Code != 200 {
					t.Fatalf("code %d: %s", rec.Code, rec.Body)
				}
			}
			serve() // the miss that fills the memo
			serve()
			allocs := testing.AllocsPerRun(200, serve)
			if allocs > tc.budget {
				t.Fatalf("a memo hit allocates %.1f times per request, budget %.0f", allocs, tc.budget)
			}
			t.Logf("memo-hit allocs per request (request and recorder included): %.1f", allocs)
		})
	}
}

// TestMemoClassSharedBitwise: the memo is keyed by stage class, so a second
// spec of a class is a hit that costs no forward and serves exactly what a
// direct PredictEncoded of its own encoding returns. The same kinds under
// another layer count belong to another model and get their own entry, and a
// reload purges every entry.
func TestMemoClassSharedBitwise(t *testing.T) {
	dir := t.TempDir()
	tr := writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, nil)
	var forwards atomic.Int64
	s.forward = func(tr predictor.Trained, e *stage.Encoded) float64 {
		forwards.Add(1)
		return tr.PredictEncoded(e)
	}
	direct := func(layers int, sp stage.Spec) uint64 {
		cfg := testBenchCfg()
		cfg.Layers = layers
		return math.Float64bits(tr.PredictEncoded(predictor.NewEncoder(models.Build(cfg), true).Encode(sp)))
	}
	for i, q := range []struct {
		what    string
		layers  int
		sp      stage.Spec
		reload  bool
		cached  bool
		forward int64
	}{
		{"first DD spec", testLayers, stage.Spec{Lo: 1, Hi: 3}, false, false, 1},
		{"second DD spec", testLayers, stage.Spec{Lo: 2, Hi: 4}, false, true, 1},
		{"third DD spec", testLayers, stage.Spec{Lo: 3, Hi: 5}, false, true, 1},
		{"DD of another layer count", testLayers + 1, stage.Spec{Lo: 1, Hi: 3}, false, false, 2},
		{"DD after a reload", testLayers, stage.Spec{Lo: 2, Hi: 4}, true, false, 3},
		{"DD again after the reload", testLayers, stage.Spec{Lo: 1, Hi: 3}, false, true, 3},
	} {
		if q.reload {
			if _, _, err := s.Reload(); err != nil {
				t.Fatal(err)
			}
		}
		resp, code := postPredict(t, s.URL(), PredictRequest{Bench: "GPT-3", Layers: q.layers, Lo: q.sp.Lo, Hi: q.sp.Hi})
		if code != 200 {
			t.Fatalf("%d %s: code %d", i, q.what, code)
		}
		if resp.Lo != q.sp.Lo || resp.Hi != q.sp.Hi || resp.Layers != q.layers {
			t.Errorf("%d %s: response echoes layers %d [%d,%d)", i, q.what, resp.Layers, resp.Lo, resp.Hi)
		}
		if resp.Cached != q.cached {
			t.Errorf("%d %s: cached = %v, want %v", i, q.what, resp.Cached, q.cached)
		}
		if got := forwards.Load(); got != q.forward {
			t.Errorf("%d %s: %d forwards so far, want %d", i, q.what, got, q.forward)
		}
		if got, want := math.Float64bits(resp.LatencySeconds), direct(q.layers, q.sp); got != want {
			t.Errorf("%d %s: served %v, direct PredictEncoded %v", i, q.what,
				resp.LatencySeconds, math.Float64frombits(want))
		}
	}
}

// TestNonFiniteAnswerNotMemoized: a forward that returns NaN or ±Inf answers
// a 5xx naming the value and leaves the memo empty, so the next request of
// the class runs the forward again instead of being served the poison.
func TestNonFiniteAnswerNotMemoized(t *testing.T) {
	dir := t.TempDir()
	writeTestModel(t, dir, "tran", "tran", 1)
	s := startTestServer(t, dir, nil)
	answers := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	var forwards atomic.Int64
	s.forward = func(tr predictor.Trained, e *stage.Encoded) float64 {
		if n := forwards.Add(1); int(n) <= len(answers) {
			return answers[n-1]
		}
		return tr.PredictEncoded(e)
	}
	key := predKey{model: "tran", gen: 1, bench: "GPT-3", layers: testLayers,
		class: models.Build(testBenchCfg()).StageClass(1, 3)}
	post := func(lo, hi int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"bench":"GPT-3","layers":%d,"lo":%d,"hi":%d}`, testLayers, lo, hi)
		s.handlePredict(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader([]byte(body))), &reqInfo{})
		return rec
	}
	for i, v := range answers {
		rec := post(1+i%2, 3+i%2) // [1,3) and [2,4) are both DD
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("forward answered %v: code %d, want 500", v, rec.Code)
		}
		if want := fmt.Sprintf("non-finite latency (%v)", v); !bytes.Contains(rec.Body.Bytes(), []byte(want)) {
			t.Errorf("forward answered %v: body %q does not say %q", v, rec.Body, want)
		}
		if _, ok := s.cache.Get(key); ok {
			t.Fatalf("forward answered %v: the memo holds an entry", v)
		}
		if got := forwards.Load(); got != int64(i+1) {
			t.Errorf("after %d poisoned answers: %d forwards", i+1, got)
		}
	}
	rec := post(1, 3)
	if rec.Code != 200 {
		t.Fatalf("healthy forward: code %d: %s", rec.Code, rec.Body)
	}
	if got := forwards.Load(); got != int64(len(answers)+1) {
		t.Errorf("healthy request ran %d forwards in all, want %d", got, len(answers)+1)
	}
	if _, ok := s.cache.Get(key); !ok {
		t.Error("a finite answer was not memoized")
	}
}
