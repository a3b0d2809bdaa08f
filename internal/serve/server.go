package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"predtop/internal/lru"
	"predtop/internal/models"
	"predtop/internal/obs"
	"predtop/internal/predictor"
	"predtop/internal/stage"
)

// Metric names exported by the request path.
const (
	RequestSecondsMetric = "predtop_serve_request_seconds"
	RequestsMetric       = "predtop_serve_requests_total"
	CacheHitsMetric      = "predtop_serve_cache_hits_total"
	CacheMissesMetric    = "predtop_serve_cache_misses_total"
	// QueueDepthMetric is the number of memo misses waiting for a forward
	// slot right now.
	QueueDepthMetric = "predtop_serve_queue_depth"
	// BatchesMetric and BatchedRequestsMetric both count forwards. Nothing in
	// this module reads them: bench/'s frozen TestSmoke fails unless its
	// serve.mean_batch rung, their ratio, is measured, and they go when a
	// benchmark PR retires that rung.
	BatchesMetric         = "predtop_serve_batches_total"
	BatchedRequestsMetric = "predtop_serve_batched_requests_total"
)

// statusClientClosedRequest (nginx's 499) answers a request whose client went
// away while it waited for a forward slot. Nobody reads the response; the code
// keeps the request out of the 5xx class, which is what the SLO error budget
// and the access sampler's "error" tier count as the server's failures.
const statusClientClosedRequest = 499

// requestSecondsBuckets spans 100µs … ~0.8s, the plausible range for one
// forward of a pruned stage graph.
var requestSecondsBuckets = expBuckets(1e-4, 2, 14)

// Config configures a serving daemon (see Start). The zero value plus a
// ModelDir is usable: it binds a free localhost port and runs without
// telemetry.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0"; read the bound
	// address back from Server.Addr).
	Addr string
	// ModelDir is the directory of *.predtop model files to serve.
	ModelDir string
	// CacheSize bounds the (model, generation, stage) → latency memo
	// (default 4096 entries, the same bound as the planner's stage-encoding
	// cache).
	CacheSize int

	// Metrics, Sink, Flight, Trace, and Log are the observability fan-out;
	// each is optional and nil-safe. Metrics backs GET /metrics (404 without
	// one). Sink takes the slo_breach records and the sampled access records
	// — the one record a request leaves.
	Metrics *Metrics
	Sink    *obs.Sink
	Flight  *obs.FlightRecorder
	Trace   *obs.TraceContext
	Log     *obs.Logger

	// SLOP99 is the /predict p99 latency objective and SLOErr the tolerated
	// bad-request fraction (the error budget). Setting either enables the
	// rolling SLO tracker — 1m/5m/1h windows armed after 10 requests each,
	// predtop_slo_* gauges, the edge-triggered predtop_slo_breach_total
	// counter, and breach-triggered incident capture. Both zero leaves SLO
	// tracking off entirely.
	SLOP99 time.Duration
	SLOErr float64
	// IncidentDir, when set, receives one evidence bundle per ok→breach
	// transition: a flight-recorder dump plus a 250 ms CPU profile, referenced
	// from the {"event":"slo_breach"} record emitted through Sink. Empty still
	// emits the slo_breach record, just without file artifacts.
	IncidentDir string
	// ShutdownTimeout bounds the graceful drain on Close (default 5s).
	ShutdownTimeout time.Duration

	// sloNow injects the SLO tracker's clock (tests only; default time.Now).
	sloNow func() time.Time
}

// predKey identifies one memoized prediction. The registry generation is part
// of the key, so a hot reload can never serve a latency from a retired model
// even if an entry survives the reload-time purge.
type predKey struct {
	model  string
	gen    uint64
	bench  string
	layers int
	lo, hi int
}

// benchKey identifies one lazily-built benchmark model + encoder pair.
type benchKey struct {
	name   string
	layers int
}

type benchEntry struct {
	model    *models.Model
	enc      *predictor.Encoder
	segments int
}

// Server is the predictor-as-a-service daemon: an HTTP server multiplexing
// /predict, /models, /reload, /statusz and /metrics next to the debug
// endpoints (/healthz, /debug/flightrecorder, /debug/pprof/) on one listener.
type Server struct {
	cfg      Config
	registry *Registry
	cache    *lru.Cache[predKey, float64]
	benches  *lru.Cache[benchKey, *benchEntry]
	obsSrv   *obs.Server
	trace    *obs.TraceContext

	slo       *sloTracker
	incidents *incidentCapture
	sampler   *accessSampler
	start     time.Time

	hits   *Counter
	misses *Counter
	// batches and batched both count forwards (see BatchesMetric).
	batches, batched *Counter

	// slots holds one token per forward in flight. A memo miss runs its
	// forward on the handler goroutine that asked, after taking a slot, so
	// concurrent forwards (and their pooled tapes) never outnumber the cores;
	// waiting counts the misses still queued for one.
	slots   chan struct{}
	waiting *gauge
	// forward runs one miss's prediction. Always Trained.PredictEncoded
	// outside tests, which replace it to slow, block, or count forwards.
	forward func(predictor.Trained, *stage.Encoded) float64

	// reloadMu serializes Reload so the registry swap and the memo purge are
	// one unit — a lookup between them sees either the old generation with
	// old entries or the new generation with an empty memo.
	reloadMu sync.Mutex

	closeOnce sync.Once
	closeErr  error
}

// Start loads the model registry and begins serving. It fails fast when the
// model directory is unreadable or holds a corrupt model — a daemon that
// cannot answer its first query should not come up.
func Start(ctx context.Context, cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 4096
	}
	if cfg.Trace == nil {
		cfg.Trace = obs.NewTraceContext(1, "serve")
	}
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(cfg.ModelDir, cfg.Metrics),
		cache:    lru.New[predKey, float64](cfg.CacheSize),
		benches:  lru.New[benchKey, *benchEntry](16),
		trace:    cfg.Trace,
		start:    time.Now(),
		hits:     cfg.Metrics.Counter(CacheHitsMetric),
		misses:   cfg.Metrics.Counter(CacheMissesMetric),
		batches:  cfg.Metrics.Counter(BatchesMetric),
		batched:  cfg.Metrics.Counter(BatchedRequestsMetric),
		slots:    make(chan struct{}, runtime.GOMAXPROCS(0)),
		waiting:  cfg.Metrics.gauge(QueueDepthMetric),
		forward:  predictor.Trained.PredictEncoded,
	}
	if cfg.SLOP99 > 0 || cfg.SLOErr > 0 {
		s.incidents = newIncidentCapture(cfg.IncidentDir, cfg.Flight, cfg.Sink, cfg.Log)
		s.slo = newSLOTracker(cfg, s.incidents.onBreach)
	}
	s.sampler = newAccessSampler(cfg.SLOP99)
	if _, _, err := s.registry.Load(); err != nil {
		return nil, err
	}
	cfg.Metrics.setRunInfo(cfg.Trace)
	srv, err := obs.StartServer(ctx, obs.ServerConfig{
		Addr:   cfg.Addr,
		Flight: cfg.Flight,
		Handlers: map[string]http.Handler{
			"/predict": s.instrument("/predict", s.handlePredict),
			"/models":  s.instrument("/models", s.handleModels),
			"/reload":  s.instrument("/reload", s.handleReload),
			"/statusz": s.instrument("/statusz", s.handleStatusz),
			"/metrics": http.HandlerFunc(s.handleMetrics),
		},
		ShutdownTimeout: cfg.ShutdownTimeout,
	})
	if err != nil {
		return nil, err
	}
	s.obsSrv = srv
	if cfg.Log != nil {
		cfg.Log.Printf("serving %d model(s) from %s on %s", s.registry.Len(), cfg.ModelDir, srv.Addr())
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.obsSrv.Addr() }

// URL returns the server's base URL.
func (s *Server) URL() string { return s.obsSrv.URL() }

// Registry returns the model registry (for tests and the SIGHUP handler).
func (s *Server) Registry() *Registry { return s.registry }

// Reload re-scans the model directory and purges the latency memo. On error
// the old snapshot keeps serving and the memo is left intact.
func (s *Server) Reload() (gen uint64, n int, err error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	gen, n, err = s.registry.Load()
	if err != nil {
		return gen, n, err
	}
	s.cache.Purge()
	if s.cfg.Log != nil {
		s.cfg.Log.Printf("reloaded: generation %d, %d model(s)", gen, n)
	}
	if s.cfg.Flight.Enabled() {
		s.cfg.Flight.Note("reload", fmt.Sprintf("generation %d, %d model(s)", gen, n))
	}
	return gen, n, nil
}

// Close shuts the HTTP listener down, draining in-flight requests (a forward
// already running still answers its client), then waits for any in-flight
// incident capture, so a breach right before shutdown still gets its
// evidence bundle. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.obsSrv.Close()
		s.incidents.drain()
	})
	return s.closeErr
}

// instrument wraps an endpoint handler with the per-endpoint latency
// histogram and the per-endpoint, per-status request counter. The handler
// returns the status code it wrote and fills ri with the request's span and
// phase evidence; the wrapper turns those into an SLO observation (/predict
// only — listings and reloads have no latency objective) and a sampled
// access-log record.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request, *reqInfo) int) http.Handler {
	hist := s.cfg.Metrics.histogramWith(RequestSecondsMetric, requestSecondsBuckets,
		label{Key: "endpoint", Value: endpoint})
	isPredict := endpoint == "/predict"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var ri reqInfo
		code := h(w, r, &ri)
		dur := time.Since(start)
		hist.Observe(dur.Seconds())
		s.cfg.Metrics.counterWith(RequestsMetric,
			label{Key: "endpoint", Value: endpoint},
			label{Key: "code", Value: fmt.Sprint(code)}).Inc()
		if isPredict {
			trace, span := ri.span.RawIDs()
			s.slo.Observe(dur.Seconds(), code >= 500, trace, span)
			s.logAccess(&ri, code, start, dur)
		}
	})
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
	return code
}

// writeErr writes an ErrorResponse.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) int {
	return writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// benchFor resolves (and memoizes) the benchmark model + encoder for a
// request's bench/layers pair. Building GPT-3's 26-segment graph is cheap but
// not free; with the LRU every steady-state request hits the cache.
func (s *Server) benchFor(cfg models.Config) *benchEntry {
	be, _ := s.benches.GetOrCompute(benchKey{name: cfg.Name, layers: cfg.Layers}, func() *benchEntry {
		m := models.Build(cfg)
		return &benchEntry{model: m, enc: predictor.NewEncoder(m, true), segments: m.NumSegments()}
	})
	return be
}

// handlePredict answers POST /predict in one straight line: decode, resolve
// the model, memo-check, and on a miss encode the stage, take a forward slot
// and run the forward on this goroutine. The request span is created before
// validation so even rejected requests carry trace ids through the access
// log and the SLO worst list.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, ri *reqInfo) int {
	span := s.trace.Child("predict")
	ri.span = span
	if r.Method != http.MethodPost {
		return writeErr(w, http.StatusMethodNotAllowed, "POST only")
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxRequestBytes+1))
	if err != nil {
		return writeErr(w, http.StatusBadRequest, "reading body: %v", err)
	}
	if len(body) > MaxRequestBytes {
		return writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", MaxRequestBytes)
	}
	req, err := DecodePredictRequest(body)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, "%v", err)
	}
	entry, gen, ok := s.registry.Lookup(req.Model)
	if !ok {
		if s.registry.Len() == 0 {
			return writeErr(w, http.StatusServiceUnavailable, "no models loaded")
		}
		return writeErr(w, http.StatusNotFound, "unknown model %q", req.Model)
	}
	benchCfg, _ := models.ByName(req.Bench, req.Layers)
	be := s.benchFor(benchCfg)
	if req.Hi > be.segments {
		return writeErr(w, http.StatusBadRequest,
			"hi %d exceeds %s's %d segments (layers=%d)", req.Hi, benchCfg.Name, be.segments, benchCfg.Layers)
	}

	ri.model, ri.bench, ri.lo, ri.hi = entry.Key, benchCfg.Name, req.Lo, req.Hi
	key := predKey{model: entry.Key, gen: gen, bench: benchCfg.Name,
		layers: benchCfg.Layers, lo: req.Lo, hi: req.Hi}
	latency, cached := s.cache.Get(key)
	if cached {
		s.hits.Inc()
		ri.cached = true
	} else {
		s.misses.Inc()
		enc := be.enc.Encode(stage.Spec{Lo: req.Lo, Hi: req.Hi})
		ri.tWait = time.Now()
		s.waiting.Add(1)
		select {
		case s.slots <- struct{}{}:
			s.waiting.Add(-1)
		case <-r.Context().Done():
			// The client gave up (or the server is past its drain deadline)
			// while every slot was busy: it costs no forward.
			s.waiting.Add(-1)
			return writeErr(w, statusClientClosedRequest, "gave up waiting for a forward slot: %v", r.Context().Err())
		}
		ri.tFwd0 = time.Now()
		latency = func() float64 {
			// Deferred: net/http recovers a panicking handler, and the slot
			// must not stay taken when it does.
			defer func() { <-s.slots }()
			return s.forward(entry.Trained, enc)
		}()
		ri.tFwd1 = time.Now()
		s.batches.Inc()
		s.batched.Inc()
		s.cache.Put(key, latency)
		// A forward is worth a breadcrumb; a hit leaves none (its record is
		// the sampled access line), so the hit path formats nothing.
		if s.cfg.Flight.Enabled() {
			s.cfg.Flight.Note("predict", fmt.Sprintf("%s %s[%d,%d) -> %.6gs",
				entry.Key, benchCfg.Name, req.Lo, req.Hi, latency))
		}
	}

	resp := PredictResponse{
		TraceID: span.TraceID(), SpanID: span.SpanID(),
		Model: entry.Key, Family: entry.Family,
		Bench: benchCfg.Name, Layers: benchCfg.Layers,
		Lo: req.Lo, Hi: req.Hi,
		LatencySeconds: latency, LatencyMS: latency * 1e3,
		Cached: cached, Generation: gen,
	}
	return writeJSON(w, http.StatusOK, resp)
}

// modelInfo is one /models listing row.
type modelInfo struct {
	Key    string `json:"key"`
	Family string `json:"family"`
	Path   string `json:"path"`
}

// handleModels answers GET /models with the resident registry snapshot.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request, _ *reqInfo) int {
	if r.Method != http.MethodGet {
		return writeErr(w, http.StatusMethodNotAllowed, "GET only")
	}
	entries, gen := s.registry.Snapshot()
	infos := make([]modelInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, modelInfo{Key: e.Key, Family: e.Family, Path: e.Path})
	}
	return writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen, "models": infos,
	})
}

// handleReload answers POST /reload by re-scanning the model directory.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request, _ *reqInfo) int {
	if r.Method != http.MethodPost {
		return writeErr(w, http.StatusMethodNotAllowed, "POST only")
	}
	gen, n, err := s.Reload()
	if err != nil {
		return writeErr(w, http.StatusInternalServerError, "%v", err)
	}
	return writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen, "models": n,
	})
}

// handleMetrics answers GET /metrics with the registry in the Prometheus text
// exposition format. A daemon without a registry answers 404: an empty 200
// would read as "nothing happened".
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Metrics == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Metrics.writeProm(w)
}
