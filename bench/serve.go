package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"predtop"
)

// serveClients is how many closed-loop clients drive the daemon. Its callers
// are planners that wait for each reply, and the host has two cores: more
// connections from one process would measure the generator's own queueing.
const serveClients = 2

// serveSlices is how many equal slices the timed phase is run in. Rate,
// median and tail latency are computed per slice and the run reports the median slice, so that a second
// in which the shared host stalls the process moves one slice and not the
// run's p99. A slice of a 15 s run still holds over a thousand requests of
// the slowest workload, enough for a p99 with ten samples beyond it.
const serveSlices = 10

// serveKey is one request of the key universe: its body in the /predict wire
// format and the bits of the latency the daemon must answer with.
type serveKey struct {
	body []byte
	want uint64
}

// phaseCount is what the generator reports for every phase.
type phaseCount struct{ sent, succeeded, failed int }

func (p *phaseCount) add(o phaseCount) {
	p.sent, p.succeeded, p.failed = p.sent+o.sent, p.succeeded+o.succeeded, p.failed+o.failed
}

func (p phaseCount) line(name string) string {
	return fmt.Sprintf("phase %-8s sent=%d succeeded=%d failed=%d", name, p.sent, p.succeeded, p.failed)
}

// requestStream is the order in which one client asks for keys: indices into
// the key universe drawn uniformly from the seed. The daemon receives only
// the requests; the generator and its seed stay in the benchmark.
func requestStream(seed int64, client, keys, n int) []uint16 {
	rng := rand.New(rand.NewSource(seed*serveClients + int64(client)))
	s := make([]uint16, n)
	for i := range s {
		s[i] = uint16(rng.Intn(keys))
	}
	return s
}

// requestBodies renders every stage of up to three segments of each model as
// a /predict body.
func requestBodies(ms []*predtop.Model, layers int) ([][]byte, []*predtop.Model, []predtop.StageSpec, error) {
	var bodies [][]byte
	var owners []*predtop.Model
	var specs []predtop.StageSpec
	for _, m := range ms {
		for _, sp := range predtop.AllStages(m, 3) {
			b, err := json.Marshal(predtop.ServePredictRequest{Bench: m.Config.Name, Layers: layers, Lo: sp.Lo, Hi: sp.Hi})
			if err != nil {
				return nil, nil, nil, err
			}
			bodies, owners, specs = append(bodies, b), append(owners, m), append(specs, sp)
		}
	}
	return bodies, owners, specs, nil
}

// httpClient is one keep-alive connection.
type httpClient struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newHTTPClient(url string) *httpClient {
	return &httpClient{url: url, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// post sends body and returns the status and the payload, which is valid
// until the next call.
func (c *httpClient) post(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// reqObs is one completed request as the client saw it.
type reqObs struct {
	lat    time.Duration
	cached bool
}

// loadgen is the benchmark's load generator: serveClients closed-loop
// clients, each on its own connection with its own request stream.
type loadgen struct {
	url     string
	keys    []serveKey
	verify  bool // compare latency_s with the key's reference
	clients []*httpClient
	streams [][]uint16
	cursor  []int
}

func newLoadgen(url string, keys []serveKey, verify bool, seed int64, streamLen int) *loadgen {
	g := &loadgen{url: url, keys: keys, verify: verify, cursor: make([]int, serveClients)}
	for c := 0; c < serveClients; c++ {
		g.clients = append(g.clients, newHTTPClient(url))
		g.streams = append(g.streams, requestStream(seed, c, len(keys), streamLen))
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.hc.CloseIdleConnections()
	}
}

// touchAll sends one request per key, in order, on the first connection.
func (g *loadgen) touchAll() phaseCount {
	order := make([]uint16, len(g.keys))
	for i := range order {
		order[i] = uint16(i)
	}
	one := &loadgen{url: g.url, keys: g.keys, verify: g.verify, clients: g.clients[:1],
		streams: [][]uint16{order}, cursor: []int{0}}
	return one.run(time.Hour, len(order), nil, 0, 0).count
}

// phase is one closed-loop run of all clients.
type phase struct {
	wall  time.Duration
	obs   [][]reqObs // per client
	count phaseCount
}

func (p *phase) completed() int { return p.count.sent }

// run drives every client until the deadline or, when maxReq > 0, for that
// many requests each. A request fails on a transport error, a status other
// than 200, or an answer whose latency_s is not bit-equal to the reference.
// With a recorder, each request records its build, round trip and check.
func (g *loadgen) run(until time.Duration, maxReq int, rec *recorder, parent, id int) *phase {
	p := &phase{obs: make([][]reqObs, len(g.clients))}
	counts := make([]phaseCount, len(g.clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range g.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, stream := g.clients[c], g.streams[c]
			// Room for 40k requests a second per client, so that the timed
			// loop does not stop to grow the slice.
			room := maxReq
			if room == 0 {
				room = int(until.Seconds()*40000) + 1024
			}
			obs := make([]reqObs, 0, room)
			for i := 0; (maxReq == 0 || i < maxReq) && time.Since(t0) < until; i++ {
				key := &g.keys[stream[g.cursor[c]%len(stream)]]
				g.cursor[c]++

				whole := rec.begin("request", parent, id)
				s := rec.begin("client.build", whole, id)
				req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(key.body))
				rec.end(s)
				if err != nil {
					counts[c].sent, counts[c].failed = counts[c].sent+1, counts[c].failed+1
					rec.end(whole)
					continue
				}
				req.Header.Set("Content-Type", "application/json")

				s = rec.begin("serve.roundtrip", whole, id)
				sent := time.Now()
				status, payload, err := cl.post(req)
				lat := time.Since(sent)
				rec.end(s)

				s = rec.begin("client.verify", whole, id)
				ok, cached := err == nil && status == http.StatusOK, false
				if ok && g.verify {
					var resp predtop.ServePredictResponse
					ok = json.Unmarshal(payload, &resp) == nil && math.Float64bits(resp.LatencySeconds) == key.want
					cached = resp.Cached
				}
				rec.end(s)
				rec.end(whole)

				counts[c].sent++
				if ok {
					counts[c].succeeded++
				} else {
					counts[c].failed++
				}
				obs = append(obs, reqObs{lat: lat, cached: cached})
			}
			p.obs[c] = obs
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	for _, n := range counts {
		p.count.add(n)
	}
	return p
}

// latencies returns the phase's request latencies in seconds, ascending,
// optionally only those the daemon computed rather than read from its memo.
func (p *phase) latencies(missesOnly bool) []float64 {
	var out []float64
	for _, obs := range p.obs {
		for _, o := range obs {
			if !missesOnly || !o.cached {
				out = append(out, o.lat.Seconds())
			}
		}
	}
	sort.Float64s(out)
	return out
}

// cached counts the answers the daemon read from its memo.
func (p *phase) cached() int {
	hits := 0
	for _, obs := range p.obs {
		for _, o := range obs {
			if o.cached {
				hits++
			}
		}
	}
	return hits
}

// cycle is the mean time one client spends per request, everything included:
// building, the round trip, checking, and any span recording around them.
func (p *phase) cycle() float64 {
	if p.completed() == 0 {
		return 0
	}
	return p.wall.Seconds() * float64(len(p.obs)) / float64(p.completed())
}

// sliceLine prints one statistic's slices: lowest, median, highest.
func sliceLine(name string, xs []float64, scale float64) string {
	asc := sorted(xs)
	return fmt.Sprintf("slices n=%d %-9s lowest=%.6g median=%.6g highest=%.6g", len(asc), name, asc[0]*scale, median(asc)*scale, asc[len(asc)-1]*scale)
}

// serveState is a daemon that is set up, verified and warm.
type serveState struct {
	daemon *predtop.ServeDaemon
	gen    *loadgen
	dir    string
	cache  int
	// start is how long StartServe took; fwd the mean time of one reference
	// forward (B=1) over the key universe, the daemon's work on a miss.
	start time.Duration
	fwd   float64
	warm  phaseCount
	// digest identifies the reference table, for comparing two runs.
	digest string
}

func (s *serveState) close() {
	s.gen.close()
	s.daemon.Close()
}

// startDaemon starts a daemon on dir as predtop-serve does by default, with
// or without a metrics registry.
func startDaemon(dir string, cacheSize int, metrics bool) (*predtop.ServeDaemon, error) {
	cfg := predtop.ServeConfig{ModelDir: dir, CacheSize: cacheSize}
	if metrics {
		cfg.Metrics = predtop.NewMetricsRegistry()
	}
	return predtop.StartServe(context.Background(), cfg)
}

// setupServe trains and saves the served model, computes the reference
// answer of every key with the loaded model, starts the daemon and sends one
// warm-up request per key, so that the daemon's stage encodings are all
// cached and (when the memo is large enough) so is every answer.
func setupServe(cfg runCfg, workload string, cacheSize int) (*serveState, error) {
	layers, epochs := 12, 2
	if cfg.smoke {
		layers, epochs = 4, 1
	}
	dir := filepath.Join(cfg.outDir, "model-"+workload)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ds := gpt3Dataset(layers, 3)
	idx := make([]int, len(ds.Samples))
	for i := range idx {
		idx[i] = i
	}
	net := predtop.NewDAGTransformer(rand.New(rand.NewSource(cfg.seed)), paperTran)
	trained, _ := predtop.Train(net, ds, idx, nil, predtop.TrainConfig{Epochs: epochs, BatchSize: 8, Seed: cfg.seed})
	path := filepath.Join(dir, "tran.predtop")
	if err := predtop.SaveTrained(path, trained); err != nil {
		return nil, err
	}
	loaded, err := predtop.LoadTrained(path)
	if err != nil {
		return nil, err
	}

	bodies, owners, specs, err := requestBodies([]*predtop.Model{gpt3(layers), moe(layers)}, layers)
	if err != nil {
		return nil, err
	}
	encoders := map[*predtop.Model]*predtop.Encoder{}
	keys := make([]serveKey, len(bodies))
	digest := fnv.New64a()
	fwdTotal := time.Duration(0)
	for i, body := range bodies {
		enc := encoders[owners[i]]
		if enc == nil {
			enc = predtop.NewEncoder(owners[i], true)
			encoders[owners[i]] = enc
		}
		e := enc.Encode(specs[i])
		t0 := time.Now()
		want := loaded.PredictEncodedBatch(list(e), 1)[0]
		fwdTotal += time.Since(t0)
		keys[i] = serveKey{body: body, want: math.Float64bits(want)}
		digest.Write([]byte(bits(want)))
	}

	st := &serveState{dir: dir, cache: cacheSize, fwd: fwdTotal.Seconds() / float64(len(keys)),
		digest: fmt.Sprintf("%d keys %x", len(keys), digest.Sum64())}
	t0 := time.Now()
	st.daemon, err = startDaemon(dir, cacheSize, true)
	if err != nil {
		return nil, err
	}
	st.start = time.Since(t0)
	// A stream of a million draws per client outlasts any run of either
	// workload at the rates this host reaches; a longer run wraps around.
	streamLen := 1 << 20
	if cfg.smoke {
		streamLen = 1 << 10
	}
	st.gen = newLoadgen(st.daemon.URL()+"/predict", keys, true, cfg.seed, streamLen)

	st.warm = st.gen.touchAll()
	return st, nil
}

// runServe runs a serving workload: repeated set-up, then either the timed
// closed-loop phase (untraced) or paired short phases with and without spans
// and with and without the daemon's metrics registry (traced).
func runServe(cfg runCfg, name string, cacheSize int) (*result, error) {
	st, setupS, err := repeatSetup(cfg,
		func() (*serveState, error) { return setupServe(cfg, name, cacheSize) },
		func(s *serveState) { s.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := &result{workload: name, metrics: map[string]sample{}, exact: st.digest}
	add := func(label string, c phaseCount) {
		res.attempted += c.sent
		res.failed += c.failed
		res.phases = append(res.phases, c.line(label))
	}
	add("warm-up", st.warm)
	maxReq := 0
	if cfg.smoke {
		maxReq = 200 / serveClients
	}

	if !cfg.trace {
		slices := serveSlices
		if cfg.smoke {
			slices = 1
		}
		each := time.Duration(cfg.seconds / float64(slices) * float64(time.Second))
		var rates, p50s, tails []float64
		var count phaseCount
		smallest := math.MaxInt
		for i := 0; i < slices; i++ {
			p := st.gen.run(each, maxReq, nil, 0, 0)
			asc := p.latencies(false)
			_, t := tail(asc)
			rates, p50s, tails = append(rates, float64(len(asc))/p.wall.Seconds()), append(p50s, median(asc)), append(tails, t)
			smallest = min(smallest, len(asc))
			count.add(p.count)
		}
		add("timed", count)
		res.phases = append(res.phases, sliceLine("rate_1/s", rates, 1), sliceLine("p50_ms", p50s, 1e3), sliceLine("tail_ms", tails, 1e3))
		res.metrics["setup_s"] = setupS
		res.metrics["throughput_per_s"] = sample{median(rates), smallest}
		res.metrics["op_p50_ms"] = sample{median(p50s) * 1e3, smallest}
		res.metrics["op_tail_ms"] = sample{median(tails) * 1e3, smallest}
		return res, nil
	}

	// Traced run. Each pair is one phase without spans and one with.
	each := time.Duration(cfg.seconds / 8 * float64(time.Second))
	rec := newRecorder()
	var bare, traced []float64
	var lats, misses []float64
	hits, total := 0, 0
	before := readMem()
	for i := 0; i < 2; i++ {
		b := st.gen.run(each, maxReq, nil, 0, 0)
		add("untraced", b.count)
		root := rec.begin("rep", 0, i+1)
		t := st.gen.run(each, maxReq, rec, root, i+1)
		rec.end(root)
		add("traced", t.count)
		bare, traced = append(bare, b.cycle()), append(traced, t.cycle())
		lats, misses = append(lats, b.latencies(false)...), append(misses, b.latencies(true)...)
		hits, total = hits+b.cached(), total+b.completed()
	}
	putRuntime(res.metrics, before, readMem(), res.attempted-st.warm.sent)
	res.metrics["trace.overhead_share"] = sample{(median(traced) - median(bare)) / median(bare), len(traced)}
	spanMetrics(res.metrics, rec.spans)

	floor, err := httpFloor(cfg)
	if err != nil {
		return nil, err
	}
	res.metrics["serve.http_floor_us"] = floor
	res.metrics["serve.p50_over_floor_us"] = sample{median(lats)*1e6 - floor.Value, len(lats)}
	if len(misses) >= tailMinBeyond {
		res.metrics["serve.miss_over_fwd_us"] = sample{(median(misses) - st.fwd) * 1e6, len(misses)}
	}
	if total > 0 {
		res.metrics["serve.memo_hit_share"] = sample{float64(hits) / float64(total), total}
	}
	res.metrics["serve.start_ms"] = sample{st.start.Seconds() * 1e3, 1}
	res.metrics["serve.client_us"] = sample{clientSelfUS(rec.spans), len(rec.spans)}
	if err := scrapeBatches(res.metrics, st.daemon.URL()+"/metrics"); err != nil {
		return nil, err
	}
	overhead, err := obsOverhead(cfg, st, maxReq)
	if err != nil {
		return nil, err
	}
	res.metrics["obs.serve_overhead_share"] = overhead
	return res, writeTrace(cfg, rec, name)
}

// clientSelfUS is the median time per request the client spends outside the
// round trip: building the request and checking the answer.
func clientSelfUS(spans []span) float64 {
	perReq := map[int]float64{}
	for _, s := range spans {
		if s.Name == "client.build" || s.Name == "client.verify" {
			perReq[s.Parent] += float64(s.End-s.Start) / 1e3
		}
	}
	us := make([]float64, 0, len(perReq))
	for _, v := range perReq {
		us = append(us, v)
	}
	return median(us)
}

// scrapeBatches reads the coalescer's counters from the daemon's /metrics
// page: how many batched forwards ran, and the mean batch. A daemon that no
// longer exports them leaves both at 0; only an unreadable page is an error.
func scrapeBatches(out map[string]sample, url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	value := func(name string) float64 {
		for _, line := range strings.Split(string(page), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == name {
				v, _ := strconv.ParseFloat(f[1], 64)
				return v
			}
		}
		return 0
	}
	batches, requests := value("predtop_serve_batches_total"), value("predtop_serve_batched_requests_total")
	out["serve.batches"] = sample{batches, 1}
	if batches > 0 {
		out["serve.mean_batch"] = sample{requests / batches, int(batches)}
	}
	return nil
}

// obsOverhead measures what the daemon's metrics registry costs a request:
// a second daemon on the same model runs without one, and short phases
// alternate between the two. The share is of the instrumented cycle time.
func obsOverhead(cfg runCfg, st *serveState, maxReq int) (sample, error) {
	plain, err := startDaemon(st.dir, st.cache, false)
	if err != nil {
		return sample{}, err
	}
	defer plain.Close()
	other := newLoadgen(plain.URL()+"/predict", st.gen.keys, true, cfg.seed+1, len(st.gen.streams[0]))
	defer other.close()
	other.touchAll()

	each := time.Duration(cfg.seconds / 15 * float64(time.Second))
	var with, without []float64
	for i := 0; i < 2; i++ {
		with = append(with, st.gen.run(each, maxReq, nil, 0, 0).cycle())
		without = append(without, other.run(each, maxReq, nil, 0, 0).cycle())
	}
	w := median(with)
	return sample{(w - median(without)) / w, len(with)}, nil
}

// httpFloor is what this machine and this client can do at best: the median
// round trip of the same generator against a net/http handler that answers
// 200 with an empty body.
func httpFloor(cfg runCfg) (sample, error) {
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return sample{}, err
	}
	go srv.Serve(ln)
	defer srv.Close()
	body, _ := json.Marshal(predtop.ServePredictRequest{Bench: "GPT-3", Lo: 1, Hi: 2})
	g := newLoadgen("http://"+ln.Addr().String()+"/", []serveKey{{body: body}}, false, cfg.seed, 1)
	defer g.close()
	n := 4000
	if cfg.smoke {
		n = 50
	}
	g.run(time.Hour, n/10, nil, 0, 0)
	lats := g.run(time.Hour, n, nil, 0, 0).latencies(false)
	return sample{median(lats) * 1e6, len(lats)}, nil
}
