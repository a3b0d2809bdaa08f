package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"predtop"
	"predtop/internal/intraop"
	"predtop/internal/lru"
	"predtop/internal/optim"
	"predtop/internal/serve"
	"predtop/internal/sim"
	"predtop/internal/tensor"
)

// The ladder calls one public function of each layer directly, on inputs that
// change one variable at a time: stage length (len1, len8 segments), node
// count (n100 is a GPT-3 stage of two decoder segments, 124 nodes; n400 one
// of seven, 429 nodes) or batch size, never two together. Every traced run
// climbs the same ladder whatever its workload, so a per-layer number can be
// compared across the five traced runs of one commit as well as across
// commits.

// ladderSamples is how many timed batches stand behind a ladder reading.
const ladderSamples = 15

// timeCalls times fn in batches of per calls, after one discarded batch, and
// returns the time of one call in the median batch in seconds, with the number
// of batches.
func timeCalls(cfg runCfg, per int, fn func()) (float64, int) {
	batches := ladderSamples
	if cfg.smoke {
		batches, per = 2, 1
	}
	var times []float64
	for b := -1; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		if b >= 0 {
			times = append(times, time.Since(t0).Seconds()/float64(per))
		}
	}
	return median(times), batches
}

// countAllocs returns heap objects and bytes allocated per call of fn.
func countAllocs(calls int, fn func()) (objects, mb float64) {
	fn()
	before := readMem()
	for i := 0; i < calls; i++ {
		fn()
	}
	after := readMem()
	return float64(after.mallocs-before.mallocs) / float64(calls), float64(after.bytes-before.bytes) / 1e6 / float64(calls)
}

// list builds a slice without naming its element type: the facade hands out
// encoded stage graphs but gives their type no name of its own.
func list[T any](xs ...T) []T { return xs }

// cycle fills a batch of the given size by repeating pool in order.
func cycle[T any](pool []T, size int) []T {
	b := make([]T, size)
	for i := range b {
		b[i] = pool[i%len(pool)]
	}
	return b
}

// ladder measures every rung and returns its metrics.
func ladder(cfg runCfg) (map[string]sample, error) {
	out := map[string]sample{}
	us := func(name string, per int, fn func()) float64 {
		s, n := timeCalls(cfg, per, fn)
		out[name] = sample{s * 1e6, n}
		return s
	}
	ladderLabeling(cfg, out, us)
	ladderStage(cfg, out, us)
	ladderTensor(cfg, out)
	if err := ladderPredictor(cfg, out, us); err != nil {
		return nil, err
	}
	ladderSmall(cfg, out)
	return out, nil
}

// ladderLabeling climbs models → intraop → sim: what one miss of the
// profiled planner pays, per stage length, for GPT-3 at 24 layers under the
// first Platform-2 scenario.
func ladderLabeling(cfg runCfg, out map[string]sample, us func(string, int, func()) float64) {
	m := gpt3(24)
	sc := predtop.Scenarios(predtop.Platform2())[0]
	prof := predtop.DefaultProfiler()
	for _, l := range []struct {
		name string
		len  int
	}{{"len1", 1}, {"len8", 8}} {
		lo, hi := 2, 2+l.len
		us("models.stagegraph_us."+l.name, 20, func() { m.StageGraph(lo, hi, true) })
		g := m.StageGraph(lo, hi, true)
		var res intraop.Result
		us("intraop.optimize_us."+l.name, 5, func() { res = intraop.Optimize(g, sc) })
		if l.len != 8 {
			continue
		}
		objects, _ := countAllocs(10, func() { m.StageGraph(lo, hi, true) })
		out["models.stagegraph_allocs.len8"] = sample{objects, 10}
		objects, _ = countAllocs(10, func() { intraop.Optimize(g, sc) })
		out["intraop.optimize_allocs.len8"] = sample{objects, 10}
		ex := sim.NewExec(sc)
		us("sim.fitsmemory_us.len8", 50, func() { ex.FitsMemory(g) })
		us("sim.profilecost_us.len8", 50, func() { prof.ProfileCostSeconds(g, ex, res.Latency) })
	}
}

// nodeClasses are the two graph sizes of the ladder, as decoder segments of
// a 12-layer GPT-3 starting at segment lo.
var nodeClasses = []struct {
	name string
	segs int
}{{"n100", 2}, {"n400", 7}}

// ladderStage encodes with a fresh Encoder each time, so that the stage
// graph, the pruning and the O(n²) masks are all built, as on a planner miss.
func ladderStage(cfg runCfg, out map[string]sample, us func(string, int, func()) float64) {
	m := gpt3(12)
	for _, c := range nodeClasses {
		sp := predtop.StageSpec{Lo: 1, Hi: 1 + c.segs}
		encode := func() { predtop.NewEncoder(m, true).Encode(sp) }
		us("stage.encode_us."+c.name, 5, encode)
		if c.name == "n400" {
			_, mb := countAllocs(5, encode)
			out["stage.encode_mb.n400"] = sample{mb, 5}
		}
	}
}

// ladderTensor reports kernel rates against what the machine can do. The
// operation and byte counts are computed from the shapes (2n³ floating-point
// operations for an n×n product; n² values read and n² written for a
// softmax), not measured by a hardware counter.
func ladderTensor(cfg runCfg, out map[string]sample) {
	rng := rand.New(rand.NewSource(1))
	square := func(n int) *tensor.Tensor {
		t := tensor.New(n, n)
		for i := range t.Data {
			t.Data[i] = rng.NormFloat64()
		}
		return t
	}
	gflops := func(name string, n int, mul func(dst, a, b *tensor.Tensor)) {
		a, b, dst := square(n), square(n), tensor.New(n, n)
		s, batches := timeCalls(cfg, max(1, (1<<25)/(n*n*n)), func() { mul(dst, a, b) })
		out[name] = sample{2 * float64(n*n*n) / s / 1e9, batches}
	}
	gflops("tensor.matmul_gflops.n64", 64, tensor.MatMulInto)
	gflops("tensor.matmul_gflops.n128", 128, tensor.MatMulInto)
	gflops("tensor.matmul_gflops.n256", 256, tensor.MatMulInto)
	gflops("tensor.matmulbt_gflops.n128", 128, tensor.MatMulBTInto)
	src, dst := square(256), tensor.New(256, 256)
	s, batches := timeCalls(cfg, 16, func() { tensor.SoftmaxRowsInto(dst, src, nil) })
	out["tensor.softmax_gbps.n256"] = sample{16 * 256 * 256 / s / 1e9, batches}
}

// ladderPredictor climbs predictor (graphnn, ag and nn underneath) and optim:
// training steps and forwards per architecture on homogeneous n100 graphs,
// then the DAG Transformer by node count and by batch size.
func ladderPredictor(cfg runCfg, out map[string]sample, us func(string, int, func()) float64) error {
	m := gpt3(12)
	enc := predtop.NewEncoder(m, true)
	scenario := predtop.Scenarios(predtop.Platform1())[0]
	// Ten stages of two decoder segments: equal node counts, distinct data.
	var same []predtop.StageSpec
	for lo := 1; lo <= 10; lo++ {
		same = append(same, predtop.StageSpec{Lo: lo, Hi: lo + 2})
	}
	if cfg.smoke {
		same = same[:3]
	}
	ds := predtop.BuildDataset(enc, same, scenario, predtop.DefaultProfiler())
	idx := make([]int, len(ds.Samples))
	graphs := list(ds.Samples[0].Encoded)[:0]
	for i := range idx {
		idx[i], graphs = i, append(graphs, ds.Samples[i].Encoded)
	}
	one := graphs[:1]
	tc := predtop.TrainConfig{Epochs: 1, BatchSize: 8, Seed: 1}

	trained := make([]predtop.Trained, len(archNames))
	for k, name := range archNames {
		epoch, n := timeCalls(cfg, 1, func() {
			trained[k], _ = predtop.Train(newArch(k, rand.New(rand.NewSource(int64(k)))), ds, idx, nil, tc)
		})
		step := epoch / float64(len(idx))
		out["predictor.train_step_us."+name] = sample{step * 1e6, n}
		fwd := us("predictor.fwd_graph_us."+name+".n100", 5, func() { trained[k].PredictEncodedBatch(one, 1) })
		out["predictor.train_over_fwd."+name] = sample{step / fwd, n}
	}
	tran := trained[0]
	serialCfg := tc
	serialCfg.Workers = 1
	serial, n := timeCalls(cfg, 1, func() {
		predtop.Train(newArch(0, rand.New(rand.NewSource(0))), ds, idx, nil, serialCfg)
	})
	out["parallel.speedup.train"] = sample{serial / float64(len(idx)) / (out["predictor.train_step_us.tran"].Value / 1e6), n}

	big := enc.Encode(predtop.StageSpec{Lo: 1, Hi: 1 + nodeClasses[1].segs})
	us("predictor.fwd_graph_us.tran.n400", 2, func() { tran.PredictEncodedBatch(list(big), 1) })

	for _, c := range []struct {
		name string
		size int
	}{{"B8", 8}, {"B64", 64}} {
		b := cycle(graphs, c.size)
		s, n := timeCalls(cfg, 1, func() { tran.PredictEncodedBatch(b, 0) })
		out["predictor.batch_graph_us.tran."+c.name] = sample{s / float64(c.size) * 1e6, n}
	}
	// The ragged batch mixes every stage of one to three segments, as a
	// training minibatch and a coalesced serving batch do; pad waste is the
	// share of the padded stack's rows that hold no node.
	ragged := graphs[:0:0]
	nodes, widest := 0, 0
	for _, sp := range predtop.AllStages(m, 3) {
		ragged = append(ragged, enc.Encode(sp))
	}
	rb := cycle(ragged, 64)
	for _, e := range rb {
		nodes, widest = nodes+e.N(), max(widest, e.N())
	}
	s, n := timeCalls(cfg, 1, func() { tran.PredictEncodedBatch(rb, 0) })
	out["predictor.batch_ragged_graph_us.tran.B64"] = sample{s / 64 * 1e6, n}
	out["predictor.batch_pad_waste.B64"] = sample{1 - float64(nodes)/float64(64*widest), 1}

	s, n = timeCalls(cfg, 1, func() { tran.MRE(ds, idx) })
	out["predictor.mre_eval_graph_us"] = sample{s / float64(len(idx)) * 1e6, n}

	dir := filepath.Join(cfg.outDir, "ladder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "tran.predtop")
	var ioErr error
	save, n := timeCalls(cfg, 1, func() {
		if err := predtop.SaveTrained(path, tran); err != nil {
			ioErr = err
		}
	})
	load, _ := timeCalls(cfg, 1, func() {
		if _, err := predtop.LoadTrained(path); err != nil {
			ioErr = err
		}
	})
	out["predictor.save_ms"], out["predictor.load_ms"] = sample{save * 1e3, n}, sample{load * 1e3, n}

	// An Adam step over the DAG Transformer's parameters with the gradients
	// the last training step left (zeros): the optimizer's own arithmetic.
	adam := optim.NewAdam(newArch(0, rand.New(rand.NewSource(0))).Params())
	us("optim.adam_step_us.tran", 20, func() { adam.Step(1e-3) })
	return ioErr
}

// ladderSmall times the operations that cost nanoseconds, a thousand a batch:
// decoding a /predict body, the memo's read and evicting write, and the two
// metric handles the request path touches.
func ladderSmall(cfg runCfg, out map[string]sample) {
	const per = 1000
	ns := func(name string, fn func(i int)) {
		i := 0
		s, n := timeCalls(cfg, per, func() { fn(i); i++ })
		out[name] = sample{s * 1e9, n}
	}
	bodies, _, _, _ := requestBodies([]*predtop.Model{gpt3(12)}, 12)
	i := 0
	s, n := timeCalls(cfg, per, func() { serve.DecodePredictRequest(bodies[i%len(bodies)]); i++ })
	out["serve.decode_us"] = sample{s * 1e6, n}

	cache := lru.New[int, float64](4096)
	for k := 0; k < 4096; k++ {
		cache.Put(k, float64(k))
	}
	ns("lru.get_hit_ns", func(i int) { cache.Get(i & 4095) })
	ns("lru.put_evict_ns", func(i int) { cache.Put(4096+i, 0) })

	reg := predtop.NewMetricsRegistry()
	counter, hist := reg.Counter("bench_ladder_total"), reg.Histogram("bench_ladder_seconds", nil)
	ns("obs.counter_inc_ns", func(int) { counter.Inc() })
	ns("obs.histogram_observe_ns", func(i int) { hist.Observe(float64(i&1023) * 1e-4) })
}
