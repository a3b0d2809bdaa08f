package main

// The tables in this file are the benchmark's contract: BENCHMARK.json at the
// repository root is generated from them (`-manifest`), and a test fails when
// the two disagree.

// runSeconds is how long one run measures. The acceptance driver makes 114
// runs inside 3420 s with two builds, so a run has about 29 s for set-up,
// warm-up and measurement together. With 15 s of measurement the five
// workloads average 19 s a run, and 27 s on a plateau of the shared host that
// slows everything by half, where a rep-based workload's nine reps stretch.
const runSeconds = 15

// minReps is the fewest timed repetitions a rep-based workload reports a
// median from, however short the run: single reps spike to twice the median
// on a shared host, medians of ten agree within a few percent.
const minReps = 9

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"train", "Trains DAG-Transformer, GCN and GAT on 39 GPT-3 stages: backward, optimizer and fused-minibatch forward do the work; labeling, planner and serve do none."},
	{"plan_profiled", "Alpa-Full planning of GPT-3/24 and MoE/20 on Platform 2: models, intraop, sim and planner only, no neural-network code, so numeric-stack changes must not move it."},
	{"plan_predicted", "PredTOP planning of GPT-3/10: sample profiling, six trainings, per-item encode and forward under the DP; every layer except serve works, so any gain shows in its share."},
	{"serve_hot", "Daemon with 2 closed-loop clients on a working set that fits the memo: HTTP, JSON, lru and obs only, the forward does nothing."},
	{"serve_cold", "Same daemon and keys with an 8-entry memo: misses, writes and evictions, and a B=1 forward per request through the coalescer."},
}

// metricDef describes one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// Every workload reports every end-to-end metric, so their meaning is stated
// per unit of work: one training rep (three architectures, four epochs), one
// planning rep (provider construction, search and evaluation of each model),
// or one /predict request.
//
// The bounds are the contract's widest. Ten runs of one commit on the shared
// 2-vCPU host this was sized on spread (quartile distance over median) by 2
// to 10 % while the host was quiet, by 13 to 23 % when it changed speed during
// the ten, and two sets a quarter of an hour apart differed by up to 39 %;
// README.md has the tables. A bound under three times the quiet spread would
// reject runs of unchanged code.
var endToEnd = []metricDef{
	// Work completed per second at the median unit time: training
	// sample-steps, plans, or requests (median over ten time slices).
	{"throughput_per_s", "1/s", higher, 0.25},
	// Median time of one unit of work: a rep, or a request seen by the client.
	{"op_p50_ms", "ms", lower, 0.25},
	// The highest percentile, up to p99, that has ten samples beyond it; a
	// nine-rep workload has none above the median and reports the median.
	{"op_tail_ms", "ms", lower, 0.25},
	// Median of repeated set-ups: model build, dataset profiling, training
	// and saving the served model, daemon start and warm-up pass.
	{"setup_s", "s", lower, 0.25},
}

const (
	lower  = "lower"
	higher = "higher"
)

// perLayer lists the metrics of the traced run and the layer ladder, grouped
// by the package they measure. Metrics derived from a workload's spans read 0
// on a workload that never enters that layer; README.md has the table of
// which end-to-end metric each one should move, and on which workload.
var perLayer = []metricDef{
	// models, intraop, sim: labeling a stage (ladder, GPT-3/24 on Platform 2).
	{"models.stagegraph_us.len1", "us", lower, 0},
	{"models.stagegraph_us.len8", "us", lower, 0},
	{"models.stagegraph_allocs.len8", "count", lower, 0},
	{"intraop.optimize_us.len1", "us", lower, 0},
	{"intraop.optimize_us.len8", "us", lower, 0},
	{"intraop.optimize_allocs.len8", "count", lower, 0},
	{"sim.fitsmemory_us.len8", "us", lower, 0},
	{"sim.profilecost_us.len8", "us", lower, 0},
	// stage: encoding with a fresh Encoder, so the O(n²) masks are built.
	{"stage.encode_us.n100", "us", lower, 0},
	{"stage.encode_us.n400", "us", lower, 0},
	{"stage.encode_mb.n400", "MB", lower, 0},
	// tensor: rates computed from shapes (2n³ operations, 16n² bytes).
	{"tensor.matmul_gflops.n64", "GFLOP/s", higher, 0},
	{"tensor.matmul_gflops.n128", "GFLOP/s", higher, 0},
	{"tensor.matmul_gflops.n256", "GFLOP/s", higher, 0},
	{"tensor.matmulbt_gflops.n128", "GFLOP/s", higher, 0},
	{"tensor.softmax_gbps.n256", "GB/s", higher, 0},
	// predictor, graphnn (ag and nn underneath), optim.
	{"predictor.fwd_graph_us.tran.n100", "us", lower, 0},
	{"predictor.fwd_graph_us.tran.n400", "us", lower, 0},
	{"predictor.fwd_graph_us.gcn.n100", "us", lower, 0},
	{"predictor.fwd_graph_us.gat.n100", "us", lower, 0},
	{"predictor.batch_graph_us.tran.B8", "us", lower, 0},
	{"predictor.batch_graph_us.tran.B64", "us", lower, 0},
	{"predictor.batch_ragged_graph_us.tran.B64", "us", lower, 0},
	{"predictor.batch_pad_waste.B64", "share", lower, 0},
	{"predictor.train_step_us.tran", "us", lower, 0},
	{"predictor.train_step_us.gcn", "us", lower, 0},
	{"predictor.train_step_us.gat", "us", lower, 0},
	{"predictor.train_over_fwd.tran", "ratio", lower, 0},
	{"predictor.train_over_fwd.gcn", "ratio", lower, 0},
	{"predictor.train_over_fwd.gat", "ratio", lower, 0},
	{"predictor.mre_eval_graph_us", "us", lower, 0},
	{"predictor.save_ms", "ms", lower, 0},
	{"predictor.load_ms", "ms", lower, 0},
	{"optim.adam_step_us.tran", "us", lower, 0},
	{"parallel.speedup.train", "ratio", higher, 0},
	// planner: from spans around OptimizePlan and a wrapped LatencyFn.
	{"planner.provider_build_s", "s", lower, 0},
	{"planner.lookups_per_plan", "count", lower, 0},
	{"planner.lookup_miss_us", "us", lower, 0},
	{"planner.optimize_self_ms", "ms", lower, 0},
	{"planner.evaluate_ms", "ms", lower, 0},
	{"planner.provider_share", "share", lower, 0},
	{"planner.search_share", "share", lower, 0},
	// serve, lru, obs.
	{"serve.http_floor_us", "us", lower, 0},
	{"serve.decode_us", "us", lower, 0},
	{"serve.start_ms", "ms", lower, 0},
	{"serve.p50_over_floor_us", "us", lower, 0},
	{"serve.miss_over_fwd_us", "us", lower, 0},
	{"serve.memo_hit_share", "share", higher, 0},
	{"serve.mean_batch", "count", higher, 0},
	{"serve.batches", "count", lower, 0},
	{"serve.client_us", "us", lower, 0},
	{"lru.get_hit_ns", "ns", lower, 0},
	{"lru.put_evict_ns", "ns", lower, 0},
	{"obs.counter_inc_ns", "ns", lower, 0},
	{"obs.histogram_observe_ns", "ns", lower, 0},
	{"obs.serve_overhead_share", "share", lower, 0},
	// runtime and the trace itself, per unit of the workload's work.
	{"runtime.allocs_per_op", "count", lower, 0},
	{"runtime.alloc_mb_per_op", "MB", lower, 0},
	{"runtime.gc_pause_ms", "ms", lower, 0},
	{"runtime.peak_rss_mb", "MB", lower, 0},
	{"trace.overhead_share", "share", lower, 0},
	{"trace.coverage_share", "share", higher, 0},
	// What the workload computed. Exact per seed, but different from seed to
	// seed, so they cannot carry a bound across the driver's seeds; within a
	// run a rep that computes anything else is a failed operation.
	{"predictor.test_mre_pct", "%", lower, 0},
	{"planner.iter_latency_s", "s", lower, 0},
	{"planner.sim_cost_s", "s", lower, 0},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []manifestE2E `json:"end_to_end"`
	PerLayer   []manifestPL  `json:"per_layer"`
}

type manifestE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestPL struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestE2E{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestPL{d.Name, d.Unit, d.Better})
	}
	return m
}
