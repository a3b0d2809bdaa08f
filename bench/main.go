// Command bench is the repository's benchmark: five workloads that each
// stress different layers, end-to-end metrics measured with tracing off, and
// a traced run that adds spans recorded around the calls into each layer and
// a ladder of direct calls to the layers' public functions. README.md says
// why each workload exists and which numbers each layer should move.
//
// The acceptance driver runs one workload per process:
//
//	bash bench/run.sh --workload train --seed 7 --seconds 15 --trace 0
//
// and reads the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. Without --workload every workload
// runs in turn; -selfcheck runs two full sets and compares them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// runLimit is how long one workload may take, set-up and ladder included.
const runLimit = 170 * time.Second

// runners maps each workload of workloadDefs to the code that runs it.
var runners = map[string]func(runCfg) (*result, error){
	"train":          func(c runCfg) (*result, error) { return runReps(c, "train", setupTrain) },
	"plan_profiled":  func(c runCfg) (*result, error) { return runReps(c, "plan_profiled", setupPlanProfiled) },
	"plan_predicted": func(c runCfg) (*result, error) { return runReps(c, "plan_predicted", setupPlanPredicted) },
	// serve_hot keeps the daemon's default memo of 4096 entries, which holds
	// the whole key universe; serve_cold's eight entries hold a tenth of it.
	"serve_hot":  func(c runCfg) (*result, error) { return runServe(c, "serve_hot", 0) },
	"serve_cold": func(c runCfg) (*result, error) { return runServe(c, "serve_cold", 8) },
}

// runWorkload runs one workload and, in a traced run, the layer ladder, and
// checks that every metric of the run's table was measured or is known to be
// zero on this workload.
func runWorkload(cfg runCfg, name string) (*result, error) {
	run, ok := runners[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	// The acceptance driver allows a run 180 s; a run that hangs (a request
	// that never returns) must end as a failure, not be killed from outside.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s did not finish within %v\n", name, runLimit)
		os.Exit(2)
	})
	defer watchdog.Stop()
	res, err := run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		rungs, err := ladder(cfg)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		for k, v := range rungs {
			res.metrics[k] = v
		}
	}
	// A per-layer metric the workload never enters stays unset and reads 0 with
	// no samples: plan_profiled has no serve spans, train no lookups.
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", name, d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", name, d.Name, v.Value)
		}
	}
	return res, nil
}

// print writes the human-readable block of one run.
func (r *result) print(cfg runCfg) {
	mode, defs := "tracing off, end-to-end metrics", endToEnd
	if cfg.trace {
		mode, defs = "traced run and layer ladder, per-layer metrics", perLayer
	}
	fmt.Printf("== %s (seed %d, %s)\n", r.workload, cfg.seed, mode)
	for _, p := range r.phases {
		fmt.Println("  " + p)
	}
	for _, d := range defs {
		v := r.metrics[d.Name]
		line := fmt.Sprintf("  %-42s %14.6g %-8s n=%-7d %s is better", d.Name, v.Value, d.Unit, v.N, d.Better)
		if !cfg.trace {
			line += fmt.Sprintf(", bound %.0f%%", d.Bound*100)
		}
		fmt.Println(line)
	}
	fmt.Printf("  operations attempted=%d failed=%d failed_share=%g\n", r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
}

// jsonLine is the contract's result object.
func (r *result) jsonLine(cfg runCfg) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{r.metrics[d.Name].Value, d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	return string(line)
}

// printEnv states what the numbers were measured on.
func printEnv() {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q kernel-tune=library default (never applied)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu)
}

// selfcheck runs every workload twice with one seed and compares the two
// sets: an end-to-end metric may not be worse in the second by more than its
// bound, and the outputs must be identical.
func selfcheck(cfg runCfg) bool {
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, w := range workloadDefs {
			res, err := runWorkload(cfg, w.Name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return false
			}
			fmt.Printf("set %d: ", i+1)
			res.print(cfg)
			sets[i][w.Name] = res
		}
	}
	ok := true
	fmt.Println("== selfcheck: second set against first")
	for _, w := range workloadDefs {
		a, b := sets[0][w.Name], sets[1][w.Name]
		for _, d := range endToEnd {
			va, vb := a.metrics[d.Name].Value, b.metrics[d.Name].Value
			worse := (vb - va) / va
			if d.Better == higher {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict, ok = "BREACH", false
			}
			fmt.Printf("  %-15s %-18s %12.6g -> %12.6g  worse by %+6.2f%% of bound %.0f%%  %s\n",
				w.Name, d.Name, va, vb, worse*100, d.Bound*100, verdict)
		}
		if a.exact != b.exact || a.failed+b.failed > 0 {
			ok = false
			fmt.Printf("  %-15s outputs differ or operations failed (failed %d and %d)\n", w.Name, a.failed, b.failed)
		} else {
			fmt.Printf("  %-15s outputs identical, no failed operation\n", w.Name)
		}
	}
	return ok
}

func main() {
	var cfg runCfg
	workload := flag.String("workload", "", "workload to run (default: all, in turn)")
	trace := flag.Int("trace", 0, "1 records spans, climbs the layer ladder and prints the per-layer metrics")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long one workload measures")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for traces and the served model")
	flag.BoolVar(&cfg.smoke, "smoke", false, "one rep and 200 requests per workload, for tests")
	check := flag.Bool("selfcheck", false, "run two full sets and compare them against the bounds")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	cfg.trace = *trace != 0

	if *printManifest {
		out, _ := json.MarshalIndent(buildManifest(), "", "  ")
		fmt.Println(string(out))
		return
	}
	printEnv()
	if *check {
		if !selfcheck(cfg) {
			os.Exit(1)
		}
		return
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		res, err := runWorkload(cfg, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		res.print(cfg)
		fmt.Println(res.jsonLine(cfg))
	}
}
