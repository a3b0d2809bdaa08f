package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"predtop/internal/cluster"
	"predtop/internal/graphnn"
	"predtop/internal/models"
	"predtop/internal/parallel"
	"predtop/internal/predictor"
	"predtop/internal/sim"
	"predtop/internal/stage"
)

// ModelNames lists the compared predictors in table column order.
var ModelNames = []string{"GCN", "GAT", "Tran"}

// MRETable is one of the paper's MRE grids: Table V(a/b) for Platform 1 or
// Table VI(a/b) for Platform 2.
type MRETable struct {
	Benchmark string
	Platform  cluster.Platform
	Scenarios []cluster.Scenario
	Fractions []int
	// MRE[f][s][m] is the test MRE (%) at fraction index f, scenario index
	// s, model index m (ModelNames order).
	MRE [][][]float64
	// Attribution maps each model family (ModelNames entry) to its
	// error-attribution snapshot merged across every (fraction, scenario)
	// cell of the grid, in grid order — so the table reports not just how
	// wrong each predictor is per cell but where the residuals live
	// (op type, node count, stage depth).
	Attribution map[string]*predictor.Attribution
}

// newModel instantiates one of the three predictors (a ModelNames entry) at
// the preset's sizes.
func (p Preset) newModel(name string, seed int64) graphnn.Model {
	m, err := graphnn.ModelSpec{Arch: name, Tran: p.Tran, GCN: p.GCN, GAT: p.GAT}.Build(rand.New(rand.NewSource(seed)))
	if err != nil {
		panic("experiments: " + err.Error()) // ModelNames are Build's own names
	}
	return m
}

// RunMRETable reproduces one MRE grid: for every (mesh, configuration)
// scenario of the platform and every training fraction, it trains GCN, GAT,
// and DAG Transformer predictors on profiled stage latencies and measures
// test MRE (Eqn 5). log (may be nil) receives progress lines.
//
// Scenario datasets are profiled concurrently and the grid's
// (fraction, scenario, model) cells train concurrently (GOMAXPROCS bound).
// Every cell derives its model/split RNGs from (p.Seed, cell indices) and
// gradient reduction is order-fixed, so the grid is reproducible — and
// bitwise identical — at any GOMAXPROCS. Progress lines are buffered per
// cell and emitted in the serial grid order.
func RunMRETable(p Preset, bench Benchmark, platform cluster.Platform, log io.Writer) *MRETable {
	if log == nil {
		log = io.Discard
	}
	mdl := models.Build(bench.Config)
	mdl.Prof = p.Obs.Prof
	rng := rand.New(rand.NewSource(p.Seed))
	specs := predictor.CollectStages(mdl, rng, bench.Stages, bench.MaxLen)
	enc := predictor.NewEncoder(mdl, true)
	prof := sim.DefaultProfiler()
	scenarios := cluster.Scenarios(platform)

	t := &MRETable{
		Benchmark: bench.Name,
		Platform:  platform,
		Scenarios: scenarios,
		Fractions: p.Fractions,
		MRE:       make([][][]float64, len(p.Fractions)),
	}
	for fi := range p.Fractions {
		t.MRE[fi] = make([][]float64, len(scenarios))
		for si := range scenarios {
			t.MRE[fi][si] = make([]float64, len(ModelNames))
		}
	}

	// Profiling is seeded per (stage, scenario), so concurrent dataset
	// construction yields the exact samples a serial sweep would.
	profSpan := p.Obs.Prof.Start("profile")
	datasets := make([]*predictor.Dataset, len(scenarios))
	parallel.For(len(scenarios), func(si int) {
		datasets[si] = predictor.BuildDataset(enc, specs, scenarios[si], prof)
	})
	profSpan.End()
	for si, sc := range scenarios {
		fmt.Fprintf(log, "[%s %s %v] %d stages profiled\n", bench.Name, platform.Name, sc, len(datasets[si].Samples))
	}

	type cell struct{ si, fi, mi int }
	var cells []cell
	for si := range scenarios {
		for fi := range p.Fractions {
			for mi := range ModelNames {
				cells = append(cells, cell{si, fi, mi})
			}
		}
	}
	gridSpan := p.Obs.Prof.Start("train cells")
	logs := make([]string, len(cells))
	// Per-cell attribution, merged per family in the serial grid order after
	// the parallel loop, never inside it: float merging is order-sensitive.
	attribs := make([]*predictor.Attribution, len(cells))
	parallel.For(len(cells), func(ci int) {
		c := cells[ci]
		ds := datasets[c.si]
		splitRng := rand.New(rand.NewSource(p.Seed*1000 + int64(c.fi*100+c.si)))
		train, val, test := stage.Split(splitRng, len(ds.Samples), float64(p.Fractions[c.fi])/100, p.ValFrac)
		cfg := p.Train
		cfg.Prof, cfg.Flight = p.Obs.Prof, p.Obs.Flight
		cfg.Seed = p.Seed + int64(c.fi*1000+c.si*10+c.mi)
		model := p.newModel(ModelNames[c.mi], cfg.Seed)
		trained, res := predictor.Train(model, ds, train, val, cfg)
		a := trained.Evaluate(ds, test)
		attribs[ci] = a
		t.MRE[c.fi][c.si][c.mi] = a.MREPct
		logs[ci] = fmt.Sprintf("  [%s %v] frac %d%% %s: MRE %.2f%% (%d epochs, %.1fs)\n",
			bench.Name, scenarios[c.si], p.Fractions[c.fi], ModelNames[c.mi], a.MREPct, res.EpochsRun, res.WallSeconds)
	})
	gridSpan.End()
	parts := map[string][]*predictor.Attribution{}
	for ci, c := range cells {
		parts[ModelNames[c.mi]] = append(parts[ModelNames[c.mi]], attribs[ci])
	}
	t.Attribution = map[string]*predictor.Attribution{}
	for _, name := range ModelNames {
		t.Attribution[name] = predictor.MergeAttributions(parts[name]...)
	}
	for _, line := range logs {
		io.WriteString(log, line)
	}
	return t
}

// Render prints the grid in the layout of Tables V/VI: one row per training
// fraction (descending, as in the paper), one column group per scenario,
// each group holding GCN / GAT / Tran, with the per-group winner starred.
func (t *MRETable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MRE (%%) — %s benchmark on %s\n", t.Benchmark, t.Platform.Name)
	fmt.Fprintf(&b, "%-8s", "# Samp")
	for _, sc := range t.Scenarios {
		fmt.Fprintf(&b, "| Mesh %d Conf %d %9s", sc.Mesh.Index, sc.Config.Index, "")
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-8s", "")
	for range t.Scenarios {
		fmt.Fprintf(&b, "| %7s %7s %7s ", "GCN", "GAT", "Tran")
	}
	b.WriteString("\n")
	for fi := len(t.Fractions) - 1; fi >= 0; fi-- {
		fmt.Fprintf(&b, "%-8s", fmt.Sprintf("%d%%", t.Fractions[fi]))
		for si := range t.Scenarios {
			row := t.MRE[fi][si]
			best := 0
			for mi := range row {
				if row[mi] < row[best] {
					best = mi
				}
			}
			b.WriteString("|")
			for mi, v := range row {
				mark := " "
				if mi == best {
					mark = "*"
				}
				fmt.Fprintf(&b, " %6.2f%s", v, mark)
			}
			b.WriteString(" ")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// WinRate returns the fraction of (fraction, scenario) cells in which model
// mi achieves the lowest MRE (the paper reports 73.6% for GPT-3 and 91.7%
// for MoE in favor of the DAG Transformer).
func (t *MRETable) WinRate(mi int) float64 {
	cells, wins := 0, 0
	for fi := range t.Fractions {
		for si := range t.Scenarios {
			row := t.MRE[fi][si]
			best := 0
			for m := range row {
				if row[m] < row[best] {
					best = m
				}
			}
			cells++
			if best == mi {
				wins++
			}
		}
	}
	if cells == 0 {
		return 0
	}
	return float64(wins) / float64(cells)
}

// Aggregate is a Fig-8/Fig-9 data point: the mean and standard deviation of
// a model's MREs across a platform's scenarios at one training fraction.
type Aggregate struct {
	Benchmark string
	Platform  string
	Model     string
	Fraction  int
	Mean, Std float64
}

// Aggregates reduces tables to the Fig 8 (mean) and Fig 9 (std-dev) series.
func Aggregates(tables []*MRETable) []Aggregate {
	var out []Aggregate
	for _, t := range tables {
		for fi, frac := range t.Fractions {
			for mi, name := range ModelNames {
				var vals []float64
				for si := range t.Scenarios {
					vals = append(vals, t.MRE[fi][si][mi])
				}
				mean, std := meanStd(vals)
				out = append(out, Aggregate{
					Benchmark: t.Benchmark, Platform: t.Platform.Name,
					Model: name, Fraction: frac, Mean: mean, Std: std,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Platform != b.Platform {
			return a.Platform < b.Platform
		}
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		return a.Fraction < b.Fraction
	})
	return out
}

// RenderAggregates prints Fig 8 (mean) or Fig 9 (std) series as rows of
// fraction → value per (benchmark, platform, model).
func RenderAggregates(aggs []Aggregate, std bool) string {
	metric := "mean"
	fig := "Fig 8: average of MREs across scenarios"
	if std {
		metric = "std"
		fig = "Fig 9: standard deviation of MREs across scenarios"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", fig)
	type key struct{ bench, plat, model string }
	series := map[key]map[int]float64{}
	fracSet := map[int]bool{}
	for _, a := range aggs {
		k := key{a.Benchmark, a.Platform, a.Model}
		if series[k] == nil {
			series[k] = map[int]float64{}
		}
		v := a.Mean
		if std {
			v = a.Std
		}
		series[k][a.Fraction] = v
		fracSet[a.Fraction] = true
	}
	var fracs []int
	for f := range fracSet {
		fracs = append(fracs, f)
	}
	sort.Ints(fracs)
	var keys []key
	for k := range series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].bench != keys[j].bench {
			return keys[i].bench < keys[j].bench
		}
		if keys[i].plat != keys[j].plat {
			return keys[i].plat < keys[j].plat
		}
		return keys[i].model < keys[j].model
	})
	fmt.Fprintf(&b, "%-34s", "series \\ fraction")
	for _, f := range fracs {
		fmt.Fprintf(&b, "%8d%%", f)
	}
	b.WriteString("\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%-34s", fmt.Sprintf("%s %s %s (%s)", k.bench, k.plat, k.model, metric))
		for _, f := range fracs {
			fmt.Fprintf(&b, "%9.2f", series[k][f])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFig3 prints the Fig-3 comparison — GCN vs DAG Transformer MRE per
// scenario at the given training fraction — from an already-computed table.
func RenderFig3(tables []*MRETable, fraction int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3: stage-latency prediction error, GCN vs DAG Transformer (%d%% training samples)\n", fraction)
	fmt.Fprintf(&b, "%-40s %10s %10s\n", "configuration", "GCN", "Tran")
	for _, t := range tables {
		fi := -1
		for i, f := range t.Fractions {
			if f == fraction {
				fi = i
			}
		}
		// Fall back to the largest fraction the run actually evaluated.
		if fi < 0 && len(t.Fractions) > 0 {
			fi = len(t.Fractions) - 1
		}
		if fi < 0 {
			continue
		}
		for si, sc := range t.Scenarios {
			fmt.Fprintf(&b, "%-40s %9.2f%% %9.2f%%\n",
				fmt.Sprintf("%s %s (%d,%d)", t.Benchmark, t.Platform.Name, sc.Mesh.Index, sc.Config.Index),
				t.MRE[fi][si][0], t.MRE[fi][si][2])
		}
	}
	return b.String()
}

func meanStd(vals []float64) (float64, float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	varr := 0.0
	for _, v := range vals {
		varr += (v - mean) * (v - mean)
	}
	return mean, math.Sqrt(varr / float64(len(vals)))
}
