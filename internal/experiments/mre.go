package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
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
	// Specs is the number of stage specs the grid profiled, Classes the
	// number of distinct stage classes among them, and Tests[f][s] the
	// held-out sample count of the cells at fraction index f, scenario
	// index s (every model of a cell is tested on the same samples).
	Specs, Classes int
	Tests          [][]int
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
// One Labeler and one pruned Encoder serve every scenario, so each stage
// class is labeled and encoded once per table, and the grid's (fraction,
// scenario, model) cells train concurrently (GOMAXPROCS bound).
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
	scenarios := cluster.Scenarios(platform)
	classes := map[models.StageClass]bool{}
	for _, sp := range specs {
		classes[mdl.StageClass(sp.Lo, sp.Hi)] = true
	}

	t := &MRETable{
		Benchmark: bench.Name,
		Platform:  platform,
		Scenarios: scenarios,
		Fractions: p.Fractions,
		MRE:       make([][][]float64, len(p.Fractions)),
		Specs:     len(specs),
		Classes:   len(classes),
		Tests:     make([][]int, len(p.Fractions)),
	}
	for fi := range p.Fractions {
		t.MRE[fi] = make([][]float64, len(scenarios))
		t.Tests[fi] = make([]int, len(scenarios))
		for si := range scenarios {
			t.MRE[fi][si] = make([]float64, len(ModelNames))
		}
	}

	profSpan := p.Obs.Prof.Start("profile")
	lab := predictor.NewLabeler(mdl, sim.DefaultProfiler())
	datasets := lab.Datasets(predictor.NewEncoder(mdl, true), specs, scenarios)
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
		train, val, test := stage.Split(splitRng, len(ds.Samples), float64(p.Fractions[c.fi])/100, valFrac)
		cfg := p.Train
		cfg.Prof, cfg.Flight = p.Obs.Prof, p.Obs.Flight
		cfg.Seed = p.Seed + int64(c.fi*1000+c.si*10+c.mi)
		model := p.newModel(ModelNames[c.mi], cfg.Seed)
		trained, res := predictor.Train(model, ds, train, val, cfg)
		a := trained.Evaluate(ds, test)
		attribs[ci] = a
		t.MRE[c.fi][c.si][c.mi] = a.MREPct
		if c.mi == 0 { // the models of a cell share its split: one writer
			t.Tests[c.fi][c.si] = len(test)
		}
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
// A line above the grid gives its spec and stage-class counts, a last column
// each row's held-out sample count (a range where scenarios differ), and a
// line below it the DAG Transformer's share of winning cells.
func (t *MRETable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MRE (%%) — %s benchmark on %s\n", t.Benchmark, t.Platform.Name)
	fmt.Fprintf(&b, "%d stage specs in %d stage classes; n = held-out samples per cell\n", t.Specs, t.Classes)
	fmt.Fprintf(&b, "%-8s", "# Samp")
	for _, sc := range t.Scenarios {
		fmt.Fprintf(&b, "| Mesh %d Conf %d %9s", sc.Mesh.Index, sc.Config.Index, "")
	}
	fmt.Fprintf(&b, "| %5s\n", "n")
	fmt.Fprintf(&b, "%-8s", "")
	for range t.Scenarios {
		fmt.Fprintf(&b, "| %7s %7s %7s ", "GCN", "GAT", "Tran")
	}
	b.WriteString("|\n")
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
		lo, hi := slices.Min(t.Tests[fi]), slices.Max(t.Tests[fi])
		n := strconv.Itoa(lo)
		if hi != lo {
			n += "-" + strconv.Itoa(hi)
		}
		fmt.Fprintf(&b, "| %5s\n", n)
	}
	fmt.Fprintf(&b, "DAG Transformer wins %.1f%% of cells\n", t.WinRate(2)*100)
	return b.String()
}

// Metrics returns every number Render prints, keyed for a run manifest's
// canonical metrics. The table is <bench>_p<platform> (bench lower-cased), a
// cell <table>_f<fraction>_m<mesh>c<conf>; the keys are win_rate_<table> (in
// percent), specs_<table>, classes_<table>, tests_<cell> and, per ModelNames
// entry, mre_<cell>_<model> (model lower-cased).
func (t *MRETable) Metrics() map[string]float64 {
	tab := fmt.Sprintf("%s_p%d", strings.ToLower(t.Benchmark), t.Platform.Index)
	m := map[string]float64{
		"win_rate_" + tab: t.WinRate(2) * 100,
		"specs_" + tab:    float64(t.Specs),
		"classes_" + tab:  float64(t.Classes),
	}
	for fi, f := range t.Fractions {
		for si, sc := range t.Scenarios {
			cell := fmt.Sprintf("%s_f%d_m%dc%d", tab, f, sc.Mesh.Index, sc.Config.Index)
			m["tests_"+cell] = float64(t.Tests[fi][si])
			for mi, name := range ModelNames {
				m["mre_"+cell+"_"+strings.ToLower(name)] = t.MRE[fi][si][mi]
			}
		}
	}
	return m
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
// scenario — at the largest training fraction of one run's tables, which
// share their fractions.
func RenderFig3(tables []*MRETable) string {
	if len(tables) == 0 {
		return ""
	}
	fi := len(tables[0].Fractions) - 1
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3: stage-latency prediction error, GCN vs DAG Transformer (%d%% training samples)\n", tables[0].Fractions[fi])
	fmt.Fprintf(&b, "%-40s %10s %10s\n", "configuration", "GCN", "Tran")
	for _, t := range tables {
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
