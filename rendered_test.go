package predtop

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/experiments"
	"predtop/internal/planner"
	"predtop/internal/runledger"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's rendered blocks from results/*.json")

// renderedBlock is one generated block of EXPERIMENTS.md: the output of the
// one committed manifest whose tool and config it names, rebuilt from that
// manifest alone and rendered by the tool's own render functions.
type renderedBlock struct {
	name   string // marker name in EXPERIMENTS.md
	tool   string
	args   string            // the command line that records the manifest
	config map[string]string // its canonical config, exactly
	render func(t *testing.T, m *runledger.Manifest) string
}

var renderedBlocks = []renderedBlock{
	{"tables-gpt3", "predtop-eval", "-preset paper -bench GPT-3",
		map[string]string{"preset": "paper", "bench": "gpt-3", "platform": "0", "ablate": "false", "tables": "true"},
		renderTables},
	{"tables-moe", "predtop-eval", "-preset paperlite -bench MoE",
		map[string]string{"preset": "paperlite", "bench": "moe", "platform": "0", "ablate": "false", "tables": "true"},
		renderTables},
	{"fig10", "predtop-plan", "-preset paperlite",
		map[string]string{"preset": "paperlite", "bench": "all"},
		renderFig10},
	{"fig2", "predtop-eval", "-preset paper -fig 2",
		map[string]string{"preset": "paper", "bench": "all", "fig": "2"},
		renderFig2},
	{"ablation", "predtop-eval", "-preset paperlite -ablate -tables=false -bench GPT-3",
		map[string]string{"preset": "paperlite", "bench": "gpt-3", "ablate": "true", "tables": "false"},
		renderAblation},
}

// TestExperimentsRendered checks that every generated block of EXPERIMENTS.md
// is the render of its pinned manifest in results/, that each manifest's file
// name is its run id (so a hand-edited manifest fails), and that every
// manifest there feeds a block. -update rewrites the blocks from the
// manifests.
func TestExperimentsRendered(t *testing.T) {
	paths, err := filepath.Glob("results/*.json")
	if err != nil {
		t.Fatal(err)
	}
	mans := map[string]*runledger.Manifest{}
	for _, path := range paths {
		m, err := runledger.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		id, err := m.RunID()
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(path) != id+".json" {
			t.Errorf("%s: canonical section hashes to run id %s; a recorded manifest is never edited", path, id)
		}
		mans[path] = m
	}

	docBytes, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(docBytes)
	used := map[string]bool{}
	for _, b := range renderedBlocks {
		var found []string
		for path, m := range mans {
			if m.Canonical.Tool == b.tool && maps.Equal(m.Canonical.Config, b.config) {
				found = append(found, path)
			}
		}
		if len(found) != 1 {
			t.Errorf("block %s: %d manifests in results/ record %s %s, want 1: %v", b.name, len(found), b.tool, b.args, found)
			continue
		}
		used[found[0]] = true
		m := mans[found[0]]
		id, _ := m.RunID()
		s := m.Session
		got := fmt.Sprintf("```\n$ %s %s -runledger results\nrun %s on host %s, %s, %.1f s wall\n\n%s\n```\n",
			b.tool, b.args, id, s.Host, s.GoVersion, s.WallSeconds, strings.TrimRight(b.render(t, m), "\n"))

		begin, end := "<!-- begin rendered: "+b.name+" -->\n", "<!-- end rendered: "+b.name+" -->"
		i, j := strings.Index(doc, begin), strings.Index(doc, end)
		if i < 0 || j < i {
			t.Errorf("EXPERIMENTS.md lacks the markers of block %s", b.name)
			continue
		}
		i += len(begin)
		if want := doc[i:j]; got != want {
			if *update {
				doc = doc[:i] + got + doc[j:]
				continue
			}
			t.Errorf("EXPERIMENTS.md block %s differs from the render of %s (go test -run TestExperimentsRendered -update rewrites it):\n--- render ---\n%s--- EXPERIMENTS.md ---\n%s",
				b.name, found[0], got, want)
		}
	}
	for path := range mans {
		if !used[path] {
			t.Errorf("%s feeds no block of EXPERIMENTS.md", path)
		}
	}
	if *update && doc != string(docBytes) {
		if err := os.WriteFile("EXPERIMENTS.md", []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRenderedRoundTrip runs a small grid, Fig 2 and a quick plan run,
// records them into a ledger the way predtop-eval and predtop-plan do,
// reloads the manifest and checks that the rebuilt render is byte-identical
// to the render of the live results.
func TestRenderedRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a grid and plans")
	}
	p := experiments.Quick()
	p.GPTStages, p.Train.Epochs, p.PlanTrain.Epochs = 12, 2, 2
	bench := p.Benchmarks()[0]
	tab := experiments.RunMRETable(p, bench, cluster.Platform1(), nil)
	var fig2 []experiments.Fig2Result
	for _, b := range p.Benchmarks() {
		fig2 = append(fig2, experiments.RunFig2(p, b, nil))
	}
	reports, _ := experiments.RunFig10(p, bench, planner.Perturbation{}, nil)

	man := runledger.New("predtop-eval", p.Seed)
	for _, ms := range []map[string]float64{tab.Metrics(), fig2[0].Summary().Metrics(), fig2[1].Summary().Metrics()} {
		for k, v := range ms {
			man.RecordMetric(k, v)
		}
	}
	for _, r := range reports {
		man.RecordPlan(r)
	}
	entry, err := runledger.Open(t.TempDir()).Put(man)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := runledger.Load(entry.Path)
	if err != nil {
		t.Fatal(err)
	}

	tables := rebuildTables(t, loaded)
	if len(tables) != 1 {
		t.Fatalf("rebuilt %d tables, want 1", len(tables))
	}
	if got, want := tables[0].Render(), tab.Render(); got != want {
		t.Errorf("table render after the round trip:\n%s\nwant:\n%s", got, want)
	}
	if got, want := renderFig2(t, loaded), fig2[0].Summary().Render()+"\n"+fig2[1].Summary().Render()+"\n"; got != want {
		t.Errorf("Fig 2 render after the round trip:\n%s\nwant:\n%s", got, want)
	}
	if got, want := renderFig10(t, loaded), experiments.RenderFig10(bench.Name, reports)+"\n"; got != want {
		t.Errorf("Fig 10 render after the round trip:\n%s\nwant:\n%s", got, want)
	}
}

// benchNames maps a lower-cased benchmark name, as metric keys spell it, to
// the benchmark's name, in the tools' order.
func benchNames() (names []string, byKey map[string]string) {
	byKey = map[string]string{}
	for _, b := range experiments.Quick().Benchmarks() {
		names = append(names, b.Name)
		byKey[strings.ToLower(b.Name)] = b.Name
	}
	return names, byKey
}

// metric reads one canonical metric, failing the test when it is absent.
func metric(t *testing.T, m *runledger.Manifest, key string) float64 {
	t.Helper()
	v, ok := m.Canonical.Metrics[key]
	if !ok {
		t.Fatalf("manifest has no metric %s", key)
	}
	return v
}

// rebuildTables rebuilds every MRE table whose cells the manifest holds
// (experiments.MRETable.Metrics keys), in the order predtop-eval runs them:
// benchmark, then platform.
func rebuildTables(t *testing.T, m *runledger.Manifest) []*experiments.MRETable {
	t.Helper()
	names, _ := benchNames()
	fracs := map[string][]int{} // table key -> fractions
	for key := range m.Canonical.Metrics {
		parts := strings.Split(key, "_")
		if parts[0] != "tests" || len(parts) != 5 {
			continue
		}
		tab := parts[1] + "_" + parts[2]
		f, err := strconv.Atoi(strings.TrimPrefix(parts[3], "f"))
		if err != nil {
			t.Fatalf("metric %s: %v", key, err)
		}
		if !slices.Contains(fracs[tab], f) {
			fracs[tab] = append(fracs[tab], f)
		}
	}
	var tables []*experiments.MRETable
	for _, name := range names {
		for _, plat := range []cluster.Platform{cluster.Platform1(), cluster.Platform2()} {
			tab := fmt.Sprintf("%s_p%d", strings.ToLower(name), plat.Index)
			fs := fracs[tab]
			if fs == nil {
				continue
			}
			slices.Sort(fs)
			tb := &experiments.MRETable{
				Benchmark: name, Platform: plat, Scenarios: cluster.Scenarios(plat), Fractions: fs,
				Specs:   int(metric(t, m, "specs_"+tab)),
				Classes: int(metric(t, m, "classes_"+tab)),
			}
			for _, f := range fs {
				var mre [][]float64
				var tests []int
				for _, sc := range tb.Scenarios {
					cell := fmt.Sprintf("%s_f%d_m%dc%d", tab, f, sc.Mesh.Index, sc.Config.Index)
					tests = append(tests, int(metric(t, m, "tests_"+cell)))
					var row []float64
					for _, model := range experiments.ModelNames {
						row = append(row, metric(t, m, "mre_"+cell+"_"+strings.ToLower(model)))
					}
					mre = append(mre, row)
				}
				tb.MRE, tb.Tests = append(tb.MRE, mre), append(tb.Tests, tests)
			}
			if got, want := tb.WinRate(2)*100, metric(t, m, "win_rate_"+tab); got != want {
				t.Fatalf("table %s: rebuilt win share %v, recorded %v", tab, got, want)
			}
			tables = append(tables, tb)
		}
	}
	return tables
}

// renderTables renders predtop-eval's accuracy report from the manifest: each
// table, then Figs 8, 9 and 3, as the tool prints them without its per-table
// banner lines.
func renderTables(t *testing.T, m *runledger.Manifest) string {
	tables := rebuildTables(t, m)
	if len(tables) == 0 {
		t.Fatal("manifest holds no MRE table")
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.Render() + "\n")
	}
	aggs := experiments.Aggregates(tables)
	b.WriteString(experiments.RenderAggregates(aggs, false) + "\n")
	b.WriteString(experiments.RenderAggregates(aggs, true) + "\n")
	b.WriteString(experiments.RenderFig3(tables) + "\n")
	return b.String()
}

// renderFig10 renders predtop-plan's report from the manifest's plans, one
// Fig 10 per benchmark, as the tool prints it.
func renderFig10(t *testing.T, m *runledger.Manifest) string {
	plans := m.Canonical.Plans
	if len(plans) == 0 {
		t.Fatal("manifest holds no plan")
	}
	var b strings.Builder
	for lo := 0; lo < len(plans); {
		hi := lo + 1
		for hi < len(plans) && plans[hi].Model == plans[lo].Model {
			hi++
		}
		b.WriteString(experiments.RenderFig10(plans[lo].Model, plans[lo:hi]) + "\n")
		lo = hi
	}
	return b.String()
}

// renderFig2 renders each benchmark's Fig 2 headline from the manifest.
func renderFig2(t *testing.T, m *runledger.Manifest) string {
	names, _ := benchNames()
	var b strings.Builder
	for _, name := range names {
		key := "fig2_" + strings.ToLower(name) + "_"
		if _, ok := m.Canonical.Metrics[key+"plans"]; !ok {
			continue
		}
		s := experiments.Fig2Summary{Benchmark: name, Plans: int(metric(t, m, key+"plans"))}
		for i, q := range experiments.Fig2Quantiles {
			s.Quantiles[i] = metric(t, m, key+q)
		}
		b.WriteString(s.Render() + "\n")
	}
	if b.Len() == 0 {
		t.Fatal("manifest holds no Fig 2")
	}
	return b.String()
}

// renderAblation renders each benchmark's ablation table from the manifest
// (experiments.AblationMetrics keys), rows in their recorded order.
func renderAblation(t *testing.T, m *runledger.Manifest) string {
	names, byKey := benchNames()
	rows := map[string][]experiments.AblationRow{}
	for key := range m.Canonical.Metrics {
		parts := strings.Split(key, "_")
		if parts[0] != "ablation" || len(parts) != 5 || parts[4] != "mre" {
			continue
		}
		i, err := strconv.Atoi(parts[2])
		if err != nil {
			t.Fatalf("metric %s: %v", key, err)
		}
		prefix := strings.TrimSuffix(key, "mre")
		bench := byKey[parts[1]]
		for len(rows[bench]) <= i {
			rows[bench] = append(rows[bench], experiments.AblationRow{})
		}
		rows[bench][i] = experiments.AblationRow{
			Variant: parts[3],
			MRE:     metric(t, m, prefix+"mre"),
			AvgN:    metric(t, m, prefix+"nodes"),
			Epochs:  int(metric(t, m, prefix+"epochs")),
		}
	}
	var b strings.Builder
	for _, name := range names {
		if rs := rows[name]; rs != nil {
			for i, r := range rs {
				if r.Variant == "" {
					t.Fatalf("ablation %s: row %d not recorded", name, i)
				}
			}
			b.WriteString(experiments.RenderAblation(name, rs) + "\n")
		}
	}
	if b.Len() == 0 {
		t.Fatal("manifest holds no ablation")
	}
	return b.String()
}
