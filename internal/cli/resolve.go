package cli

import (
	"fmt"
	"strings"

	"predtop/internal/cluster"
	"predtop/internal/experiments"
	"predtop/internal/graphnn"
	"predtop/internal/models"
)

// Bench resolves -bench (with the -layers depth override) to a benchmark.
func Bench(name string, layers int) (models.Config, error) {
	cfg, ok := models.ByName(name, layers)
	if !ok {
		return cfg, fmt.Errorf("unknown benchmark %q (want GPT-3 or MoE)", name)
	}
	return cfg, nil
}

// Platform resolves -platform 1 or 2.
func Platform(index int) (cluster.Platform, error) {
	for _, p := range []cluster.Platform{cluster.Platform1(), cluster.Platform2()} {
		if p.Index == index {
			return p, nil
		}
	}
	return cluster.Platform{}, fmt.Errorf("unknown platform %d (want 1 or 2)", index)
}

// FindScenario resolves the (-mesh, -conf) pair on p (Tables II and III).
func FindScenario(p cluster.Platform, mesh, conf int) (cluster.Scenario, error) {
	for _, sc := range cluster.Scenarios(p) {
		if sc.Mesh.Index == mesh && sc.Config.Index == conf {
			return sc, nil
		}
	}
	return cluster.Scenario{}, fmt.Errorf("no scenario mesh=%d conf=%d on platform %d", mesh, conf, p.Index)
}

// Arch resolves -arch to that predictor's spec at the paper preset's size;
// the tool Builds it where its RNG stream draws the weights.
func Arch(name string) (graphnn.ModelSpec, error) {
	arch, ok := map[string]string{"tran": "Tran", "gcn": "GCN", "gat": "GAT"}[strings.ToLower(name)]
	if !ok {
		return graphnn.ModelSpec{}, fmt.Errorf("unknown architecture %q (want tran, gcn, or gat)", name)
	}
	p := experiments.Paper()
	return graphnn.ModelSpec{Arch: arch, Tran: p.Tran, GCN: p.GCN, GAT: p.GAT}, nil
}

// ExperimentPreset resolves -preset; a nonzero -seed replaces the preset's.
func (f *Flags) ExperimentPreset() (experiments.Preset, error) {
	p, ok := experiments.ByName(f.Preset)
	if !ok {
		return p, fmt.Errorf("unknown preset %q (want quick, paper, or paperlite)", f.Preset)
	}
	if f.Seed != 0 {
		p.Seed = f.Seed
	}
	return p, nil
}
