package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"predtop/internal/cluster"
	"predtop/internal/graphnn"
	"predtop/internal/models"
	"predtop/internal/parallel"
	"predtop/internal/predictor"
	"predtop/internal/sim"
	"predtop/internal/stage"
	"predtop/internal/tensor"
)

// AblationRow is one ablated configuration's accuracy.
type AblationRow struct {
	Variant string
	MRE     float64
	Epochs  int
	AvgN    float64 // mean encoded graph size (pruning ablation)
}

// RunAblation quantifies the design choices DESIGN.md calls out, all on the
// DAG Transformer at one scenario and training fraction:
//
//   - full: DAGRA mask + DAGPE + pruning + MAE loss (the paper's design)
//   - no-DAGRA: attention open to all node pairs (mask ablation, §IV-A)
//   - no-DAGPE: depth positional encodings zeroed (§IV-A)
//   - no-pruning: reshape/convert/broadcast nodes retained (§IV-B4)
//   - MSE-loss: MSE instead of MAE (§IV-B7 claims MAE always wins)
func RunAblation(p Preset, bench Benchmark, platform cluster.Platform, frac float64, log io.Writer) []AblationRow {
	if log == nil {
		log = io.Discard
	}
	mdl := models.Build(bench.Config)
	rng := rand.New(rand.NewSource(p.Seed))
	specs := predictor.CollectStages(mdl, rng, bench.Stages, bench.MaxLen)
	scs := cluster.Scenarios(platform)[:1]

	// One label cache serves both encodings.
	lab := predictor.NewLabeler(mdl, sim.DefaultProfiler())
	base := lab.Datasets(predictor.NewEncoder(mdl, true), specs, scs)[0]
	noPrune := lab.Datasets(predictor.NewEncoder(mdl, false), specs, scs)[0]

	train, val, test := stage.Split(rng, len(base.Samples), frac, valFrac)

	variants := []struct {
		name string
		ds   *predictor.Dataset
		loss predictor.Loss
	}{
		{"full", base, predictor.MAE},
		{"no-DAGRA", maskAblated(base, true, false), predictor.MAE},
		{"no-DAGPE", maskAblated(base, false, true), predictor.MAE},
		{"no-pruning", noPrune, predictor.MAE},
		{"MSE-loss", base, predictor.MSE},
	}

	// Variants are independent (each trains its own model from the same
	// seed), so they run concurrently; logs print in variant order.
	rows := make([]AblationRow, len(variants))
	logs := make([]string, len(variants))
	parallel.For(len(variants), func(i int) {
		v := variants[i]
		cfg := p.Train
		cfg.Loss = v.loss
		cfg.Seed = p.Seed + 31
		model := graphnn.NewDAGTransformer(rand.New(rand.NewSource(cfg.Seed)), p.Tran)
		trained, res := predictor.Train(model, v.ds, train, val, cfg)
		row := AblationRow{
			Variant: v.name,
			MRE:     trained.MRE(v.ds, test),
			Epochs:  res.EpochsRun,
			AvgN:    avgNodes(v.ds),
		}
		rows[i] = row
		logs[i] = fmt.Sprintf("[ablate %s] %-11s MRE %.2f%% (avg %.0f nodes)\n", bench.Name, v.name, row.MRE, row.AvgN)
	})
	for _, line := range logs {
		io.WriteString(log, line)
	}
	return rows
}

// maskAblated clones the dataset with the DAGRA mask opened and/or depths
// zeroed, leaving labels and splits identical. Samples that share an
// encoding share its ablated copy, so training still runs each distinct
// graph once per minibatch.
func maskAblated(ds *predictor.Dataset, openMask, zeroDepth bool) *predictor.Dataset {
	out := &predictor.Dataset{}
	ablated := map[*stage.Encoded]*stage.Encoded{}
	for _, s := range ds.Samples {
		enc, ok := ablated[s.Encoded]
		if !ok {
			c := *s.Encoded
			if openMask {
				c.ReachMask = tensor.New(s.Encoded.ReachMask.R, s.Encoded.ReachMask.C)
			}
			if zeroDepth {
				c.Depths = make([]int, len(s.Encoded.Depths))
			}
			enc = &c
			ablated[s.Encoded] = enc
		}
		s.Encoded = enc
		out.Samples = append(out.Samples, s)
	}
	return out
}

func avgNodes(ds *predictor.Dataset) float64 {
	if len(ds.Samples) == 0 {
		return 0
	}
	total := 0
	for _, s := range ds.Samples {
		total += s.Encoded.N()
	}
	return float64(total) / float64(len(ds.Samples))
}

// AblationMetrics returns every number RenderAblation prints, keyed for a
// run manifest's canonical metrics: ablation_<bench>_<row>_<variant>_mre,
// _nodes and _epochs (bench lower-cased, row the 0-based row index).
func AblationMetrics(bench string, rows []AblationRow) map[string]float64 {
	m := map[string]float64{}
	for i, r := range rows {
		key := fmt.Sprintf("ablation_%s_%d_%s_", strings.ToLower(bench), i, r.Variant)
		m[key+"mre"] = r.MRE
		m[key+"nodes"] = r.AvgN
		m[key+"epochs"] = float64(r.Epochs)
	}
	return m
}

// RenderAblation prints the ablation table.
func RenderAblation(bench string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation (%s, DAG Transformer): design-choice contributions\n", bench)
	fmt.Fprintf(&b, "    %-12s %10s %10s %8s\n", "variant", "MRE", "avg nodes", "epochs")
	for _, r := range rows {
		fmt.Fprintf(&b, "    %-12s %9.2f%% %10.0f %8d\n", r.Variant, r.MRE, r.AvgN, r.Epochs)
	}
	return b.String()
}
