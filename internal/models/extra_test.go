package models

import (
	"testing"

	"predtop/internal/ir"
)

func TestSegmentKindStrings(t *testing.T) {
	for _, k := range []SegmentKind{SegEmbedding, SegDecoder, SegMoEDecoder, SegHead} {
		if k.String() == "segment" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
}

func TestHeadOnlyStage(t *testing.T) {
	m := Build(GPT3())
	g := m.StageGraph(m.NumSegments()-1, m.NumSegments(), true)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The head ends in a scalar loss.
	if n := g.Outputs[0]; n.NumElements() != 1 {
		t.Fatalf("loss output shape %v", n.Shape)
	}
}

func TestEmbeddingStageGathersVocab(t *testing.T) {
	m := Build(GPT3())
	g := m.StageGraph(0, 1, false)
	found := false
	for _, n := range g.Nodes {
		if n.Kind == ir.KindGather && n.Ins[0].Shape[0] == m.Config.Vocab {
			found = true
		}
	}
	if !found {
		t.Fatal("embedding stage missing vocab gather")
	}
}

func TestMixedPrecisionPattern(t *testing.T) {
	// Weights are f32 literals converted to the bf16 activation dtype — the
	// pattern that makes convert_element_type pruning meaningful.
	m := Build(GPT3())
	g := m.StageGraph(2, 3, false)
	converts := 0
	for _, n := range g.Nodes {
		if n.Kind == ir.KindConvert && n.Ins[0].Param && n.Ins[0].DType == ir.F32 && n.DType == ir.BF16 {
			converts++
		}
	}
	if converts < 6 {
		t.Fatalf("expected ≥6 weight converts per decoder layer, got %d", converts)
	}
}

func TestAttentionShapesUseHeads(t *testing.T) {
	cfg := GPT3()
	m := Build(cfg)
	g := m.StageGraph(2, 3, false)
	found := false
	for _, n := range g.Nodes {
		if n.Kind == ir.KindDot && len(n.Shape) == 3 &&
			n.Shape[0] == cfg.Heads && n.Shape[1] == cfg.SeqLen && n.Shape[2] == cfg.SeqLen {
			found = true
		}
	}
	if !found {
		t.Fatal("no [heads, S, S] attention-score dot found")
	}
}

func TestSegmentParamsSumToTotal(t *testing.T) {
	for _, cfg := range []Config{GPT3(), MoE()} {
		m := Build(cfg)
		var sum int64
		for i := range m.Segments {
			sum += m.SegmentParams(i)
		}
		if sum != m.TotalParams() {
			t.Fatalf("%s: segment params %d != total %d", cfg.Name, sum, m.TotalParams())
		}
	}
}

func TestDepthOverrideScalesGraph(t *testing.T) {
	small := GPT3()
	small.Layers = 6
	m := Build(small)
	if m.NumSegments() != 8 {
		t.Fatalf("segments %d", m.NumSegments())
	}
	if err := m.StageGraph(0, 8, true).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestActivationDTypePropagates(t *testing.T) {
	m := Build(GPT3())
	g := m.StageGraph(3, 4, false)
	if g.Outputs[0].DType != ir.BF16 {
		t.Fatalf("stage output dtype %v", g.Outputs[0].DType)
	}
}

// ByName is the one benchmark-name resolver (daemon requests and every CLI):
// unknown names are rejected, never mapped to a default benchmark.
func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layers int
		want   string
		depth  int
	}{
		{"GPT-3", 0, "GPT-3", GPT3().Layers},
		{"gpt3", 6, "GPT-3", 6},
		{"MoE", 0, "MoE", MoE().Layers},
		{"moe", 4, "MoE", 4},
	} {
		cfg, ok := ByName(tc.name, tc.layers)
		if !ok || cfg.Name != tc.want || cfg.Layers != tc.depth {
			t.Errorf("ByName(%q, %d) = %s/%d, %v", tc.name, tc.layers, cfg.Name, cfg.Layers, ok)
		}
	}
	for _, bad := range []string{"", "gpt4", "all", "resnet"} {
		if _, ok := ByName(bad, 0); ok {
			t.Errorf("ByName(%q) accepted", bad)
		}
	}
}
