package models

import (
	"testing"

	"predtop/internal/ir"
)

func TestBuildSegmentLayout(t *testing.T) {
	gpt := Build(GPT3())
	if gpt.NumSegments() != 26 { // embed + 24 layers + head
		t.Fatalf("GPT-3 segments %d", gpt.NumSegments())
	}
	if gpt.Segments[0].Kind != SegEmbedding || gpt.Segments[25].Kind != SegHead {
		t.Fatal("GPT-3 segment roles wrong")
	}
	for i := 1; i <= 24; i++ {
		if gpt.Segments[i].Kind != SegDecoder {
			t.Fatalf("GPT-3 segment %d is %v", i, gpt.Segments[i].Kind)
		}
	}

	moe := Build(MoE())
	if moe.NumSegments() != 34 { // embed + 32 layers + head
		t.Fatalf("MoE segments %d", moe.NumSegments())
	}
	nMoE := 0
	for _, s := range moe.Segments {
		if s.Kind == SegMoEDecoder {
			nMoE++
		}
	}
	if nMoE != 16 { // every other decoder layer
		t.Fatalf("MoE layers %d", nMoE)
	}
}

func TestParamCounts(t *testing.T) {
	gpt := Build(GPT3())
	total := gpt.TotalParams()
	// Table IV calls this configuration 1.3B; with the (untied) LM head the
	// graph carries ~1.4B trainable scalars.
	if total < 1_100_000_000 || total > 1_700_000_000 {
		t.Fatalf("GPT-3 params %d out of plausible range", total)
	}
	moe := Build(MoE())
	if moe.TotalParams() < 700_000_000 {
		t.Fatalf("MoE params %d too small", moe.TotalParams())
	}
	if moe.TotalParams() <= gpt.TotalParams()/3 {
		t.Fatalf("MoE should carry substantial expert weight")
	}
}

func TestStageGraphsValidate(t *testing.T) {
	for _, cfg := range []Config{GPT3(), MoE()} {
		m := Build(cfg)
		ranges := [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 4}, {m.NumSegments() - 2, m.NumSegments()}, {0, m.NumSegments()}}
		for _, r := range ranges {
			for _, backward := range []bool{false, true} {
				g := m.StageGraph(r[0], r[1], backward)
				if err := g.Validate(); err != nil {
					t.Fatalf("%s stage [%d,%d) backward=%v: %v", cfg.Name, r[0], r[1], backward, err)
				}
				if len(g.Outputs) == 0 {
					t.Fatalf("%s stage [%d,%d): no outputs", cfg.Name, r[0], r[1])
				}
			}
		}
	}
}

func TestStageGraphInputKinds(t *testing.T) {
	m := Build(GPT3())
	// A stage starting at the embedding takes token ids.
	g := m.StageGraph(0, 2, false)
	if g.Inputs[0].DType != ir.I32 {
		t.Fatalf("embedding stage input dtype %v", g.Inputs[0].DType)
	}
	// A mid-model stage takes activations [S, H].
	g = m.StageGraph(3, 5, false)
	in := g.Inputs[0]
	if in.DType != m.Config.Act || in.Shape[0] != m.Config.SeqLen || in.Shape[1] != m.Config.Hidden {
		t.Fatalf("mid stage input %v %v", in.DType, in.Shape)
	}
}

func TestBackwardGrowsGraph(t *testing.T) {
	m := Build(GPT3())
	fwd := m.StageGraph(2, 3, false)
	full := m.StageGraph(2, 3, true)
	if len(full.Nodes) <= len(fwd.Nodes)+10 {
		t.Fatalf("backward pass too small: fwd=%d full=%d", len(fwd.Nodes), len(full.Nodes))
	}
	// Training stages emit one gradient output per trainable weight.
	weights := 0
	for _, n := range full.Nodes {
		if n.Param {
			weights++
		}
	}
	if len(full.Outputs) != 1+weights {
		t.Fatalf("outputs %d for %d weights", len(full.Outputs), weights)
	}
}

func TestStageGraphSizesTractable(t *testing.T) {
	// Forward single-decoder stages are what the predictor trains on; keep
	// an eye on their size so attention over nodes stays affordable.
	gpt := Build(GPT3())
	n := len(gpt.StageGraph(2, 3, false).Nodes)
	if n < 30 || n > 140 {
		t.Fatalf("GPT-3 single-layer forward graph has %d nodes", n)
	}
	moe := Build(MoE())
	nm := len(moe.StageGraph(2, 3, false).Nodes) // layer index 1 is MoE
	if nm <= n-20 {
		t.Fatalf("MoE layer graph (%d) should not be much smaller than dense (%d)", nm, n)
	}
}

func TestMoEStagesContainExpertOps(t *testing.T) {
	m := Build(MoE())
	g := m.StageGraph(2, 3, false) // segment 2 = layer index 1 = MoE
	var hasCumSum, hasBatchedDot bool
	for _, n := range g.Nodes {
		if n.Kind == ir.KindCumSum {
			hasCumSum = true
		}
		if n.Kind == ir.KindDot && len(n.Shape) == 3 && n.Shape[0] == m.Config.Experts {
			hasBatchedDot = true
		}
	}
	if !hasCumSum || !hasBatchedDot {
		t.Fatalf("MoE graph missing routing ops: cumsum=%v expertDot=%v", hasCumSum, hasBatchedDot)
	}
}

func TestFlopsScaleWithLayers(t *testing.T) {
	m := Build(GPT3())
	flops := func(g *ir.Graph) (total int64) {
		for _, n := range g.Nodes {
			total += n.Flops()
		}
		return total
	}
	one := flops(m.StageGraph(1, 2, true))
	three := flops(m.StageGraph(1, 4, true))
	if three < 2*one || three > 4*one {
		t.Fatalf("flops should scale ~linearly with layers: 1→%d 3→%d", one, three)
	}
}

func TestBadStageRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(GPT3()).StageGraph(5, 5, false)
}

// TestStageClassSubstring pins StageClass to its definition, the kinds of
// segments [lo, hi) in order, for every range of GPT-3 and MoE, and checks
// that a class costs no allocation.
func TestStageClassSubstring(t *testing.T) {
	for _, m := range []*Model{Build(GPT3()), Build(MoE())} {
		n := m.NumSegments()
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi <= n; hi++ {
				kinds := make([]byte, 0, hi-lo)
				for _, s := range m.Segments[lo:hi] {
					kinds = append(kinds, byte(s.Kind))
				}
				if got, want := m.StageClass(lo, hi), (StageClass{string(kinds)}); got != want {
					t.Fatalf("%s [%d,%d): class %q, want %q", m.Config.Name, lo, hi, got.kinds, want.kinds)
				}
			}
		}
		var sink StageClass
		if a := testing.AllocsPerRun(100, func() { sink = m.StageClass(1, n-1) }); a != 0 {
			t.Errorf("%s: StageClass allocates %v times per call", m.Config.Name, a)
		}
		_ = sink
	}
}
