package sim

import (
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/ir"
	"predtop/internal/models"
)

func TestOpTimeNonOperatorsFree(t *testing.T) {
	e := singleGPU()
	b := ir.NewBuilder()
	in := b.Input("x", []int{64, 64}, ir.F32)
	w := b.Weight("w", []int{64, 64}, ir.F32)
	ar := b.AllReduce(in)
	if e.Cost(in).Time(1, false) != 0 || e.Cost(w).Time(1, false) != 0 {
		t.Fatal("inputs/literals must not carry compute time")
	}
	if e.Cost(ar).Time(1, false) != 0 {
		t.Fatal("collectives are costed by the collective model, not Cost")
	}
}

func TestGatherSlowerThanElementwise(t *testing.T) {
	e := singleGPU()
	b := ir.NewBuilder()
	table := b.Weight("t", []int{50000, 512}, ir.F32)
	idx := b.Input("i", []int{1024}, ir.I32)
	g := b.Gather(table, idx, []int{1024, 512})
	ew := b.Unary(ir.KindExp, g)
	// Same output bytes, but gather's irregular access must cost more than
	// a streaming element-wise kernel over the same output.
	tg := e.Cost(g).Time(1, false)
	te := e.Cost(ew).Time(1, false)
	if tg <= te {
		t.Fatalf("gather (%v) should cost more than exp (%v)", tg, te)
	}
}

func TestConvertCostedByBandwidth(t *testing.T) {
	e := singleGPU()
	b := ir.NewBuilder()
	x := b.Input("x", []int{4096, 4096}, ir.F32)
	cv := b.Convert(x, ir.BF16)
	bytes := float64(x.Bytes() + cv.Bytes())
	ideal := bytes / (e.Mesh.Platform.GPU.MemBandwidthGBs * 1e9)
	got := e.Cost(cv).Time(1, false)
	if got < ideal || got > ideal*3 {
		t.Fatalf("convert time %v vs bandwidth ideal %v", got, ideal)
	}
}

func TestDifferentPlatformsDifferentCosts(t *testing.T) {
	n := dotNode(1024, 2048, 2048)
	e1 := NewExec(scenario(cluster.Platform1(), 1, 1))
	e2 := NewExec(scenario(cluster.Platform2(), 1, 1))
	if e1.Cost(n).Time(1, false) == e2.Cost(n).Time(1, false) {
		t.Fatal("A40 and A5500 should not cost identically")
	}
}

func TestMemoryScalesWithStageLength(t *testing.T) {
	m := models.Build(models.GPT3())
	e := singleGPU()
	small := e.MemoryBytes(m.StageGraph(2, 3, true))
	big := e.MemoryBytes(m.StageGraph(2, 9, true))
	if big <= small {
		t.Fatalf("memory should grow with stage size: %v vs %v", small, big)
	}
}

func TestProfileCostGrowsWithLatency(t *testing.T) {
	m := models.Build(models.GPT3())
	g := m.StageGraph(2, 3, true)
	e := singleGPU()
	p := DefaultProfiler()
	slow := p.ProfileCostSeconds(g, e, 1.0)
	fast := p.ProfileCostSeconds(g, e, 0.001)
	if slow-fast < float64(p.Warmup+p.Trials)*0.9 {
		t.Fatalf("timed runs not reflected in cost: %v vs %v", slow, fast)
	}
}

func TestZeroNoiseProfiler(t *testing.T) {
	p := Profiler{NoiseFrac: 0, Warmup: 1, Trials: 1}
	if p.Measure(0.5, 99) != 0.5 {
		t.Fatal("zero-noise profiler must return the exact latency")
	}
}

func TestMeasurePositive(t *testing.T) {
	p := DefaultProfiler()
	for s := uint64(0); s < 2000; s++ {
		if p.Measure(0.01, s) <= 0 {
			t.Fatalf("non-positive measurement at seed %d", s)
		}
	}
}
