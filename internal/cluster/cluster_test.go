package cluster

import (
	"testing"

	"predtop/internal/ir"
)

func TestPlatformShapes(t *testing.T) {
	p1, p2 := Platform1(), Platform2()
	if p1.Nodes != 1 || p1.GPUsPerNode != 2 || p1.GPU.Name != "A40" {
		t.Fatalf("platform 1: %+v", p1)
	}
	if p2.Nodes != 2 || p2.GPUsPerNode != 2 || p2.GPU.Name != "A5500" {
		t.Fatalf("platform 2: %+v", p2)
	}
	if p2.InterNode.BandwidthGBs >= p2.IntraNode.BandwidthGBs {
		t.Fatal("10GbE must be slower than NVLink")
	}
	for _, g := range []GPUSpec{A40(), A5500()} {
		if g.PeakTFLOPS[ir.BF16] <= g.PeakTFLOPS[ir.F32] {
			t.Fatalf("%s: bf16 peak should exceed f32", g.Name)
		}
		if g.MemBandwidthGBs <= 0 || g.MemoryGB <= 0 {
			t.Fatalf("%s: missing memory spec", g.Name)
		}
	}
}

func TestMeshEnumerationMatchesTableII(t *testing.T) {
	m1 := Meshes(Platform1())
	if len(m1) != 2 {
		t.Fatalf("platform 1 meshes: %d", len(m1))
	}
	m2 := Meshes(Platform2())
	if len(m2) != 3 {
		t.Fatalf("platform 2 meshes: %d", len(m2))
	}
	wantDevices := []int{1, 2, 4}
	for i, m := range m2 {
		if m.NumDevices() != wantDevices[i] || m.Index != i+1 {
			t.Fatalf("mesh %d: %v", i, m)
		}
	}
	if m2[2].CrossNode() != true || m2[1].CrossNode() != false {
		t.Fatal("cross-node detection wrong")
	}
}

func TestConfigsMatchTableIII(t *testing.T) {
	p2 := Platform2()
	meshes := Meshes(p2)
	if n := len(ConfigsFor(meshes[0])); n != 1 {
		t.Fatalf("mesh 1 configs: %d", n)
	}
	if n := len(ConfigsFor(meshes[1])); n != 2 {
		t.Fatalf("mesh 2 configs: %d", n)
	}
	confs3 := ConfigsFor(meshes[2])
	if len(confs3) != 3 {
		t.Fatalf("mesh 3 configs: %d", len(confs3))
	}
	for _, c := range confs3 {
		if c.Degree() != 4 {
			t.Fatalf("mesh 3 config %v uses %d devices", c, c.Degree())
		}
	}
	if confs3[2].ModelParallel != 4 || confs3[0].DataParallel != 4 {
		t.Fatalf("mesh 3 config order wrong: %+v", confs3)
	}
}

func TestScenarioCountsMatchPaperTables(t *testing.T) {
	// Table V has 3 scenario columns (Platform 1), Table VI has 6
	// (Platform 2) — per benchmark.
	if n := len(Scenarios(Platform1())); n != 3 {
		t.Fatalf("platform 1 scenarios: %d", n)
	}
	if n := len(Scenarios(Platform2())); n != 6 {
		t.Fatalf("platform 2 scenarios: %d", n)
	}
}
