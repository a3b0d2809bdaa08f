package predictor

import (
	"sync"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/models"
	"predtop/internal/sim"
	"predtop/internal/stage"
)

func TestProfileStageDeterministic(t *testing.T) {
	m := models.Build(models.GPT3())
	sc := cluster.Scenarios(cluster.Platform1())[1]
	prof := sim.DefaultProfiler()
	sp := stage.Spec{Lo: 2, Hi: 4}
	t1, m1, ok1 := ProfileStage(m, sp, sc, prof)
	t2, m2, ok2 := ProfileStage(m, sp, sc, prof)
	if !ok1 || !ok2 || t1 != t2 || m1 != m2 {
		t.Fatalf("profiling not deterministic: (%v,%v) vs (%v,%v)", t1, m1, t2, m2)
	}
}

func TestLabelsDifferAcrossScenarios(t *testing.T) {
	m := models.Build(models.GPT3())
	prof := sim.DefaultProfiler()
	sp := stage.Spec{Lo: 2, Hi: 4}
	seen := map[float64]bool{}
	for _, sc := range cluster.Scenarios(cluster.Platform2()) {
		lat, _, ok := ProfileStage(m, sp, sc, prof)
		if !ok {
			continue
		}
		if seen[lat] {
			t.Fatalf("identical latency %v under two scenarios", lat)
		}
		seen[lat] = true
	}
	if len(seen) < 4 {
		t.Fatalf("only %d distinct scenario latencies", len(seen))
	}
}

func TestSingleGPUSlowerThanParallel(t *testing.T) {
	// For a hefty stage, the optimal latency with 4 devices available must
	// not exceed the single-GPU latency.
	m := models.Build(models.GPT3())
	prof := sim.Profiler{NoiseFrac: 0, Warmup: 1, Trials: 1}
	sp := stage.Spec{Lo: 1, Hi: 9}
	p2 := cluster.Platform2()
	single, _, ok1 := ProfileStage(m, sp, cluster.Scenario{Mesh: cluster.Meshes(p2)[0], Config: cluster.ConfigsFor(cluster.Meshes(p2)[0])[0]}, prof)
	mp2 := cluster.Scenario{Mesh: cluster.Meshes(p2)[1], Config: cluster.ConfigsFor(cluster.Meshes(p2)[1])[1]}
	twoWay, _, ok2 := ProfileStage(m, sp, mp2, prof)
	if !ok1 || !ok2 {
		t.Fatal("stages should be feasible")
	}
	if twoWay >= single {
		t.Fatalf("2-way MP (%v) should beat single GPU (%v) for an 8-layer stage", twoWay, single)
	}
}

func TestEncoderPruneFlag(t *testing.T) {
	m := models.Build(models.GPT3())
	pruned := NewEncoder(m, true).Encode(stage.Spec{Lo: 2, Hi: 3})
	raw := NewEncoder(m, false).Encode(stage.Spec{Lo: 2, Hi: 3})
	if pruned.N() >= raw.N() {
		t.Fatalf("pruned %d !< raw %d", pruned.N(), raw.N())
	}
}

func TestCollectStagesRespectsMaxLen(t *testing.T) {
	m := models.Build(models.MoE())
	specs := CollectStages(m, nil, 0, 2)
	for _, sp := range specs {
		if sp.Len() > 2 {
			t.Fatalf("spec %v exceeds max length", sp)
		}
	}
	if len(specs) != 34+33 {
		t.Fatalf("universe %d", len(specs))
	}
}

// TestLabelerWorkPerClass pins the split of a label: a spec of an already
// labeled class builds no graph and runs no optimization, gets its class's
// optimum and profiling cost, and still draws a measurement of its own.
func TestLabelerWorkPerClass(t *testing.T) {
	m := models.Build(models.GPT3())
	lab := NewLabeler(m, sim.DefaultProfiler())
	a, b := stage.Spec{Lo: 2, Hi: 4}, stage.Spec{Lo: 5, Hi: 7} // decoder × 2 both
	scenarios := cluster.Scenarios(cluster.Platform2())
	for _, sc := range scenarios {
		lab.Label(a, sc)
	}
	if len(lab.graphs) != 1 || len(lab.labels) != len(scenarios) {
		t.Fatalf("one spec under %d scenarios: %d graphs and %d optimizations, want 1 and %d",
			len(scenarios), len(lab.graphs), len(lab.labels), len(scenarios))
	}
	for _, sc := range scenarios {
		ta, ma, ca, oka := lab.Label(a, sc)
		tb, mb, cb, okb := lab.Label(b, sc)
		if oka != okb || ta != tb || ca != cb {
			t.Fatalf("%v: one class labeled (%v, %v, %v) and (%v, %v, %v)", sc, ta, ca, oka, tb, cb, okb)
		}
		if oka && ma == mb {
			t.Fatalf("%v: two specs drew the same measurement %v", sc, ma)
		}
	}
	if len(lab.graphs) != 1 || len(lab.labels) != len(scenarios) {
		t.Fatalf("a spec of a labeled class built or optimized again: %d graphs, %d optimizations", len(lab.graphs), len(lab.labels))
	}
}

// TestLabelerKeysWholeScenario asks one labeler for the same stage under
// Platform 2 and under Platform 2 with internode-bw=x4, whose meshes and
// configurations keep their indices: the perturbed labels must be the ones a
// fresh labeler gives, not the base platform's, and must differ from them
// (the stage's data-parallel gradients cross the node boundary on the 2×2
// mesh).
func TestLabelerKeysWholeScenario(t *testing.T) {
	m := models.Build(models.GPT3())
	sp := stage.Spec{Lo: 2, Hi: 4}
	base := cluster.Platform2()
	fast := base
	fast.InterNode.BandwidthGBs *= 4
	baseMesh, fastMesh := cluster.Meshes(base)[2], cluster.Meshes(fast)[2]
	if baseMesh.Index != fastMesh.Index || baseMesh.Platform.Index != fastMesh.Platform.Index {
		t.Fatal("the perturbed mesh should keep the base mesh's indices")
	}

	lab := NewLabeler(m, sim.DefaultProfiler())
	before := lab.MeshLabels(sp, baseMesh)
	got := lab.MeshLabels(sp, fastMesh)
	want := NewLabeler(m, sim.DefaultProfiler()).MeshLabels(sp, fastMesh)
	differ := false
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("config %d: shared labeler %+v, fresh labeler %+v", i, got[i], want[i])
		}
		differ = differ || got[i].True != before[i].True
	}
	if !differ {
		t.Fatalf("x4 inter-node bandwidth left every label unchanged: %+v", got)
	}
}

// TestEncoderConcurrentFirstCalls: goroutines racing on the first Encode of
// one class all get the one encoding the cache keeps (make race runs this
// under the race detector).
func TestEncoderConcurrentFirstCalls(t *testing.T) {
	enc := NewEncoder(models.Build(models.GPT3()), true)
	const n = 16
	got := make([]*stage.Encoded, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range n {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = enc.Encode(stage.Spec{Lo: 1 + i, Hi: 3 + i}) // decoder × 2 for every i
		}()
	}
	start.Done()
	done.Wait()
	for i, e := range got {
		if e != got[0] {
			t.Fatalf("goroutine %d got encoding %p, goroutine 0 got %p", i, e, got[0])
		}
	}
	if e := enc.Encode(stage.Spec{Lo: 1, Hi: 3}); e != got[0] {
		t.Fatal("the cache kept a different encoding than it handed out")
	}
}
