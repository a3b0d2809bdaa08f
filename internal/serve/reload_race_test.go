package serve

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"predtop/internal/models"
	"predtop/internal/predictor"
	"predtop/internal/stage"
)

// TestReloadOldOrNew: requests racing a hot reload must observe either the
// old registry snapshot or the new one, never a mixture — each response's
// generation must be consistent with the model set it was answered from.
// Run with -race in make ci.
func TestReloadOldOrNew(t *testing.T) {
	dir := t.TempDir()
	trA := writeTestModel(t, dir, "m", "tran", 1)
	s := startTestServer(t, dir, nil)

	m := models.Build(testBenchCfg())
	enc := predictor.NewEncoder(m, true)
	e := enc.Encode(stage.Spec{Lo: 0, Hi: 2})
	wantA := trA.PredictEncoded(e)

	// Overwrite m.predtop with a differently-seeded model mid-flight, then
	// hot-reload. Gen 1 answers must match model A, gen ≥ 2 answers model B.
	trB := trainTestModel(t, "tran", 99)
	wantB := trB.PredictEncoded(e)
	if math.Float64bits(wantA) == math.Float64bits(wantB) {
		t.Fatal("test models coincide; pick different seeds")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, code := postPredict(t, s.URL(), PredictRequest{
					Bench: "GPT-3", Layers: testLayers, Lo: 0, Hi: 2,
				})
				if code != 200 {
					errs <- "non-200 during reload race"
					return
				}
				got := math.Float64bits(resp.LatencySeconds)
				switch {
				case resp.Generation == 1 && got != math.Float64bits(wantA):
					errs <- "generation 1 answered with non-A latency (torn reload)"
					return
				case resp.Generation >= 2 && got != math.Float64bits(wantB):
					errs <- "generation >= 2 answered with non-B latency (torn reload)"
					return
				case resp.Generation == 0:
					errs <- "generation 0 response"
					return
				}
			}
		}()
	}
	if err := predictor.SaveFile(filepath.Join(dir, "m"+ModelExt), trB); err != nil {
		t.Fatalf("overwriting model: %v", err)
	}
	if gen, n, err := s.Reload(); err != nil || gen != 2 || n != 1 {
		t.Fatalf("reload: gen=%d n=%d err=%v", gen, n, err)
	}
	// Let the clients observe the new generation, then stop.
	for i := 0; i < 3; i++ {
		resp, _ := postPredict(t, s.URL(), PredictRequest{Bench: "GPT-3", Layers: testLayers, Lo: 0, Hi: 2})
		if resp.Generation >= 2 {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// Post-reload, the memo was purged: the first answer after gen 2 came
	// from a fresh forward of model B, not a stale gen-1 entry.
	resp, _ := postPredict(t, s.URL(), PredictRequest{Bench: "GPT-3", Layers: testLayers, Lo: 0, Hi: 2})
	if math.Float64bits(resp.LatencySeconds) != math.Float64bits(wantB) {
		t.Fatalf("post-reload latency %v, want model B's %v", resp.LatencySeconds, wantB)
	}
}

// TestReloadFailureKeepsServing: a reload against a corrupt model file must
// keep the old snapshot serving at the old generation.
func TestReloadFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	trA := writeTestModel(t, dir, "m", "tran", 1)
	s := startTestServer(t, dir, nil)

	if err := os.WriteFile(filepath.Join(dir, "broken"+ModelExt), []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Reload(); err == nil {
		t.Fatal("reload of corrupt model dir should fail")
	}
	m := models.Build(testBenchCfg())
	enc := predictor.NewEncoder(m, true)
	want := trA.PredictEncoded(enc.Encode(stage.Spec{Lo: 0, Hi: 2}))
	resp, code := postPredict(t, s.URL(), PredictRequest{Bench: "GPT-3", Layers: testLayers, Lo: 0, Hi: 2})
	if code != 200 || resp.Generation != 1 {
		t.Fatalf("after failed reload: code=%d gen=%d, want 200/1", code, resp.Generation)
	}
	if math.Float64bits(resp.LatencySeconds) != math.Float64bits(want) {
		t.Fatal("failed reload changed the serving model")
	}
}
