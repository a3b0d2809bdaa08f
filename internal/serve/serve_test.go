package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"path/filepath"
	"testing"

	"predtop/internal/cluster"
	"predtop/internal/graphnn"
	"predtop/internal/models"
	"predtop/internal/obs"
	"predtop/internal/predictor"
	"predtop/internal/sim"
)

// testLayers keeps test benchmark graphs small: embed + 4 decoders + head.
const testLayers = 4

// testBenchCfg is the benchmark config every test request resolves to.
func testBenchCfg() models.Config {
	cfg := models.GPT3()
	cfg.Layers = testLayers
	return cfg
}

// trainTestModel fits a tiny predictor of the given architecture on a small
// GPT-3 dataset — just enough training for deterministic, finite outputs.
func trainTestModel(t testing.TB, arch string, seed int64) predictor.Trained {
	t.Helper()
	m := models.Build(testBenchCfg())
	rng := rand.New(rand.NewSource(seed))
	specs := predictor.CollectStages(m, rng, 10, 3)
	enc := predictor.NewEncoder(m, true)
	sc := cluster.Scenarios(cluster.Platform1())[0]
	ds := predictor.BuildDataset(enc, specs, sc, sim.DefaultProfiler())
	if len(ds.Samples) < 4 {
		t.Fatalf("only %d feasible samples", len(ds.Samples))
	}
	var trainIdx, valIdx []int
	for i := range ds.Samples {
		if i%4 == 3 {
			valIdx = append(valIdx, i)
		} else {
			trainIdx = append(trainIdx, i)
		}
	}
	var net graphnn.Model
	switch arch {
	case "gcn":
		net = graphnn.NewGCN(rng, graphnn.GCNConfig{Layers: 2, Dim: 16})
	case "gat":
		net = graphnn.NewGAT(rng, graphnn.GATConfig{Layers: 1, Dim: 8, Heads: 2})
	default:
		net = graphnn.NewDAGTransformer(rng,
			graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2, FFNDim: 32})
	}
	tr, _ := predictor.Train(net, ds, trainIdx, valIdx, predictor.TrainConfig{
		Epochs: 2, Patience: 2, BatchSize: 4, Seed: seed,
	})
	return tr
}

// writeTestModel trains arch and saves it under dir as key.predtop.
func writeTestModel(t testing.TB, dir, key, arch string, seed int64) predictor.Trained {
	t.Helper()
	tr := trainTestModel(t, arch, seed)
	if err := predictor.SaveFile(filepath.Join(dir, key+ModelExt), tr); err != nil {
		t.Fatalf("saving %s: %v", key, err)
	}
	return tr
}

// startTestServer starts a daemon over dir on an ephemeral port and registers
// its shutdown. mutate (optional) tweaks the config before Start.
func startTestServer(t testing.TB, dir string, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		ModelDir: dir,
		Metrics:  obs.NewRegistry(),
		Trace:    obs.NewTraceContext(7, "serve-test"),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Start(context.Background(), cfg)
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// postPredict POSTs req and decodes the response, returning the HTTP status.
func postPredict(t testing.TB, url string, req PredictRequest) (PredictResponse, int) {
	t.Helper()
	out, code, err := tryPredict(context.Background(), url, req)
	if err != nil {
		t.Fatalf("POST /predict: %v", err)
	}
	return out, code
}

// tryPredict is postPredict for client goroutines: it reports failures as an
// error instead of through t, and sends under ctx so a test can abandon the
// request mid-flight.
func tryPredict(ctx context.Context, url string, req PredictRequest) (PredictResponse, int, error) {
	var out PredictResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, 0, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/predict", bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&out)
	}
	return out, resp.StatusCode, err
}
