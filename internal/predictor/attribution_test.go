package predictor

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"predtop/internal/graphnn"
)

// testTrained wraps an untrained (random-init) model: Evaluate only needs a
// deterministic forward, not a good one.
func testTrained(seed int64) Trained {
	rng := rand.New(rand.NewSource(seed))
	m := graphnn.NewDAGTransformer(rng, graphnn.TransformerConfig{Layers: 1, Dim: 16, Heads: 2})
	return Trained{Model: m, Scale: 1}
}

func TestEvaluateMatchesMREBitwise(t *testing.T) {
	_, ds := smallDataset(t, 24)
	tr := testTrained(7)
	idx := make([]int, len(ds.Samples))
	for i := range idx {
		idx[i] = i
	}
	a := tr.Evaluate(ds, idx)
	if got, want := a.MREPct, tr.MRE(ds, idx); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Evaluate MRE %v != MRE %v (must be bitwise identical)", got, want)
	}
	// The scalar is Eqn 5 over the serial forward's predictions (the fanned
	// forward Evaluate runs is held to them bit for bit by
	// TestPredictEncodedBatchBitwise); only the summation order differs.
	sum := 0.0
	for _, i := range idx {
		s := ds.Samples[i]
		sum += math.Abs(tr.PredictEncoded(s.Encoded)-s.Measured) / s.Measured
	}
	if want := sum / float64(len(idx)) * 100; math.Abs(a.MREPct-want) > 1e-9*(1+want) {
		t.Fatalf("Evaluate MRE %v, serial Eqn 5 %v", a.MREPct, want)
	}
}

// TestEvaluateWorkerInvariant: Evaluate fans its forwards across GOMAXPROCS
// workers, claimed largest first. The attribution — every bucket and the
// MRE — must be bit-equal run serially and on three workers, and each
// graph's error must be bitwise the one its own PredictEncoded gives.
func TestEvaluateWorkerInvariant(t *testing.T) {
	_, ds := smallDataset(t, 24)
	tr := testTrained(11)
	idx := make([]int, len(ds.Samples))
	for i := range idx {
		idx[len(idx)-1-i] = i
	}
	evaluate := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		b, err := json.Marshal(tr.Evaluate(ds, idx))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if serial, wide := evaluate(1), evaluate(3); serial != wide {
		t.Fatalf("attribution differs across worker counts:\n 1: %s\n 3: %s", serial, wide)
	}
	for _, i := range idx {
		s := ds.Samples[i]
		want := math.Abs(tr.PredictEncoded(s.Encoded)-s.Measured) / s.Measured * 100
		if got := tr.Evaluate(ds, []int{i}).MREPct; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sample %d: Evaluate error %v != PredictEncoded's %v", i, got, want)
		}
	}
}

func TestEvaluateEmptyAndDeterministic(t *testing.T) {
	_, ds := smallDataset(t, 16)
	tr := testTrained(8)
	if a := tr.Evaluate(ds, nil); a == nil || a.MREPct != 0 || a.Samples != 0 {
		t.Fatalf("empty evaluation not empty: %+v", a)
	}
	idx := []int{0, 3, 5, 7, 9}
	a, _ := json.Marshal(tr.Evaluate(ds, idx))
	b, _ := json.Marshal(tr.Evaluate(ds, idx))
	if string(a) != string(b) {
		t.Fatal("attribution JSON differs across identical evaluations")
	}
}

func TestAttributionBucketAccounting(t *testing.T) {
	_, ds := smallDataset(t, 24)
	tr := testTrained(9)
	idx := make([]int, len(ds.Samples))
	for i := range idx {
		idx[i] = i
	}
	a := tr.Evaluate(ds, idx)
	if a.Samples != len(idx) {
		t.Fatalf("samples %d != %d", a.Samples, len(idx))
	}
	// Node-count and depth buckets each count every sample exactly once.
	for _, axis := range []struct {
		name string
		bs   []AttributionBucket
	}{{"by_nodes", a.ByNodes}, {"by_depth", a.ByDepth}} {
		n := 0
		w := 0.0
		for _, b := range axis.bs {
			n += b.N
			w += b.Weight
		}
		if n != len(idx) || w != float64(len(idx)) {
			t.Fatalf("%s: n=%d weight=%v, want %d samples", axis.name, n, w, len(idx))
		}
	}
	// Op buckets split each sample's unit weight by node share, so the total
	// op weight is the sample count (up to float summation error).
	opW := 0.0
	for _, b := range a.ByOp {
		opW += b.Weight
		if b.MREPct < 0 || b.MaxPct < b.MREPct {
			t.Fatalf("bucket %q: mre %v max %v", b.Key, b.MREPct, b.MaxPct)
		}
	}
	if math.Abs(opW-float64(len(idx))) > 1e-6*float64(len(idx)) {
		t.Fatalf("op weight %v, want ~%d", opW, len(idx))
	}
	// Buckets arrive sorted by key (the canonical JSON contract).
	for _, bs := range [][]AttributionBucket{a.ByOp, a.ByNodes, a.ByDepth} {
		for i := 1; i < len(bs); i++ {
			if bs[i-1].Key >= bs[i].Key {
				t.Fatalf("buckets not strictly sorted: %q >= %q", bs[i-1].Key, bs[i].Key)
			}
		}
	}
}

func TestMergeAttributions(t *testing.T) {
	_, ds := smallDataset(t, 24)
	tr := testTrained(10)
	all := make([]int, len(ds.Samples))
	for i := range all {
		all[i] = i
	}
	half := len(all) / 2
	pa, pb := tr.Evaluate(ds, all[:half]), tr.Evaluate(ds, all[half:])
	m := MergeAttributions(pa, nil, pb)
	if m.Samples != len(all) {
		t.Fatalf("merged samples %d != %d", m.Samples, len(all))
	}
	whole := tr.Evaluate(ds, all)
	if math.Abs(m.MREPct-whole.MREPct) > 1e-9*(1+whole.MREPct) {
		t.Fatalf("merged MRE %v, whole-set MRE %v", m.MREPct, whole.MREPct)
	}
	// Counts and weights merge exactly; means within float tolerance.
	wantByKey := map[string]AttributionBucket{}
	for _, b := range whole.ByNodes {
		wantByKey[b.Key] = b
	}
	if len(m.ByNodes) != len(whole.ByNodes) {
		t.Fatalf("merged %d node buckets, whole set has %d", len(m.ByNodes), len(whole.ByNodes))
	}
	for _, b := range m.ByNodes {
		w := wantByKey[b.Key]
		if b.N != w.N || b.Weight != w.Weight || b.MaxPct != w.MaxPct {
			t.Fatalf("bucket %q: merged %+v, whole %+v", b.Key, b, w)
		}
		if math.Abs(b.MREPct-w.MREPct) > 1e-9*(1+w.MREPct) {
			t.Fatalf("bucket %q: merged MRE %v, whole %v", b.Key, b.MREPct, w.MREPct)
		}
	}
	if empty := MergeAttributions(); empty.Samples != 0 || empty.MREPct != 0 {
		t.Fatalf("merging nothing: %+v", empty)
	}
}

func TestNodeAndDepthKeys(t *testing.T) {
	cases := map[int]string{1: "nodes 001-008", 8: "nodes 001-008", 9: "nodes 009-016",
		64: "nodes 033-064", 128: "nodes 065-128", 129: "nodes 129+", 10000: "nodes 129+"}
	for n, want := range cases {
		if got := nodeBucketKey(n); got != want {
			t.Fatalf("nodeBucketKey(%d) = %q, want %q", n, got, want)
		}
	}
	if got := depthKey(3); got != "depth 03" {
		t.Fatalf("depthKey(3) = %q", got)
	}
}
