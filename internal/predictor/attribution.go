package predictor

import (
	"fmt"
	"math"
	"sort"

	"predtop/internal/ir"
	"predtop/internal/parallel"
	"predtop/internal/stage"
)

// Attribution is an error-attribution snapshot: the held-out residuals of one
// evaluation, bucketed along the three axes that localize where a predictor's
// error lives — operator type, stage-graph node count, and stage depth (the
// number of pipeline segments the stage spans). A scalar MRE says *how wrong*
// a predictor is; the attribution says *on which stages*, which is what an
// encoder-variant A/B run needs to adjudicate a design change.
//
// Every figure is an absolute relative error in percent against the profiled
// ground truth. Buckets carry their weight sums so two snapshots merge
// exactly (see MergeAttributions); all slices are sorted by Key, so the canonical JSON
// rendering is byte-identical for a fixed seed.
type Attribution struct {
	// Samples is the number of held-out stages evaluated; MREPct is their
	// mean relative error (what Trained.MRE returns).
	Samples int     `json:"samples"`
	MREPct  float64 `json:"mre_pct"`
	// ByOp buckets residuals per operator type: a stage's error contributes
	// to every op kind it contains, weighted by that kind's node share, so
	// the bucket MRE answers "how wrong are predictions on stages dominated
	// by this op".
	ByOp []AttributionBucket `json:"by_op,omitempty"`
	// ByNodes buckets residuals by stage-graph node count (power-of-two
	// ranges), exposing size-dependent error.
	ByNodes []AttributionBucket `json:"by_nodes,omitempty"`
	// ByDepth buckets residuals by stage depth in pipeline segments
	// (Spec.Len()), exposing depth-dependent error.
	ByDepth []AttributionBucket `json:"by_depth,omitempty"`
}

// AttributionBucket aggregates the residuals attributed to one bucket key.
type AttributionBucket struct {
	Key string `json:"key"`
	// N counts contributing samples; Weight is the attribution mass (node
	// share for op buckets, sample count for node/depth buckets). MREPct is
	// the weight-averaged relative error, MaxPct the worst contributing
	// sample's error.
	N      int     `json:"n"`
	Weight float64 `json:"weight"`
	MREPct float64 `json:"mre_pct"`
	MaxPct float64 `json:"max_pct"`
}

// attribAccum is the in-flight form of a bucket: sums instead of means.
type attribAccum struct {
	n      int
	weight float64
	errSum float64 // sum of weight × errPct
	maxPct float64
}

// accAdd folds one observation into m[key], creating the bucket on first use.
func accAdd(m map[string]*attribAccum, key string, weight, errPct float64) {
	a := m[key]
	if a == nil {
		a = &attribAccum{}
		m[key] = a
	}
	a.n++
	a.weight += weight
	a.errSum += weight * errPct
	if errPct > a.maxPct {
		a.maxPct = errPct
	}
}

// finishBuckets renders accumulators as sorted buckets.
func finishBuckets(m map[string]*attribAccum) []AttributionBucket {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]AttributionBucket, 0, len(keys))
	for _, k := range keys {
		a := m[k]
		mre := 0.0
		if a.weight > 0 {
			mre = a.errSum / a.weight
		}
		out = append(out, AttributionBucket{Key: k, N: a.n, Weight: a.weight, MREPct: mre, MaxPct: a.maxPct})
	}
	return out
}

// nodeBucketKey maps a node count onto its power-of-two range key. Keys are
// zero-padded so the lexicographic bucket order is the numeric one.
func nodeBucketKey(n int) string {
	bounds := [...]int{8, 16, 32, 64, 128}
	lo := 1
	for _, hi := range bounds {
		if n <= hi {
			return fmt.Sprintf("nodes %03d-%03d", lo, hi)
		}
		lo = hi + 1
	}
	return "nodes 129+"
}

// sampleKinds counts the operator kinds of one encoded stage from the
// one-hot operator-type block of its feature matrix (the encoder writes
// exactly one 1 in the first ir.NumKinds columns of every row).
func sampleKinds(e *stage.Encoded) []int {
	counts := make([]int, ir.NumKinds)
	for v := 0; v < e.N(); v++ {
		row := e.X.Row(v)
		for k := 0; k < ir.NumKinds; k++ {
			if row[k] == 1 {
				counts[k]++
				break
			}
		}
	}
	return counts
}

// Evaluate is the one evaluation path: a batched forward over the indexed
// samples (chunks fan across GOMAXPROCS), from which it derives the MRE (Eqn
// 5, percent) and the attribution snapshot that carries it. The error sum
// folds through a fixed-shape tree, so the MRE does not depend on the worker
// count. Pure observation — evaluating never mutates the model or the
// dataset.
func (t Trained) Evaluate(ds *Dataset, idx []int) *Attribution {
	if len(idx) == 0 {
		return &Attribution{}
	}
	es := make([]*stage.Encoded, len(idx))
	for k, i := range idx {
		es[k] = ds.Samples[i].Encoded
	}
	preds := t.PredictEncodedBatch(es, 0)
	errs := make([]float64, len(idx))
	for k, i := range idx {
		errs[k] = math.Abs(preds[k]-ds.Samples[i].Measured) / ds.Samples[i].Measured
	}

	// Bucket before reducing: TreeReduce uses its slice as scratch.
	byOp := map[string]*attribAccum{}
	byNodes := map[string]*attribAccum{}
	byDepth := map[string]*attribAccum{}
	for k, i := range idx {
		s := &ds.Samples[i]
		errPct := errs[k] * 100
		n := s.Encoded.N()
		for kind, c := range sampleKinds(s.Encoded) {
			if c == 0 {
				continue
			}
			accAdd(byOp, ir.Kind(kind).String(), float64(c)/float64(n), errPct)
		}
		accAdd(byNodes, nodeBucketKey(n), 1, errPct)
		accAdd(byDepth, depthKey(s.Spec.Len()), 1, errPct)
	}
	total := parallel.TreeReduce(errs, func(a, b float64) float64 { return a + b })
	return &Attribution{
		Samples: len(idx),
		MREPct:  total / float64(len(idx)) * 100,
		ByOp:    finishBuckets(byOp),
		ByNodes: finishBuckets(byNodes),
		ByDepth: finishBuckets(byDepth),
	}
}

// depthKey renders a stage depth (segments spanned) as a zero-padded key.
func depthKey(d int) string { return fmt.Sprintf("depth %02d", d) }

// MergeAttributions folds snapshots bucket by bucket (weight-averaged MREs,
// max of maxes). Merging is exact — buckets carry their weight sums — but
// float addition is order-sensitive, so callers that need byte-identical
// output must merge in a fixed order. The top-level MREPct becomes the
// sample-weighted mean of the parts. Nil parts are skipped; merging nothing
// returns an empty snapshot.
func MergeAttributions(parts ...*Attribution) *Attribution {
	out := &Attribution{}
	byOp := map[string]*attribAccum{}
	byNodes := map[string]*attribAccum{}
	byDepth := map[string]*attribAccum{}
	errSum := 0.0
	merge := func(m map[string]*attribAccum, bs []AttributionBucket) {
		for _, b := range bs {
			a := m[b.Key]
			if a == nil {
				a = &attribAccum{}
				m[b.Key] = a
			}
			a.n += b.N
			a.weight += b.Weight
			a.errSum += b.Weight * b.MREPct
			if b.MaxPct > a.maxPct {
				a.maxPct = b.MaxPct
			}
		}
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Samples += p.Samples
		errSum += float64(p.Samples) * p.MREPct
		merge(byOp, p.ByOp)
		merge(byNodes, p.ByNodes)
		merge(byDepth, p.ByDepth)
	}
	if out.Samples > 0 {
		out.MREPct = errSum / float64(out.Samples)
	}
	out.ByOp = finishBuckets(byOp)
	out.ByNodes = finishBuckets(byNodes)
	out.ByDepth = finishBuckets(byDepth)
	return out
}
