package stage

import (
	"errors"

	"predtop/internal/tensor"
)

// Batch is B encoded stage graphs (B may be 1) stacked into one padded
// feature tensor — the only input the predictors' forward accepts
// (tensor.BatchLayout describes the panels). The
// per-graph masks and neighbour lists are referenced, not copied — panel and
// edge kernels consume them at each graph's own node count, so padding never
// needs mask entries or edges.
type Batch struct {
	Layout tensor.BatchLayout
	// X is the (B·Stride)×FeatureDim stacked feature matrix; pad rows are
	// zero.
	X *tensor.Tensor
	// Reach holds each graph's ReachMask (Nᵍ×Nᵍ).
	Reach []*tensor.Tensor
	// Nbr holds each graph's neighbour list; the batch's edge vectors are the
	// graphs' own edge ranges laid end to end in this order.
	Nbr []*tensor.Neighbours
	// Depths holds each graph's DAGPE positional indices.
	Depths [][]int
	// HeadLayout is the stride-1 layout of the pooled B×C head input, so the
	// prediction head's parameter gradients still fold per graph.
	HeadLayout tensor.BatchLayout
}

// ErrEmptyGraph rejects a graph with zero nodes: an empty panel has no rows
// to pool, so its "prediction" would be an artifact of padding. N ≥ 1 is
// Encoded's contract; this is where it is enforced.
var ErrEmptyGraph = errors.New("stage: cannot batch an empty graph")

// headCounts is the all-ones Counts table shared by every stride-1 head
// layout (batches are bounded well below its length; larger batches fall
// back to an allocation).
var headCounts = func() []int {
	ones := make([]int, 256)
	for i := range ones {
		ones[i] = 1
	}
	return ones
}()

// NewBatch stacks encoded graphs into a fresh padded Batch; see Reset.
func NewBatch(es []*Encoded, a *tensor.Arena) (*Batch, error) {
	nb := new(Batch)
	if err := nb.Reset(es, a); err != nil {
		return nil, err
	}
	return nb, nil
}

// Reset restacks nb from es, reusing nb's descriptor slices so a caller that
// keeps one Batch beside its tape stops allocating per forward. The feature
// tensor is drawn from a — pass nil to allocate from the heap — so nb is
// valid until a is reset, and must not be restacked while a tape still holds
// nodes built from it. Graphs with zero nodes are rejected with
// ErrEmptyGraph, leaving nb unusable until the next successful Reset.
func (nb *Batch) Reset(es []*Encoded, a *tensor.Arena) error {
	b := len(es)
	stride := 0
	counts := nb.Layout.Counts[:0]
	for _, e := range es {
		n := e.X.R
		if n == 0 {
			return ErrEmptyGraph
		}
		counts = append(counts, n)
		if n > stride {
			stride = n
		}
	}
	nb.Layout = tensor.BatchLayout{B: b, Stride: stride, Counts: counts}
	// Real rows are fully overwritten by the copies below, so only pad rows
	// need explicit zeroing — cheaper than clearing the whole block when the
	// batch is nearly rectangular.
	if a != nil {
		nb.X = a.GetUninit(nb.Layout.Rows(), FeatureDim)
		for i, c := range counts {
			clear(nb.X.Data[(i*stride+c)*FeatureDim : (i+1)*stride*FeatureDim])
		}
	} else {
		nb.X = tensor.New(nb.Layout.Rows(), FeatureDim)
	}
	nb.Reach, nb.Nbr, nb.Depths = nb.Reach[:0], nb.Nbr[:0], nb.Depths[:0]
	for i, e := range es {
		copy(nb.X.Data[i*stride*FeatureDim:], e.X.Data)
		nb.Reach = append(nb.Reach, e.ReachMask)
		nb.Nbr = append(nb.Nbr, e.Nbr)
		nb.Depths = append(nb.Depths, e.Depths)
	}
	hc := headCounts
	if b > len(hc) {
		hc = make([]int, b)
		for i := range hc {
			hc[i] = 1
		}
	}
	nb.HeadLayout = tensor.BatchLayout{B: b, Stride: 1, Counts: hc[:b]}
	return nil
}
