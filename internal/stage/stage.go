// Package stage turns pipeline-stage operator graphs (internal/ir) into the
// inputs the latency predictors consume: a pruned DAG, Table-I node feature
// vectors with log-scaled tensor dimensions, the reachability attention mask
// of the DAG Transformer (DAGRA, Eqn 1), node depths for the positional
// encoding (DAGPE), and the 1-hop neighbour list the GCN and GAT baselines
// pass messages over.
package stage

import (
	"math"

	"predtop/internal/ir"
	"predtop/internal/tensor"
)

// DAG is the predictor-facing view of a stage graph: node metadata plus
// predecessor lists, in topological order.
type DAG struct {
	Kinds   []ir.Kind
	Classes []ir.Class
	Shapes  [][]int
	DTypes  []ir.DType
	Preds   [][]int
}

// N returns the node count.
func (d *DAG) N() int { return len(d.Kinds) }

// prunedKinds are metadata-only operators removed by graph pruning
// (§IV-B4). The paper names reshape and convert_element_type; broadcast
// carries the same property — its effect (shape and dtype changes between
// connected nodes) remains encoded in the surviving nodes' features.
func prunedKind(k ir.Kind) bool {
	return k == ir.KindReshape || k == ir.KindConvert || k == ir.KindBroadcast
}

// FromGraph converts g to a DAG. With prune set, metadata-only operators are
// removed and their consumers rewired to their producers.
func FromGraph(g *ir.Graph, prune bool) *DAG {
	n := len(g.Nodes)
	keep := make([]bool, n)
	newID := make([]int, n)
	for i, node := range g.Nodes {
		keep[i] = !(prune && node.Class == ir.ClassOperator && prunedKind(node.Kind))
	}
	// resolved maps a (possibly pruned) node to its retained ancestors.
	resolved := make([][]int, n)
	d := &DAG{}
	for i, node := range g.Nodes {
		var preds []int
		seen := make(map[int]bool)
		for _, in := range node.Ins {
			if keep[in.ID] {
				if !seen[newID[in.ID]] {
					seen[newID[in.ID]] = true
					preds = append(preds, newID[in.ID])
				}
				continue
			}
			for _, p := range resolved[in.ID] {
				if !seen[p] {
					seen[p] = true
					preds = append(preds, p)
				}
			}
		}
		if !keep[i] {
			resolved[i] = preds
			continue
		}
		newID[i] = len(d.Kinds)
		d.Kinds = append(d.Kinds, node.Kind)
		d.Classes = append(d.Classes, node.Class)
		d.Shapes = append(d.Shapes, node.Shape)
		d.DTypes = append(d.DTypes, node.DType)
		d.Preds = append(d.Preds, preds)
	}
	return d
}

// bitset is a fixed-size bit vector used for transitive-closure computation.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// Ancestors returns, for each node, the bitset of its (transitive)
// predecessors.
func (d *DAG) Ancestors() []bitset {
	n := d.N()
	anc := make([]bitset, n)
	for v := 0; v < n; v++ {
		anc[v] = newBitset(n)
		for _, p := range d.Preds[v] {
			anc[v].set(p)
			anc[v].or(anc[p])
		}
	}
	return anc
}

// Depths returns each node's longest-path distance from a source node, the
// positional index of DAGPE.
func (d *DAG) Depths() []int {
	depths := make([]int, d.N())
	for v := 0; v < d.N(); v++ {
		for _, p := range d.Preds[v] {
			if depths[p]+1 > depths[v] {
				depths[v] = depths[p] + 1
			}
		}
	}
	return depths
}

// MaxDimFeatures is how many trailing tensor dimensions the feature vector
// records (log-scaled, Table I "Output Tensor Dimensions").
const MaxDimFeatures = 4

// FeatureDim is the width of a Table-I node feature vector: operator-type
// one-hot, log-scaled output dims + log element count, dtype one-hot, and
// node-class one-hot.
const FeatureDim = ir.NumKinds + MaxDimFeatures + 1 + ir.NumDTypes + ir.NumClasses

// Encoded is a stage graph in the exact form the predictors consume. It has
// at least one node: every stage of a built model contains operators, so
// Encode never yields N = 0.
type Encoded struct {
	// X is the N×FeatureDim node feature matrix (Table I).
	X *tensor.Tensor
	// ReachMask is the additive DAGRA attention mask (Eqn 1): 0 where two
	// nodes are connected by a directed path (or equal), −Inf elsewhere.
	ReachMask *tensor.Tensor
	// Nbr is the 1-hop neighbour list (A+I in CSR form): the edges the GAT
	// baseline attends over, with the symmetric-normalized values
	// D^{-1/2}(A+I)D^{-1/2} the GCN baseline aggregates with.
	Nbr *tensor.Neighbours
	// Depths are the DAGPE positional indices.
	Depths []int
}

// N returns the node count.
func (e *Encoded) N() int { return e.X.R }

// Encode computes features, the reachability mask, the neighbour list, and
// depths for d.
func Encode(d *DAG) *Encoded {
	n := d.N()
	x := tensor.New(n, FeatureDim)
	for v := 0; v < n; v++ {
		row := x.Row(v)
		row[int(d.Kinds[v])] = 1
		off := ir.NumKinds
		shape := d.Shapes[v]
		for i := 0; i < MaxDimFeatures; i++ {
			// Right-align dims so the innermost axes land in fixed slots.
			j := len(shape) - MaxDimFeatures + i
			if j >= 0 {
				row[off+i] = math.Log1p(float64(shape[j]))
			}
		}
		numel := 1.0
		for _, dim := range shape {
			numel *= float64(dim)
		}
		row[off+MaxDimFeatures] = math.Log1p(numel)
		off += MaxDimFeatures + 1
		row[off+int(d.DTypes[v])] = 1
		off += ir.NumDTypes
		row[off+int(d.Classes[v])] = 1
	}

	reach := tensor.Full(n, n, math.Inf(-1))
	anc := d.Ancestors()
	for v := 0; v < n; v++ {
		reach.Set(v, v, 0)
		for u := 0; u < v; u++ {
			if anc[v].get(u) {
				reach.Set(v, u, 0)
				reach.Set(u, v, 0)
			}
		}
	}

	return &Encoded{X: x, ReachMask: reach, Nbr: tensor.NewNeighbours(d.Preds), Depths: d.Depths()}
}
