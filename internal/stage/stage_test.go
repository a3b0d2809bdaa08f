package stage

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"predtop/internal/ir"
	"predtop/internal/models"
	"predtop/internal/tensor"
)

// diamond builds a 4-node diamond graph a→{b,c}→d with a reshape inserted
// between a and b for pruning tests.
func diamondWithReshape() *ir.Graph {
	b := ir.NewBuilder()
	a := b.Input("a", []int{4, 4}, ir.F32)
	r := b.Reshape(a, []int{16})
	r2 := b.Reshape(r, []int{4, 4})
	left := b.Unary(ir.KindExp, r2)
	right := b.Unary(ir.KindTanh, a)
	d := b.Ewise(ir.KindAdd, left, right)
	b.Output(d)
	return b.Graph()
}

func TestFromGraphNoPrune(t *testing.T) {
	g := diamondWithReshape()
	d := FromGraph(g, false)
	if d.N() != len(g.Nodes) {
		t.Fatalf("unpruned DAG has %d nodes, graph %d", d.N(), len(g.Nodes))
	}
}

func TestPruningRemovesAndRewires(t *testing.T) {
	g := diamondWithReshape()
	d := FromGraph(g, true)
	for _, k := range d.Kinds {
		if prunedKind(k) {
			t.Fatalf("pruned kind %v survived", k)
		}
	}
	if d.N() != len(g.Nodes)-2 {
		t.Fatalf("expected 2 nodes pruned: %d of %d", d.N(), len(g.Nodes))
	}
	// exp's predecessor chain must now reach the input directly.
	expID := -1
	for i, k := range d.Kinds {
		if k == ir.KindExp {
			expID = i
		}
	}
	if expID < 0 {
		t.Fatal("exp node missing")
	}
	if len(d.Preds[expID]) != 1 || d.Classes[d.Preds[expID][0]] != ir.ClassInput {
		t.Fatalf("exp not rewired to input: preds %v", d.Preds[expID])
	}
}

func TestPruningPreservesReachability(t *testing.T) {
	// Property: for retained nodes, u reaches v in the pruned DAG iff it did
	// in the unpruned DAG.
	m := models.Build(models.GPT3())
	g := m.StageGraph(1, 2, false)
	full := FromGraph(g, false)
	pruned := FromGraph(g, true)

	// Map retained nodes: rebuild the retention order.
	var retained []int
	for i, node := range g.Nodes {
		if !(node.Class == ir.ClassOperator && prunedKind(node.Kind)) {
			retained = append(retained, i)
		}
	}
	if len(retained) != pruned.N() {
		t.Fatalf("retained %d != pruned %d", len(retained), pruned.N())
	}
	ancFull := full.Ancestors()
	ancPruned := pruned.Ancestors()
	for vi, v := range retained {
		for ui, u := range retained {
			if ui >= vi {
				break
			}
			if ancFull[v].get(u) != ancPruned[vi].get(ui) {
				t.Fatalf("reachability changed for (%d,%d)", u, v)
			}
		}
	}
}

func TestAncestorsAndDepths(t *testing.T) {
	b := ir.NewBuilder()
	a := b.Input("a", []int{2}, ir.F32)
	x := b.Unary(ir.KindExp, a)
	y := b.Unary(ir.KindTanh, x)
	z := b.Ewise(ir.KindAdd, y, a)
	b.Output(z)
	d := FromGraph(b.Graph(), false)
	anc := d.Ancestors()
	// z (index 3) has ancestors {a, x, y}.
	for _, u := range []int{0, 1, 2} {
		if !anc[3].get(u) {
			t.Fatalf("node 3 missing ancestor %d", u)
		}
	}
	if anc[1].get(2) {
		t.Fatal("x should not have y as ancestor")
	}
	depths := d.Depths()
	want := []int{0, 1, 2, 3, 4}
	for i, w := range want {
		if depths[i] != w {
			t.Fatalf("depth[%d]=%d want %d", i, depths[i], w)
		}
	}
}

func TestEncodeFeatures(t *testing.T) {
	m := models.Build(models.GPT3())
	g := m.StageGraph(1, 2, false)
	e := Encode(FromGraph(g, true))
	if e.X.C != FeatureDim {
		t.Fatalf("feature dim %d != %d", e.X.C, FeatureDim)
	}
	if e.N() != e.ReachMask.R || e.N() != e.Nbr.N() || e.N() != len(e.Depths) {
		t.Fatal("inconsistent encoded sizes")
	}
	// One-hot blocks must each sum to exactly 1 per node.
	for v := 0; v < e.N(); v++ {
		row := e.X.Row(v)
		kindSum, dtypeSum, classSum := 0.0, 0.0, 0.0
		for i := 0; i < ir.NumKinds; i++ {
			kindSum += row[i]
		}
		off := ir.NumKinds + MaxDimFeatures + 1
		for i := 0; i < ir.NumDTypes; i++ {
			dtypeSum += row[off+i]
		}
		off += ir.NumDTypes
		for i := 0; i < ir.NumClasses; i++ {
			classSum += row[off+i]
		}
		if kindSum != 1 || dtypeSum != 1 || classSum != 1 {
			t.Fatalf("node %d one-hots: %v %v %v", v, kindSum, dtypeSum, classSum)
		}
	}
	// Dimension features are log-scaled: log1p(2048) ≈ 7.6, far below raw.
	maxDim := 0.0
	for v := 0; v < e.N(); v++ {
		for i := ir.NumKinds; i < ir.NumKinds+MaxDimFeatures+1; i++ {
			if f := e.X.At(v, i); f > maxDim {
				maxDim = f
			}
		}
	}
	if maxDim > 30 || maxDim < 5 {
		t.Fatalf("dim features not log-scaled: max %v", maxDim)
	}
}

func TestReachMaskSymmetricAndSelf(t *testing.T) {
	m := models.Build(models.GPT3())
	g := m.StageGraph(1, 2, false)
	e := Encode(FromGraph(g, true))
	n := e.N()
	for v := 0; v < n; v++ {
		if e.ReachMask.At(v, v) != 0 {
			t.Fatalf("self not attendable at %d", v)
		}
		for u := 0; u < n; u++ {
			if e.ReachMask.At(u, v) != e.ReachMask.At(v, u) {
				t.Fatalf("mask asymmetric at (%d,%d)", u, v)
			}
			mv := e.ReachMask.At(u, v)
			if mv != 0 && !math.IsInf(mv, -1) {
				t.Fatalf("mask value %v not in {0,−Inf}", mv)
			}
		}
	}
}

// denseOneHop is the dense 1-hop construction Encode used before the
// neighbour list replaced it, kept as the oracle the list is checked against:
// the additive n×n mask (0 on A+I, −Inf elsewhere) and D^{-1/2}(A+I)D^{-1/2}.
func denseOneHop(d *DAG) (nbr, adj *tensor.Tensor) {
	n := d.N()
	nbr = tensor.Full(n, n, math.Inf(-1))
	adj = tensor.New(n, n)
	for v := 0; v < n; v++ {
		nbr.Set(v, v, 0)
		adj.Set(v, v, 1)
		for _, p := range d.Preds[v] {
			nbr.Set(v, p, 0)
			nbr.Set(p, v, 0)
			adj.Set(v, p, 1)
			adj.Set(p, v, 1)
		}
	}
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		s := 0.0
		for _, a := range adj.Row(v) {
			s += a
		}
		deg[v] = 1 / math.Sqrt(s)
	}
	for v := 0; v < n; v++ {
		row := adj.Row(v)
		for u := range row {
			row[u] *= deg[v] * deg[u]
		}
	}
	return nbr, adj
}

// checkNeighbours asserts the list's invariants — indices in [0, N), strictly
// ascending within a row, self-loop present — and that it holds exactly the
// dense oracle's entries with bitwise-equal values.
func checkNeighbours(t *testing.T, d *DAG, nb *tensor.Neighbours) {
	t.Helper()
	n := d.N()
	if nb.N() != n {
		t.Fatalf("list has %d rows for %d nodes", nb.N(), n)
	}
	mask, adj := denseOneHop(d)
	edges := 0
	for v := 0; v < n; v++ {
		cols, vals := nb.Row(v)
		edges += len(cols)
		self := false
		for k, u := range cols {
			if u < 0 || u >= n {
				t.Fatalf("row %d: neighbour %d outside [0, %d)", v, u, n)
			}
			if k > 0 && u <= cols[k-1] {
				t.Fatalf("row %d not strictly ascending: %v", v, cols)
			}
			self = self || u == v
			if mask.At(v, u) != 0 {
				t.Fatalf("edge (%d,%d) is masked in the dense oracle", v, u)
			}
			if math.Float64bits(vals[k]) != math.Float64bits(adj.At(v, u)) {
				t.Fatalf("edge (%d,%d): value %v, dense oracle %v", v, u, vals[k], adj.At(v, u))
			}
		}
		if !self {
			t.Fatalf("row %d has no self-loop: %v", v, cols)
		}
		open := 0
		for u := 0; u < n; u++ {
			if mask.At(v, u) == 0 {
				open++
			}
		}
		if open != len(cols) {
			t.Fatalf("row %d: %d neighbours, dense oracle has %d", v, len(cols), open)
		}
	}
	if edges != nb.Edges() {
		t.Fatalf("rows hold %d edges, Edges() says %d", edges, nb.Edges())
	}
}

func TestNeighboursMatchDenseOracle(t *testing.T) {
	for _, m := range []*models.Model{models.Build(models.GPT3()), models.Build(models.MoE())} {
		for _, prune := range []bool{false, true} {
			d := FromGraph(m.StageGraph(1, 3, true), prune)
			checkNeighbours(t, d, Encode(d).Nbr)
		}
	}
}

// FuzzNeighbours drives the list's one constructor with random DAGs — a
// single node, isolated sources, fan-in from the same producer twice,
// consumers rewired through pruned reshapes, and duplicate predecessor
// entries written straight into DAG.Preds — and holds every result to the
// invariants and to the dense oracle.
func FuzzNeighbours(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 6, 3, 7, 2, 11, 0, 14, 5})
	f.Add([]byte{3, 3, 3, 2, 2, 7, 7, 255, 254, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		shape := []int{4}
		b := ir.NewBuilder()
		nodes := []*ir.Node{b.Input("x", shape, ir.F32)}
		pick := func(c byte) *ir.Node { return nodes[int(c)%len(nodes)] }
		for _, c := range data {
			var n *ir.Node
			switch c % 4 {
			case 0:
				n = b.Input("x", shape, ir.F32)
			case 1:
				n = b.Unary(ir.KindExp, pick(c/4))
			case 2:
				n = b.Ewise(ir.KindAdd, pick(c/4), pick(c/16))
			case 3:
				n = b.Reshape(pick(c/4), shape)
			}
			nodes = append(nodes, n)
		}
		d := FromGraph(b.Graph(), true)
		if d.N() == 0 {
			t.Fatal("pruning removed every node")
		}
		for v, c := range data {
			if v < d.N() && c >= 128 && len(d.Preds[v]) > 0 {
				d.Preds[v] = append(d.Preds[v], d.Preds[v][0])
			}
		}
		checkNeighbours(t, d, Encode(d).Nbr)
	})
}

// TestNeighborMaskSubsetOfReachMask: every 1-hop neighbour is reachable, so
// the GAT's attention support sits inside the DAG Transformer's.
func TestNeighborMaskSubsetOfReachMask(t *testing.T) {
	m := models.Build(models.MoE())
	g := m.StageGraph(2, 3, false)
	e := Encode(FromGraph(g, true))
	for v := 0; v < e.N(); v++ {
		cols, _ := e.Nbr.Row(v)
		for _, u := range cols {
			if e.ReachMask.At(v, u) != 0 {
				t.Fatalf("neighbor (%d,%d) not reachable", v, u)
			}
		}
	}
}

func TestAdjNormRowsStochasticLike(t *testing.T) {
	m := models.Build(models.GPT3())
	g := m.StageGraph(1, 2, false)
	e := Encode(FromGraph(g, true))
	// Symmetric normalization keeps entries in (0,1] and the matrix
	// symmetric.
	at := func(v, u int) float64 {
		cols, vals := e.Nbr.Row(v)
		if k, ok := slices.BinarySearch(cols, u); ok {
			return vals[k]
		}
		return 0
	}
	for v := 0; v < e.N(); v++ {
		if at(v, v) <= 0 {
			t.Fatalf("no self loop at %d", v)
		}
		cols, vals := e.Nbr.Row(v)
		for k, u := range cols {
			if a := vals[k]; a <= 0 || a > 1 {
				t.Fatalf("adj value %v out of range", a)
			}
			if vals[k] != at(u, v) {
				t.Fatalf("adj asymmetric at (%d,%d)", v, u)
			}
		}
	}
}

func TestAllSpecs(t *testing.T) {
	specs := AllSpecs(5, 0)
	if len(specs) != 15 { // 5+4+3+2+1
		t.Fatalf("AllSpecs(5): %d", len(specs))
	}
	specs = AllSpecs(5, 2)
	if len(specs) != 9 { // 5 singles + 4 pairs
		t.Fatalf("AllSpecs(5, maxLen 2): %d", len(specs))
	}
	for _, s := range specs {
		if s.Len() < 1 || s.Len() > 2 {
			t.Fatalf("spec %v out of bounds", s)
		}
	}
}

func TestSampleSpecsDiverseAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specs := SampleSpecs(rng, 26, 40, 4)
	if len(specs) != 40 {
		t.Fatalf("sampled %d", len(specs))
	}
	seen := map[Spec]bool{}
	lens := map[int]int{}
	for _, s := range specs {
		if seen[s] {
			t.Fatalf("duplicate spec %v", s)
		}
		seen[s] = true
		lens[s.Len()]++
	}
	for l := 1; l <= 4; l++ {
		if lens[l] == 0 {
			t.Fatalf("no stages of length %d sampled", l)
		}
	}
}

func TestSampleSpecsExhaustsUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	specs := SampleSpecs(rng, 4, 100, 0)
	if len(specs) != 10 {
		t.Fatalf("universe size %d", len(specs))
	}
}

// TestSplitProperties: for any n ≥ 1 and any training fraction in [0, 1.5]
// — out-of-range values included — Split partitions [0, n) with at least one
// training index and never panics.
func TestSplitProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	f := func(seed int64, nRaw uint8, fracRaw uint16) bool {
		n := int(nRaw)%100 + 1
		trainFrac := 1.5 * float64(fracRaw) / math.MaxUint16
		rng := rand.New(rand.NewSource(seed))
		train, val, test := Split(rng, n, trainFrac, 0.1)
		if len(train)+len(val)+len(test) != n {
			return false
		}
		seen := make(map[int]bool, n)
		for _, idx := range append(append(append([]int{}, train...), val...), test...) {
			if idx < 0 || idx >= n || seen[idx] {
				return false
			}
			seen[idx] = true
		}
		return len(train) >= 1
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetOps(t *testing.T) {
	b := newBitset(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.set(i)
		if !b.get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.get(1) || b.get(128) {
		t.Fatal("unexpected bits set")
	}
	o := newBitset(130)
	o.set(5)
	b.or(o)
	if !b.get(5) || !b.get(129) {
		t.Fatal("or failed")
	}
}

func TestAncestorsTransitive(t *testing.T) {
	// Property: ancestor sets are transitively closed.
	m := models.Build(models.GPT3())
	d := FromGraph(m.StageGraph(1, 3, false), true)
	anc := d.Ancestors()
	for v := 0; v < d.N(); v++ {
		for u := 0; u < v; u++ {
			if !anc[v].get(u) {
				continue
			}
			for w := 0; w < u; w++ {
				if anc[u].get(w) && !anc[v].get(w) {
					t.Fatalf("transitivity broken: %d→%d→%d", w, u, v)
				}
			}
		}
	}
}

func TestDepthsMonotoneAlongEdges(t *testing.T) {
	m := models.Build(models.MoE())
	d := FromGraph(m.StageGraph(2, 3, false), true)
	depths := d.Depths()
	for v := 0; v < d.N(); v++ {
		for _, p := range d.Preds[v] {
			if depths[v] <= depths[p] {
				t.Fatalf("depth not increasing along edge %d→%d", p, v)
			}
		}
	}
}

func TestFeatureDimConstant(t *testing.T) {
	// The predictors' input width is a compile-time constant; catch
	// accidental drift when op kinds or dtypes are added.
	if FeatureDim != ir.NumKinds+MaxDimFeatures+1+ir.NumDTypes+ir.NumClasses {
		t.Fatal("FeatureDim formula drifted")
	}
}

// TestSampleSpecsSeedReproducible pins the sampler to its seed: the shuffle
// loop used to range over a map, consuming RNG draws in a run-dependent
// order, so the "same" seed yielded different stage sets across runs (and
// broke worker-count invariance of whole experiment grids downstream).
func TestSampleSpecsSeedReproducible(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		a := SampleSpecs(rand.New(rand.NewSource(42)), 26, 40, 4)
		b := SampleSpecs(rand.New(rand.NewSource(42)), 26, 40, 4)
		if len(a) != len(b) {
			t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: spec %d differs: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}
