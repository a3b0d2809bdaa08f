package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randTensor(rng *rand.Rand, r, c int) *Tensor {
	return Randn(rng, r, c, 1)
}

// naiveMatMul is the reference triple loop used to validate the blocked path.
func naiveMatMul(a, b *Tensor) *Tensor {
	out := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			s := 0.0
			for k := 0; k < a.C; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {17, 33, 9}, {64, 16, 64}} {
		a := randTensor(rng, dims[0], dims[1])
		b := randTensor(rng, dims[1], dims[2])
		got := matMul(a, b)
		want := naiveMatMul(a, b)
		if !AllClose(got, want, 1e-9) {
			t.Fatalf("MatMul %v mismatch", dims)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randTensor(rng, 6, 6)
	if !AllClose(matMul(a, Eye(6)), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !AllClose(matMul(Eye(6), a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulBT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randTensor(rng, 5, 8)
	b := randTensor(rng, 7, 8)
	got := matMulBT(a, b)
	want := matMul(a, refTranspose(b))
	if !AllClose(got, want, 1e-9) {
		t.Fatal("MatMulBT != A·Bᵀ")
	}
}

func TestMatMulAT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randTensor(rng, 9, 4)
	b := randTensor(rng, 9, 6)
	got := matMulAT(a, b)
	want := matMul(refTranspose(a), b)
	if !AllClose(got, want, 1e-9) {
		t.Fatal("MatMulAT != Aᵀ·B")
	}
}

// TestTransposeInvolution: Aᵀ·I is the transpose, exactly — every product is
// a value times 1 or a value times 0 — so two trips through the Aᵀ·B kernel
// against identities must hand back the input unchanged.
func TestTransposeInvolution(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(5))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randTensor(rng, 1+rng.Intn(10), 1+rng.Intn(10))
		at := matMulAT(a, Eye(a.R))
		return AllClose(at, refTranspose(a), 0) && AllClose(matMulAT(at, Eye(a.C)), a, 0)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAssociativityWithVectors(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(6))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		x := randTensor(rng, n, 1)
		left := matMul(matMul(a, b), x)
		right := matMul(a, matMul(b, x))
		return AllClose(left, right, 1e-8)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseOpsAndBroadcast(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	if got := add(a, b); !AllClose(got, FromRows([][]float64{{6, 8}, {10, 12}}), 0) {
		t.Fatalf("Add: %v", got)
	}
	if got := mul(a, b); !AllClose(got, FromRows([][]float64{{5, 12}, {21, 32}}), 0) {
		t.Fatalf("Mul: %v", got)
	}
	if got := sub(b, a); !AllClose(got, Full(2, 2, 4), 0) {
		t.Fatalf("Sub: %v", got)
	}
	// The bias row of the fused linear kernel broadcasts over rows: a·I + v.
	v := FromSlice(1, 2, []float64{10, 20})
	got := New(2, 2)
	LinearInto(got, a, Eye(2), v)
	if !AllClose(got, FromRows([][]float64{{11, 22}, {13, 24}}), 0) {
		t.Fatalf("Linear bias broadcast: %v", got)
	}
}

func TestAddOuter(t *testing.T) {
	a := FromSlice(3, 1, []float64{1, 2, 3})
	b := FromSlice(3, 1, []float64{10, 20, 30})
	got := addOuter(a, b)
	want := FromRows([][]float64{{11, 21, 31}, {12, 22, 32}, {13, 23, 33}})
	if !AllClose(got, want, 0) {
		t.Fatalf("AddOuter: %v", got)
	}
}

func TestSumRowsCols(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if got := sumRows(a); !AllClose(got, FromSlice(1, 3, []float64{12, 15, 18}), 0) {
		t.Fatalf("SumRows: %v", got)
	}
	if got := sumCols(a); !AllClose(got, FromSlice(3, 1, []float64{6, 15, 24}), 0) {
		t.Fatalf("SumCols: %v", got)
	}
	if a.Sum() != 45 {
		t.Fatalf("Sum: %v", a.Sum())
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromRows([][]float64{{0, 0, 0}, {1, 2, 3}})
	s := softmaxRows(a, nil)
	for i := 0; i < s.R; i++ {
		sum := 0.0
		for _, v := range s.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d does not sum to 1: %v", i, sum)
		}
	}
	if math.Abs(s.At(0, 0)-1.0/3) > 1e-12 {
		t.Fatal("uniform logits should give uniform softmax")
	}
	if !(s.At(1, 2) > s.At(1, 1) && s.At(1, 1) > s.At(1, 0)) {
		t.Fatal("softmax not monotone in logits")
	}
}

func TestSoftmaxRowsMask(t *testing.T) {
	inf := math.Inf(-1)
	a := FromRows([][]float64{{1, 5, 1}, {1, 1, 1}})
	mask := FromRows([][]float64{{0, inf, 0}, {inf, inf, inf}})
	s := softmaxRows(a, mask)
	if s.At(0, 1) != 0 {
		t.Fatal("masked position must be zero")
	}
	if math.Abs(s.At(0, 0)-0.5) > 1e-12 || math.Abs(s.At(0, 2)-0.5) > 1e-12 {
		t.Fatalf("unmasked positions should split evenly: %v", s.Row(0))
	}
	for _, v := range s.Row(1) {
		if v != 0 {
			t.Fatal("fully masked row must be all zero, not NaN")
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 100 {
			shift = 1.5
		}
		rng := rand.New(rand.NewSource(seed))
		a := randTensor(rng, 3, 5)
		b := a.Clone()
		for i := range b.Data {
			b.Data[i] += shift
		}
		return AllClose(softmaxRows(a, nil), softmaxRows(b, nil), 1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestConcatSliceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randTensor(rng, 4, 3)
	b := randTensor(rng, 4, 5)
	c := concatCols(a, b)
	if c.R != 4 || c.C != 8 {
		t.Fatalf("ConcatCols shape %dx%d", c.R, c.C)
	}
	if !AllClose(sliceCols(c, 0, 3), a, 0) || !AllClose(sliceCols(c, 3, 8), b, 0) {
		t.Fatal("SliceCols does not invert ConcatCols")
	}
}

func TestInPlaceAccumulators(t *testing.T) {
	a := Full(2, 2, 1)
	AddInPlace(a, Full(2, 2, 2))
	if !AllClose(a, Full(2, 2, 3), 0) {
		t.Fatal("AddInPlace")
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	matMul(New(2, 3), New(2, 3))
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randTensor(rng, 128, 128)
	y := randTensor(rng, 128, 128)
	dst := New(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}
