package tensor

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstructors(t *testing.T) {
	if f := Full(2, 3, 7); f.At(1, 2) != 7 || f.Size() != 6 {
		t.Fatalf("Full: %v", f)
	}
	e := Eye(3)
	if e.At(0, 0) != 1 || e.At(0, 1) != 0 || e.Sum() != 3 {
		t.Fatalf("Eye: %v", e)
	}
	rows := FromRows([][]float64{{1, 2}, {3, 4}})
	if rows.At(1, 0) != 3 {
		t.Fatalf("FromRows: %v", rows)
	}
	rng := rand.New(rand.NewSource(1))
	u := RandUniform(rng, 10, 10, -0.5, 0.5)
	for _, v := range u.Data {
		if v < -0.5 || v > 0.5 {
			t.Fatalf("RandUniform out of range: %v", v)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := Full(2, 2, 1)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestZeroFillMaxAbs(t *testing.T) {
	a := Full(2, 2, -3)
	if a.MaxAbs() != 3 {
		t.Fatalf("MaxAbs %v", a.MaxAbs())
	}
	if a.Sum() != -12 {
		t.Fatalf("Sum %v", a.Sum())
	}
	a.Zero()
	if a.MaxAbs() != 0 {
		t.Fatal("Zero")
	}
}

func TestStringRendering(t *testing.T) {
	small := Full(2, 2, 1)
	if !strings.Contains(small.String(), "2x2") {
		t.Fatalf("String: %q", small.String())
	}
	big := New(100, 100)
	if strings.Count(big.String(), "\n") > 0 {
		t.Fatal("large tensors should not dump contents")
	}
}

func TestScaleMapLinearity(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(2))}
	f := func(seed int64, s float64) bool {
		if s != s || s > 1e6 || s < -1e6 {
			s = 2
		}
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, 3, 4, 1)
		left := scale(add(a, a), s)
		right := add(scale(a, s), scale(a, s))
		return AllClose(left, right, 1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMatMulDistributesOverAdd: A·(B+C) == A·B + A·C.
func TestMatMulDistributesOverAdd(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(3))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := Randn(rng, m, k, 1)
		b := Randn(rng, k, n, 1)
		c := Randn(rng, k, n, 1)
		left := matMul(a, add(b, c))
		right := add(matMul(a, b), matMul(a, c))
		return AllClose(left, right, 1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTransposeMatMul: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestTransposeMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Randn(rng, 5, 7, 1)
	b := Randn(rng, 7, 4, 1)
	left := refTranspose(matMul(a, b))
	right := matMulAT(b, refTranspose(a))
	if !AllClose(left, right, 1e-9) {
		t.Fatal("(AB)ᵀ != BᵀAᵀ")
	}
}

func TestSumRowsColsConsistent(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(5))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := Randn(rng, n, n, 1)
		return abs(sumRows(a).Sum()-a.Sum()) < 1e-9 && abs(sumCols(a).Sum()-a.Sum()) < 1e-9
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
