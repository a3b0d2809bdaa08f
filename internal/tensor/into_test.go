package tensor

import (
	"math"
	"math/rand"
	"testing"

	"predtop/internal/xmath"
)

// Property tests: every destination-passing / in-place / fused kernel must
// be bitwise-equal to a naive reference on random shapes, including
// degenerate ones (R or C = 0, 1×C rows, R×1 columns).

func randT(rng *rand.Rand, r, c int) *Tensor {
	t := New(r, c)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func wantBitwise(t *testing.T, op string, got, want *Tensor) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s shape %dx%d want %dx%d", op, got.R, got.C, want.R, want.C)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s differs at %d: %x != %x",
				op, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

// naive references reproducing the seed implementations operation-for-
// operation (the kernels must be bitwise-identical, not just close).

func refMatMul(a, b *Tensor) *Tensor {
	out := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for p := 0; p < a.C; p++ {
			av := a.At(i, p)
			for j := 0; j < b.C; j++ {
				out.Data[i*b.C+j] += av * b.At(p, j)
			}
		}
	}
	return out
}

func refMatMulBT(a, b *Tensor) *Tensor {
	out := New(a.R, b.R)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.R; j++ {
			s := 0.0
			for p := 0; p < a.C; p++ {
				s += a.At(i, p) * b.At(j, p)
			}
			out.Data[i*b.R+j] = s
		}
	}
	return out
}

func refTranspose(t *Tensor) *Tensor {
	out := New(t.C, t.R)
	for i := 0; i < t.R; i++ {
		for j := 0; j < t.C; j++ {
			out.Data[j*t.R+i] = t.At(i, j)
		}
	}
	return out
}

// refSoftmaxRows is the seed implementation, including its per-element
// mask.At(i, j) access pattern and all-masked-row zeroing, with xmath.Exp,
// softmax's exp on every host, in place of math.Exp.
func refSoftmaxRows(t, mask *Tensor) *Tensor {
	out := New(t.R, t.C)
	for i := 0; i < t.R; i++ {
		row := t.Row(i)
		orow := out.Row(i)
		maxv := math.Inf(-1)
		for j, v := range row {
			if mask != nil {
				v += mask.At(i, j)
			}
			orow[j] = v
			if v > maxv {
				maxv = v
			}
		}
		if math.IsInf(maxv, -1) {
			clear(orow)
			continue
		}
		sum := 0.0
		for j, v := range orow {
			e := xmath.Exp(v - maxv)
			orow[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out
}

var propShapes = [][2]int{
	{0, 0}, {0, 3}, {3, 0}, {1, 1}, {1, 7}, {7, 1}, {2, 3}, {5, 5},
	{1, 64}, {64, 1}, {16, 16}, {3, 33}, {33, 3}, {17, 40},
}

func TestMatMulKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, mk := range propShapes {
		for _, n := range []int{0, 1, 2, 5, 33} {
			m, k := mk[0], mk[1]
			a, b := randT(rng, m, k), randT(rng, k, n)
			wantBitwise(t, "MatMul", matMul(a, b), refMatMul(a, b))

			// MatMulBT's dot kernel accumulates four unrolled partial sums,
			// so it matches a sequential reference only to rounding, not
			// bitwise.
			bt := randT(rng, n, k)
			if got, want := matMulBT(a, bt), refMatMulBT(a, bt); !AllClose(got, want, 1e-9) {
				t.Fatalf("MatMulBT %dx%d·(%dx%d)ᵀ diverges from reference", m, k, n, k)
			}

			at := randT(rng, k, m) // MatMulAT(at, b) with at k×m, b … needs equal rows
			bb := randT(rng, k, n)
			wantBitwise(t, "MatMulAT", matMulAT(at, bb), refMatMul(refTranspose(at), bb))
		}
	}
}

func TestLinearIntoMatchesMatMulAddRowVec(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, mk := range propShapes {
		for _, n := range []int{1, 3, 64} {
			m, k := mk[0], mk[1]
			x, w, bias := randT(rng, m, k), randT(rng, k, n), randT(rng, 1, n)
			got := New(m, n)
			LinearInto(got, x, w, bias)
			want := matMul(x, w)
			for i := 0; i < m; i++ {
				for j, b := range bias.Data {
					want.Data[i*n+j] += b
				}
			}
			wantBitwise(t, "LinearInto", got, want)
		}
	}
}

func TestElementwiseKernelsMatchZipWith(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range propShapes {
		a, b := randT(rng, sh[0], sh[1]), randT(rng, sh[0], sh[1])
		wantBitwise(t, "Add", add(a, b), zipWith(a, b, func(x, y float64) float64 { return x + y }))
		wantBitwise(t, "Sub", sub(a, b), zipWith(a, b, func(x, y float64) float64 { return x - y }))
		wantBitwise(t, "Mul", mul(a, b), zipWith(a, b, func(x, y float64) float64 { return x * y }))
	}
}

// TestIntoKernelsAliasedDst: kernels documented as alias-safe must produce
// identical results when dst is one of their operands.
func TestIntoKernelsAliasedDst(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, sh := range propShapes {
		a, b := randT(rng, sh[0], sh[1]), randT(rng, sh[0], sh[1])

		check := func(op string, want *Tensor, run func(dst *Tensor)) {
			t.Helper()
			dst := a.Clone()
			run(dst)
			wantBitwise(t, op+" aliased", dst, want)
		}
		check("AddInto", add(a, b), func(dst *Tensor) { AddInto(dst, dst, b) })
		check("SubInto", sub(a, b), func(dst *Tensor) { SubInto(dst, dst, b) })
		check("MulInto", mul(a, b), func(dst *Tensor) { MulInto(dst, dst, b) })
		check("ScaleInto", scale(a, -1.5), func(dst *Tensor) { ScaleInto(dst, dst, -1.5) })
		check("SoftmaxRowsInto", softmaxRows(a, nil), func(dst *Tensor) { SoftmaxRowsInto(dst, dst, nil) })
	}
}

func TestSoftmaxRowsMaskedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ninf := math.Inf(-1)
	for _, sh := range propShapes {
		x := randT(rng, sh[0], sh[1])
		mask := New(sh[0], sh[1])
		for i := range mask.Data {
			if rng.Intn(3) == 0 {
				mask.Data[i] = ninf
			}
		}
		// Force one fully-masked row when there is room: it must yield
		// zeros, not NaN.
		if sh[0] > 0 && sh[1] > 0 {
			for j := range mask.Row(0) {
				mask.Row(0)[j] = ninf
			}
		}
		got := softmaxRows(x, mask)
		wantBitwise(t, "SoftmaxRows masked", got, refSoftmaxRows(x, mask))
		// In-place form over the same inputs.
		inplace := x.Clone()
		SoftmaxRowsInto(inplace, inplace, mask)
		wantBitwise(t, "SoftmaxRowsInto aliased masked", inplace, got)
	}
}

// TestTransposeBlockedMatchesNaive: Aᵀ·I through the weight-gradient kernel
// is the transpose, bit for bit (every product is a value times 1 or times
// 0). matmulATAccum consumes input rows in blocks of four, then two, then one,
// so the shapes include row counts on both sides of every block edge and the
// degenerate ones.
func TestTransposeBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	shapes := append([][2]int{}, propShapes...)
	shapes = append(shapes, [2]int{4, 4}, [2]int{6, 9}, [2]int{11, 2}, [2]int{100, 65})
	for _, sh := range shapes {
		x := randT(rng, sh[0], sh[1])
		wantBitwise(t, "MatMulAT·I", matMulAT(x, Eye(sh[0])), refTranspose(x))
	}
}

func TestReductionAndLayoutKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sh := range propShapes {
		r, c := sh[0], sh[1]
		x := randT(rng, r, c)

		sumRows := New(1, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				sumRows.Data[j] += x.At(i, j)
			}
		}
		got := New(1, c)
		SumRowsInto(got, x)
		wantBitwise(t, "SumRows", got, sumRows)

		if r == c { // an edge vector over the complete graph is a square matrix
			want := New(r, 1)
			for i := 0; i < r; i++ {
				s := 0.0
				for j := 0; j < c; j++ {
					s += x.At(i, j)
				}
				want.Data[i] = s
			}
			wantBitwise(t, "EdgeRowSums", sumCols(x), want)

			colSums := New(r, 1)
			EdgeColSumsInto(colSums, edgeVec(x), complete(r))
			for j := 0; j < c; j++ {
				if math.Float64bits(colSums.Data[j]) != math.Float64bits(sumRows.Data[j]) {
					t.Fatal("EdgeColSums mismatch")
				}
			}
		}

		if c >= 2 {
			lo, hi := 1, c
			sl := sliceCols(x, lo, hi)
			for i := 0; i < r; i++ {
				for j := lo; j < hi; j++ {
					if sl.At(i, j-lo) != x.At(i, j) {
						t.Fatal("SliceCols mismatch")
					}
				}
			}
			y := randT(rng, r, 3)
			cc := concatCols(x, y)
			if cc.R != r || cc.C != c+3 {
				t.Fatalf("ConcatCols shape %dx%d", cc.R, cc.C)
			}
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					if cc.At(i, j) != x.At(i, j) {
						t.Fatal("ConcatCols left half mismatch")
					}
				}
				for j := 0; j < 3; j++ {
					if cc.At(i, c+j) != y.At(i, j) {
						t.Fatal("ConcatCols right half mismatch")
					}
				}
			}
		}

		if r > 0 && r == c {
			av, bv := randT(rng, r, 1), randT(rng, r, 1)
			ao := addOuter(av, bv)
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					want := av.Data[i] + bv.Data[j]
					if math.Float64bits(ao.At(i, j)) != math.Float64bits(want) {
						t.Fatal("EdgeAddOuter mismatch")
					}
				}
			}
		}
	}
}

// TestIntoRejectsBadDst: destination shape mismatches must panic, not
// silently corrupt.
func TestIntoRejectsBadDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulInto accepted a wrong-shaped destination")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(3, 4))
}

// TestKernelTuneBitwiseInvariant: the size-gated serial/parallel split of
// MatMulInto and MatMulBTInto only moves scheduling. A product large enough
// to take the parallel.ForBlocked path must equal, bit for bit, the serial
// forms the model path calls.
func TestKernelTuneBitwiseInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 96
	if n*n*n < parallelMinFlops {
		t.Fatalf("probe %d³ does not cross the parallel threshold %d", n, parallelMinFlops)
	}
	a, b := randT(rng, n, n), randT(rng, n, n)
	got, want := New(n, n), New(n, n)
	MatMulInto(got, a, b)
	MatMulSerialInto(want, a, b)
	wantBitwise(t, "MatMulInto parallel", got, want)
	MatMulBTInto(got, a, b)
	MatMulBTSerialInto(want, a, b, nil)
	wantBitwise(t, "MatMulBTInto parallel", got, want)
}
