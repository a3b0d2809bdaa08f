package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// fillRandom populates a slice with a mix of magnitudes, signs, exact zeros,
// and negative zeros — the values whose handling distinguishes a correct
// SIMD port from an approximate one.
func fillRandom(rng *rand.Rand, s []float64) {
	for i := range s {
		switch rng.Intn(10) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = math.Copysign(0, -1)
		case 2:
			s[i] = rng.NormFloat64() * 1e-154 // tiny, squares to subnormal range
		case 3:
			s[i] = rng.NormFloat64() * 1e8
		default:
			s[i] = rng.NormFloat64()
		}
	}
}

func requireBitwise(t *testing.T, label string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s[%d]: scalar %x != simd %x (%v vs %v)",
				label, i, math.Float64bits(want[i]), math.Float64bits(got[i]), want[i], got[i])
		}
	}
}

// TestSIMDKernelsBitwiseEqualScalar runs every SIMD-dispatched kernel against
// its scalar form across ragged shapes (vector bodies plus every tail length,
// including empty operands) and asserts bitwise equality.
func TestSIMDKernelsBitwiseEqualScalar(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no AVX2 on this CPU; scalar path is the only path")
	}
	defer SetSIMD(SetSIMD(false))
	rng := rand.New(rand.NewSource(42))
	for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 33} {
			b0 := rng.Intn(3)
			bd := make([]float64, (b0+k+1)*max(n, 1))
			arow := make([]float64, k)
			fillRandom(rng, bd)
			fillRandom(rng, arow)

			scalar := make([]float64, n)
			simd := make([]float64, n)
			fillRandom(rng, scalar)
			copy(simd, scalar)
			SetSIMD(false)
			matmulRowKernel(scalar, arow, bd, b0, n)
			SetSIMD(true)
			matmulRowKernel(simd, arow, bd, b0, n)
			requireBitwise(t, "matmulRowKernel", scalar, simd)

			// BT: m outputs of length-k dots (reuse n as m).
			m := n
			bt := make([]float64, (b0+m+1)*max(k, 1))
			fillRandom(rng, bt)
			scalarBT := make([]float64, m)
			simdBT := make([]float64, m)
			SetSIMD(false)
			matmulBTRowKernel(scalarBT, arow, bt, b0, m, k)
			SetSIMD(true)
			matmulBTRowKernel(simdBT, arow, bt, b0, m, k)
			requireBitwise(t, "matmulBTRowKernel", scalarBT, simdBT)

			x0 := make([]float64, n)
			x1 := make([]float64, n)
			fillRandom(rng, x0)
			fillRandom(rng, x1)
			ys := make([]float64, n)
			yv := make([]float64, n)
			fillRandom(rng, ys)
			copy(yv, ys)
			a := rng.NormFloat64()
			SetSIMD(false)
			axpy(a, x0, ys)
			SetSIMD(true)
			axpy(a, x0, yv)
			requireBitwise(t, "axpy", ys, yv)

			a1 := rng.NormFloat64()
			SetSIMD(false)
			axpy2(a, a1, x0, x1, ys)
			SetSIMD(true)
			axpy2(a, a1, x0, x1, yv)
			requireBitwise(t, "axpy2", ys, yv)
		}
	}
}

// TestSIMDMatMulBitwise cross-checks the full matmul entry points — the
// level the autodiff tape calls — between the scalar and SIMD kernels.
func TestSIMDMatMulBitwise(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no AVX2 on this CPU; scalar path is the only path")
	}
	defer SetSIMD(SetSIMD(false))
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {8, 8, 8}, {13, 17, 9}, {32, 16, 64}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := New(m, k), New(k, n)
		fillRandom(rng, a.Data)
		fillRandom(rng, b.Data)
		SetSIMD(false)
		wantMM := matMul(a, b)
		SetSIMD(true)
		gotMM := matMul(a, b)
		requireBitwise(t, "MatMul", wantMM.Data, gotMM.Data)

		bt := New(n, k)
		fillRandom(rng, bt.Data)
		SetSIMD(false)
		wantBT := matMulBT(a, bt)
		SetSIMD(true)
		gotBT := matMulBT(a, bt)
		requireBitwise(t, "MatMulBT", wantBT.Data, gotBT.Data)
	}
}

// injectSpecials sprinkles the values whose handling the SIMD ports must
// reproduce exactly: signed zeros, infinities, and (when allowed) NaN.
func injectSpecials(rng *rand.Rand, s []float64, withNaN bool) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	if withNaN {
		specials = append(specials, math.NaN())
	}
	for range len(s)/4 + 1 {
		if len(s) == 0 {
			return
		}
		s[rng.Intn(len(s))] = specials[rng.Intn(len(specials))]
	}
}

func wrap(data []float64) *Tensor { return &Tensor{R: 1, C: len(data), Data: data} }

// TestSIMDElementwiseBitwise checks the elementwise AVX2 kernels —
// AddInPlace, AddInto, ScaleInto, the ReLU family, and SoftmaxBackRow —
// bitwise against their scalar paths, including NaN, ±Inf, and ±0 inputs.
func TestSIMDElementwiseBitwise(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no AVX2 on this CPU; scalar path is the only path")
	}
	defer SetSIMD(SetSIMD(false))
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 33, 64} {
		x := make([]float64, n)
		g := make([]float64, n)
		fillRandom(rng, x)
		fillRandom(rng, g)
		injectSpecials(rng, x, true)

		check := func(label string, f func(dst *Tensor)) {
			t.Helper()
			want := make([]float64, n)
			got := make([]float64, n)
			SetSIMD(false)
			f(wrap(want))
			SetSIMD(true)
			f(wrap(got))
			requireBitwise(t, label, want, got)
		}

		check("ReLUInto", func(dst *Tensor) { ReLUInto(dst, wrap(x)) })
		check("ReLUBackInto", func(dst *Tensor) { ReLUBackInto(dst, wrap(g), wrap(x)) })
		alpha := rng.NormFloat64()
		check("LeakyReLUInto", func(dst *Tensor) { LeakyReLUInto(dst, wrap(x), alpha) })
		check("LeakyReLUBackInto", func(dst *Tensor) { LeakyReLUBackInto(dst, wrap(g), wrap(x), alpha) })
		s := rng.NormFloat64()
		check("ScaleInto", func(dst *Tensor) { ScaleInto(dst, wrap(x), s) })
		check("AddInto", func(dst *Tensor) { AddInto(dst, wrap(x), wrap(g)) })
		dot := rng.NormFloat64()
		check("SoftmaxBackRow", func(dst *Tensor) { SoftmaxBackRow(dst.Data, g, x, dot) })

		// AddInPlace mutates its first argument; seed both runs identically.
		acc := make([]float64, n)
		fillRandom(rng, acc)
		want := append([]float64(nil), acc...)
		got := append([]float64(nil), acc...)
		SetSIMD(false)
		AddInPlace(wrap(want), wrap(x))
		SetSIMD(true)
		AddInPlace(wrap(got), wrap(x))
		requireBitwise(t, "AddInPlace", want, got)

		// ScaleInto aliasing dst == t (softmax's normalize pass).
		want = append([]float64(nil), x...)
		got = append([]float64(nil), x...)
		SetSIMD(false)
		ScaleInto(wrap(want), wrap(want), s)
		SetSIMD(true)
		ScaleInto(wrap(got), wrap(got), s)
		requireBitwise(t, "ScaleInto-alias", want, got)
	}
}

// TestSIMDSoftmaxRowBitwise checks the fused softmax first pass (masked and
// maskless, in-place and out-of-place) bitwise against the scalar row loop,
// including −Inf mask entries, all-masked rows, and NaN logits.
func TestSIMDSoftmaxRowBitwise(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no AVX2 on this CPU; scalar path is the only path")
	}
	defer SetSIMD(SetSIMD(false))
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 33} {
		for _, mode := range []string{"nomask", "mask", "allmasked", "nan"} {
			row := make([]float64, n)
			fillRandom(rng, row)
			var mask *Tensor
			switch mode {
			case "mask":
				mask = New(1, n)
				for j := range mask.Data {
					if rng.Intn(3) == 0 {
						mask.Data[j] = math.Inf(-1)
					}
				}
			case "allmasked":
				mask = New(1, n)
				for j := range mask.Data {
					mask.Data[j] = math.Inf(-1)
				}
			case "nan":
				row[rng.Intn(n)] = math.NaN()
			}
			want := make([]float64, n)
			got := make([]float64, n)
			SetSIMD(false)
			softmaxRow(want, row, mask, 0)
			SetSIMD(true)
			softmaxRow(got, row, mask, 0)
			requireBitwise(t, "softmaxRow-"+mode, want, got)

			// In-place form (SoftmaxInPlace aliases orow and row).
			wantIP := append([]float64(nil), row...)
			gotIP := append([]float64(nil), row...)
			SetSIMD(false)
			softmaxRow(wantIP, wantIP, mask, 0)
			SetSIMD(true)
			softmaxRow(gotIP, gotIP, mask, 0)
			requireBitwise(t, "softmaxRow-inplace-"+mode, wantIP, gotIP)
		}
	}
}

// TestSIMDMatMulATBitwise checks the transposed-gradient quad, pair and row
// kernels — the matmulATAccum inner loops, through MatMulATInto — bitwise
// against the scalar path, with one-hot-heavy coefficient matrices so the
// `av != 0` skip paths and the NaN-coefficient nonzero path are all
// exercised. Row counts cover every remainder of the four-row blocks.
func TestSIMDMatMulATBitwise(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no AVX2 on this CPU; scalar path is the only path")
	}
	defer SetSIMD(SetSIMD(false))
	rng := rand.New(rand.NewSource(17))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 8, 7}, {6, 3, 5}, {7, 4, 9}, {9, 16, 13}, {13, 5, 32}} {
		r, m, n := dims[0], dims[1], dims[2]
		a, b := New(r, m), New(r, n)
		fillRandom(rng, b.Data)
		for i := range a.Data { // one-hot-heavy: mostly zeros
			switch rng.Intn(4) {
			case 0:
				a.Data[i] = rng.NormFloat64()
			case 1:
				a.Data[i] = math.Copysign(0, -1)
			}
		}
		a.Data[rng.Intn(len(a.Data))] = math.NaN()
		want, got := New(m, n), New(m, n)
		SetSIMD(false)
		MatMulATInto(want, a, b)
		SetSIMD(true)
		MatMulATInto(got, a, b)
		requireBitwise(t, "MatMulAT", want.Data, got.Data)
	}
}
