package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"predtop/internal/xmath"
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

// TestSIMDKernelsBitwiseEqualScalar runs axpy's SIMD form against its
// scalar form across ragged lengths (vector bodies plus every tail length,
// including empty operands) and asserts bitwise equality. The products are
// held to naive references by TestDenseBitwise.
func TestSIMDKernelsBitwiseEqualScalar(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no AVX2 on this CPU; scalar path is the only path")
	}
	defer SetSIMD(SetSIMD(false))
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 16, 33} {
		x := make([]float64, n)
		fillRandom(rng, x)
		ys := make([]float64, n)
		yv := make([]float64, n)
		fillRandom(rng, ys)
		copy(yv, ys)
		a := rng.NormFloat64()
		SetSIMD(false)
		axpy(a, x, ys)
		SetSIMD(true)
		axpy(a, x, yv)
		requireBitwise(t, "axpy", ys, yv)
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

// dagMask is the additive reachability mask of a random operator DAG on n
// nodes, the mask DAGRA softmaxes under (Eqn 1): position (i, j) is open when
// i == j or one node reaches the other, −Inf otherwise. Each node takes one
// or two predecessors among the three before it, which masks about 28 % of
// the entries at n ≥ 300, the n²-weighted share of the GPT-3 stage masks.
func dagMask(rng *rand.Rand, n int) *Tensor {
	words := (n + 63) / 64
	anc := make([][]uint64, n) // anc[v] has bit u set when u reaches v
	reaches := func(u, v int) bool { return anc[v][u/64]>>(u%64)&1 == 1 }
	for v := range anc {
		anc[v] = make([]uint64, words)
		if v == 0 {
			continue
		}
		for range 1 + rng.Intn(2) {
			p := v - 1 - rng.Intn(min(3, v))
			anc[v][p/64] |= 1 << (p % 64)
			for w := range anc[v] {
				anc[v][w] |= anc[p][w]
			}
		}
	}
	mask := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !reaches(i, j) && !reaches(j, i) {
				mask.Data[i*n+j] = math.Inf(-1)
			}
		}
	}
	return mask
}

// expNormal reports whether x is on expSubAVX2's normal path.
func expNormal(x float64) bool { return x >= -708 && x <= 709 }

// TestSIMDExpBitwise holds expSubAVX2 to xmath.Exp bit for bit on more than
// a million arguments, over every tail length (0–9, 64–701) and with the
// special values in the mix: −Inf (blended to +0), ±0, and the arguments
// that must end the call before their block is stored (NaN, +Inf, x > 709,
// [−745, −708) and below −745). The count it returns is checked exactly, and
// the elements past it must be untouched, aliased or not.
func TestSIMDExpBitwise(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no AVX2+FMA on this CPU; xmath.Exp is the only exp path")
	}
	rng := rand.New(rand.NewSource(19))
	offPath := []func() float64{
		math.NaN,
		func() float64 { return math.Inf(1) },
		func() float64 { return 709 + rng.ExpFloat64() },
		func() float64 { return -708 - rng.Float64()*37 },
		func() float64 { return -745 - rng.ExpFloat64()*100 },
	}
	var lens []int
	for n := range 10 {
		lens = append(lens, n)
	}
	for n := 64; n <= 701; n++ {
		lens = append(lens, n)
	}
	sentinel := math.Float64frombits(0x7FF8DEADBEEF0001)
	computed, negInfs, maskedBlocks := 0, 0, 0
	for rep := range 6 {
		for _, n := range lens {
			m := 0.0 // m = 0 keeps ±0 and the off-path values exact
			if rep%2 == 1 {
				m = rng.NormFloat64() * 10
			}
			src := make([]float64, n)
			for i := range src {
				switch r := rng.Intn(32); {
				case r < 2:
					src[i] = math.Inf(-1)
				case r == 2:
					src[i] = m
				case r == 3:
					src[i] = math.Copysign(0, -1)
				case r < 8:
					src[i] = m + (rng.Float64()*1417 - 708)
				default:
					src[i] = m - rng.ExpFloat64()*4 // softmax range
				}
			}
			if n >= 12 && rng.Intn(2) == 0 {
				// A run of masked scores covering whole blocks of four.
				lo := rng.Intn(n - 11)
				for i := lo; i < lo+12; i++ {
					src[i] = math.Inf(-1)
				}
			}
			if n > 0 && rng.Intn(4) == 0 {
				src[rng.Intn(n)] = offPath[rng.Intn(len(offPath))]() + m
			}
			want := n &^ 3
			for i, v := range src {
				if x := v - m; !expNormal(x) && !math.IsInf(x, -1) {
					want = min(want, i&^3)
					break
				}
			}

			dst := make([]float64, n)
			for i := range dst {
				dst[i] = sentinel
			}
			alias := append([]float64(nil), src...)
			for _, c := range []struct {
				label    string
				dst, src []float64
				rest     []float64 // what dst[done:] must still hold
			}{{"out-of-place", dst, src, dst}, {"aliased", alias, alias, src}} {
				rest := append([]float64(nil), c.rest...)
				done := expSubAVX2(c.dst, c.src, m)
				if done != want {
					t.Fatalf("%s n=%d m=%v: done %d, want %d", c.label, n, m, done, want)
				}
				for i := range done {
					if w := xmath.Exp(src[i] - m); math.Float64bits(c.dst[i]) != math.Float64bits(w) {
						t.Fatalf("%s n=%d m=%v: exp(%v) = %x, xmath.Exp %x",
							c.label, n, m, src[i]-m, math.Float64bits(c.dst[i]), math.Float64bits(w))
					}
				}
				requireBitwise(t, c.label+" past done", rest[done:], c.dst[done:])
			}
			computed += want
			inBlock := 0
			for i, v := range src[:want] {
				if i%4 == 0 {
					inBlock = 0
				}
				if math.IsInf(v-m, -1) {
					negInfs++
					if inBlock++; inBlock == 4 {
						maskedBlocks++
					}
				}
			}
		}
	}
	if computed < 1_000_000 || negInfs == 0 || maskedBlocks == 0 {
		t.Fatalf("kernel computed %d elements (%d −Inf, %d all-−Inf blocks); want ≥ 1M with both",
			computed, negInfs, maskedBlocks)
	}
}

// TestSIMDSoftmaxRowBitwise checks the fused softmax passes (masked and
// maskless, in-place and out-of-place) bitwise against the scalar row loop:
// −Inf mask entries, all-masked rows, NaN logits, DAG reachability masks,
// logit spreads past 708 (xmath.Exp's denormal branch, which ends the exp
// kernel's run), and +Inf logits, at short lengths and at 64–701.
func TestSIMDSoftmaxRowBitwise(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no AVX2 on this CPU; scalar path is the only path")
	}
	defer SetSIMD(SetSIMD(false))
	rng := rand.New(rand.NewSource(13))
	modes := []string{"nomask", "mask", "allmasked", "nan", "dag", "spread", "posinf"}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 33, 64, 255, 300, 701} {
		var dag *Tensor
		for _, mode := range modes {
			row := make([]float64, n)
			if n < 64 {
				fillRandom(rng, row)
			} else {
				for j := range row { // attention-scale logits
					row[j] = rng.NormFloat64() * 4
				}
			}
			var mask *Tensor
			mi := 0
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
			case "dag":
				if dag == nil {
					dag = dagMask(rng, n)
				}
				mask, mi = dag, rng.Intn(n)
			case "spread":
				for range max(n/16, 1) {
					row[rng.Intn(n)] = -700 - rng.Float64()*100
				}
			case "posinf":
				row[rng.Intn(n)] = math.Inf(1)
			}
			want := make([]float64, n)
			got := make([]float64, n)
			SetSIMD(false)
			softmaxRow(want, row, mask, mi)
			SetSIMD(true)
			softmaxRow(got, row, mask, mi)
			requireBitwise(t, "softmaxRow-"+mode, want, got)

			// In-place form (SoftmaxInPlace aliases orow and row).
			wantIP := append([]float64(nil), row...)
			gotIP := append([]float64(nil), row...)
			SetSIMD(false)
			softmaxRow(wantIP, wantIP, mask, mi)
			SetSIMD(true)
			softmaxRow(gotIP, gotIP, mask, mi)
			requireBitwise(t, "softmaxRow-inplace-"+mode, wantIP, gotIP)
		}
	}
}

// BenchmarkSoftmaxRowsMasked times softmax over an n×n score matrix under a
// DAG reachability mask (about 28 % −Inf), the shape DAGRA's attention
// softmaxes, with the AVX2 kernels on and off; ns/elem is per score.
func BenchmarkSoftmaxRowsMasked(b *testing.B) {
	for _, n := range []int{128, 300} {
		rng := rand.New(rand.NewSource(int64(n)))
		scores, mask, out := New(n, n), dagMask(rng, n), New(n, n)
		for i := range scores.Data {
			scores.Data[i] = rng.NormFloat64() * 4
		}
		for _, simd := range []bool{true, false} {
			name := fmt.Sprintf("n=%d/simd=%s", n, map[bool]string{true: "on", false: "off"}[simd])
			b.Run(name, func(b *testing.B) {
				if simd && !SIMDAvailable() {
					b.Skip("no AVX2 on this CPU")
				}
				defer SetSIMD(SetSIMD(simd))
				b.ResetTimer()
				for range b.N {
					SoftmaxRowsInto(out, scores, mask)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*n), "ns/elem")
			})
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
