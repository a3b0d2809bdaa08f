package xmath

import (
	"math"
	"math/rand"
	"testing"
)

// expUnfused replays math.archExp's SSE2 sequence, the path math.Exp takes
// without FMA, for an argument on its normal path (−708 ≤ x ≤ 709). Every
// product is converted explicitly so the compiler cannot fuse it.
func expUnfused(x float64) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	k := math.RoundToEven(float64(x * log2e))
	x -= float64(k * ln2u)
	x -= float64(k * ln2l)
	x *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range [...]float64{1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1} {
		p = float64(p*x) + c
	}
	x *= p
	for range 4 {
		x = float64(x * (x + 2))
	}
	x++
	return x * math.Float64frombits(uint64(k+1023)<<52)
}

// fusedOnly are exactly representable arguments whose fused and unfused exp
// differ in the last bit.
var fusedOnly = []float64{-2.375, -3.75, -5.375, -5.75, -6.625, -6.75, -8.625, -11.25}

// requireFusedMathExp skips the test unless math.Exp takes its fused path on
// this host (it does not under GODEBUG=cpu.fma=off, on amd64 CPUs without
// FMA, or off amd64): only then is math.Exp the reference Exp must match.
// The check also pins that Exp is the fused sequence, not the unfused one.
func requireFusedMathExp(t *testing.T) {
	t.Helper()
	fused := false
	for _, x := range fusedOnly {
		if Exp(x) == expUnfused(x) {
			t.Fatalf("Exp(%v) = %v matches the unfused sequence", x, Exp(x))
		}
		fused = fused || math.Exp(x) != expUnfused(x)
	}
	if !fused {
		t.Skip("math.Exp takes its unfused path on this host; Exp has no reference here")
	}
}

// TestExpMatchesMathExp holds Exp to the fused math.Exp bit for bit on the
// special values, on the edges of every branch (overflow, the denormal
// branch's two multiplications, underflow, arguments beyond int32), and on
// over a million sampled arguments: softmax's range, the whole finite range
// of results, and raw bit patterns (NaN payloads included).
func TestExpMatchesMathExp(t *testing.T) {
	requireFusedMathExp(t)
	args := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF8DEADBEEF0001), math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64,
		7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 800), 709.78, 709.7827128933840,
		-708.39, -708.4, -709, -744.44, -745.1, -745.13321910194122, -745.2, -746,
		-2147483648 / math.Log2E, -3e9, -1e300,
	}
	rng := rand.New(rand.NewSource(42))
	for len(args) < 1_200_000 {
		switch rng.Intn(4) {
		case 0:
			args = append(args, -rng.ExpFloat64()*8)
		case 1:
			args = append(args, rng.Float64()*1460-750)
		case 2:
			args = append(args, -708-rng.Float64()*38)
		default:
			args = append(args, math.Float64frombits(rng.Uint64()))
		}
	}
	for _, x := range args {
		if got, want := Exp(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Exp(%v) = %v (%#x), math.Exp %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestPowMatchesMathPow holds Pow to math.Pow bit for bit on its special
// cases, on its callers' arguments (sim's dot efficiency, DAGPE's
// frequencies), and on over a million sampled arguments across its domain,
// with |y| on both sides of the 0.5 shift. Arguments outside the domain
// panic.
func TestPowMatchesMathPow(t *testing.T) {
	requireFusedMathExp(t)
	type xy struct{ x, y float64 }
	args := []xy{
		{0, 0.25}, {0, -0.25}, {0, 0}, {1, 0.7}, {5, 0}, {5, math.Copysign(0, -1)},
		{2, 0.5}, {2, -0.5}, {math.SmallestNonzeroFloat64, 0.9}, {math.MaxFloat64, -0.9},
		{3, math.Nextafter(0.5, 1)}, {3, math.Nextafter(-0.5, -1)}, {7, math.Nextafter(1, 0)},
	}
	for k := 1.0; k <= 65536; k++ {
		args = append(args, xy{k / 512, 0.25}, xy{k / 128, 0.15})
	}
	for dim := 1; dim <= 256; dim++ {
		for i := 0; i < dim; i += 2 {
			args = append(args, xy{10000, -float64(i) / float64(dim)})
		}
	}
	rng := rand.New(rand.NewSource(43))
	for len(args) < 1_100_000 {
		x := math.Exp(rng.Float64()*1400 - 700)
		if rng.Intn(4) == 0 {
			x = rng.Float64() * 4
		}
		args = append(args, xy{x, rng.Float64()*2 - 1})
	}
	for _, a := range args {
		if got, want := Pow(a.x, a.y), math.Pow(a.x, a.y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Pow(%v, %v) = %v (%#x), math.Pow %v (%#x)", a.x, a.y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, a := range []xy{{-1, 0.5}, {math.Inf(1), 0.5}, {math.NaN(), 0.5}, {2, 1}, {2, -1}, {2, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pow(%v, %v) did not panic", a.x, a.y)
				}
			}()
			Pow(a.x, a.y)
		}()
	}
}
