// Package xmath owns the exp and the fractional pow on the golden literals'
// path: math.Exp's last bit depends on the CPU and GODEBUG, these do not.
package xmath

import "math"

// Exp returns e**x: math.Exp's fused (AVX+FMA) amd64 sequence in Go, bit for
// bit, with math.FMA, which is exactly rounded on every host. Every unfused
// product is written float64(...) so that no compiler may fuse it.
func Exp(x float64) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	// k is x·log2e rounded to nearest even, as CVTSD2SL rounds it: adding
	// and subtracting 1.5·2^52 rounds exactly below 2^51, and a larger |k|,
	// or NaN, fails the bounds.
	k := float64(float64(x*log2e)+0x1.8p52) - 0x1.8p52
	if !(k >= -1075 && k <= 1023) {
		switch {
		case x != x:
			return x // NaN, payload kept
		case k > 0:
			return math.Inf(1) // past math.Exp's overflow bound, +Inf included
		}
		return 0 // below its underflow bound, −Inf and beyond int32 included
	}
	x = math.FMA(-k, ln2u, x)
	x = math.FMA(-k, ln2l, x)
	x *= 0.0625
	// Unrolled: a loop over the coefficients costs ≈ 40 % more per call.
	p := math.FMA(2.4801587301587301587e-5, x, 1.9841269841269841270e-4)
	p = math.FMA(p, x, 1.3888888888888888889e-3)
	p = math.FMA(p, x, 8.3333333333333333333e-3)
	p = math.FMA(p, x, 4.1666666666666666667e-2)
	p = math.FMA(p, x, 1.6666666666666666667e-1)
	p = math.FMA(p, x, 0.5)
	p = math.FMA(p, x, 1)
	x = float64(x * p)
	x = float64(x * (x + 2))
	x = float64(x * (x + 2))
	x = float64(x * (x + 2))
	x = math.FMA(x, x+2, 1)
	if e := int(k) + 1023; e > 0 {
		return x * math.Float64frombits(uint64(e)<<52)
	}
	// Denormal: scale exactly by 2^(k+1022), then round once by 2^−1022.
	x = float64(x * math.Float64frombits(uint64(int(k)+2045)<<52))
	return x * math.Float64frombits(1<<52)
}

// Pow returns x**y for finite x ≥ 0 and |y| < 1, bit for bit what math.Pow
// returns where math.Exp is fused: it is math.Pow's body for that domain
// with Exp in place of math.Exp (math.Log, Sqrt, Frexp and Ldexp do not
// depend on the host on amd64). Other arguments are a caller's bug: panic.
func Pow(x, y float64) float64 {
	if !(x >= 0 && x <= math.MaxFloat64 && y > -1 && y < 1) {
		panic("xmath: Pow outside finite x ≥ 0, |y| < 1")
	}
	switch {
	case y == 0 || x == 1:
		return 1
	case x == 0:
		if y < 0 {
			return math.Inf(1)
		}
		return 0
	case y == 0.5:
		return math.Sqrt(x)
	case y == -0.5:
		return 1 / math.Sqrt(x)
	}
	// math.Pow splits |y| into integer and fraction parts; here the integer
	// part is 0, or 1 after the shift that keeps the fraction in [−0.5, 0.5].
	a1, yf, ae := 1.0, math.Abs(y), 0
	if yf > 0.5 {
		yf--
		a1, ae = math.Frexp(x)
	}
	a1 = float64(a1 * Exp(float64(yf*math.Log(x))))
	if y < 0 {
		a1, ae = 1/a1, -ae
	}
	return math.Ldexp(a1, ae)
}
