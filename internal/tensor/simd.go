package tensor

import (
	"math"
	"os"
)

// simdKernels gates the AVX2 row kernels. It defaults to hardware support
// (overridable with PREDTOP_SIMD=off) and exists as a mutable flag so the
// determinism tests can run the identical workload with and without SIMD and
// assert bitwise equality — the kernels are constructed to make that hold
// (see simd_amd64.go).
var simdKernels = initSIMD()

func initSIMD() bool {
	if os.Getenv("PREDTOP_SIMD") == "off" {
		return false
	}
	return simdSupported()
}

// simdExp additionally gates softmaxRow's exp kernel, expSubAVX2, which is
// bit-equal to math.Exp only while math.Exp takes its own fused (AVX+FMA)
// path. Whether it does is math's decision, not the CPU's alone — under
// GODEBUG=cpu.fma=off it runs its unfused sequence — so after the CPUID
// check a probe at init compares the kernel with math.Exp on inputs where
// the two sequences round differently, and the kernel stays off unless
// every bit agrees. Where it is off, the scalar math.Exp loop runs.
var simdExp = simdSupported() && fmaSupported() && expProbe()

// expProbeInputs are exactly representable arguments whose fused and
// unfused exp differ in the last bit (TestSIMDExpBitwise checks that they
// still do); two whole blocks, so the kernel computes every one.
var expProbeInputs = [8]float64{-2.375, -3.75, -5.375, -5.75, -6.625, -6.75, -8.625, -11.25}

func expProbe() bool {
	var got [len(expProbeInputs)]float64
	if expSubAVX2(got[:], expProbeInputs[:], 0) != len(got) {
		return false
	}
	for i, x := range expProbeInputs {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// SIMDAvailable reports whether this CPU supports the AVX2 kernels,
// regardless of whether they are currently enabled.
func SIMDAvailable() bool { return simdSupported() }

// SIMDEnabled reports whether the AVX2 kernels are in use.
func SIMDEnabled() bool { return simdKernels }

// SetSIMD enables or disables the AVX2 kernels and returns the previous
// setting. Enabling is a no-op on hardware without AVX2. Results are bitwise
// identical either way; this exists for verification (the determinism tests
// cross-check the two paths) and benchmarking, not tuning. Not safe to call
// concurrently with running kernels.
func SetSIMD(on bool) bool {
	prev := simdKernels
	simdKernels = on && simdSupported()
	return prev
}
