package tensor

// simdKernels gates the AVX2 row kernels. It defaults to hardware support —
// off in a build with the nosimd tag (`go test -tags nosimd`, simd_tag.go) —
// and exists as a mutable flag so the determinism tests can run the
// identical workload with and without SIMD and assert bitwise equality — the
// kernels are constructed to make that hold (see simd_amd64.go). A build tag
// rather than an environment variable sets the default because the go
// command keys its test cache on the tags: a nosimd run never replays a
// cached SIMD-on result.
var simdKernels = simdSupported() && !noSIMDTag

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
