//go:build !amd64

package tensor

// Non-amd64 builds have no SIMD kernels; simdKernels stays false and the
// stubs below are unreachable (every call site checks the flag first).

func simdSupported() bool { return false }

func axpyAVX2(a float64, x, y []float64) { panic("tensor: SIMD kernel on non-amd64") }

func laneBTAVX2(crow, arow, bt []float64, n int, s float64) {
	panic("tensor: SIMD kernel on non-amd64")
}

func pvBlockAVX2(c []float64, ldc int, a []float64, lda int, bd []float64, n int) {
	panic("tensor: SIMD kernel on non-amd64")
}

func atBlockAVX2(dd []float64, n int, a []float64, lda int, b []float64, ldb int) {
	panic("tensor: SIMD kernel on non-amd64")
}

func addInPlaceAVX2(a, b []float64) { panic("tensor: SIMD kernel on non-amd64") }

func addIntoAVX2(dst, a, b []float64) { panic("tensor: SIMD kernel on non-amd64") }

func scaleIntoAVX2(dst, t []float64, s float64) { panic("tensor: SIMD kernel on non-amd64") }

func reluFwdAVX2(v, x []float64) { panic("tensor: SIMD kernel on non-amd64") }

func reluBackAVX2(d, g, x []float64) { panic("tensor: SIMD kernel on non-amd64") }

func leakyFwdAVX2(v, x []float64, alpha float64) { panic("tensor: SIMD kernel on non-amd64") }

func leakyBackAVX2(d, g, x []float64, alpha float64) { panic("tensor: SIMD kernel on non-amd64") }

func softmaxFwdAVX2(orow, row, mrow []float64) float64 { panic("tensor: SIMD kernel on non-amd64") }

func softmaxFwdNMAVX2(orow, row []float64) float64 { panic("tensor: SIMD kernel on non-amd64") }

func softmaxBackRowAVX2(drow, grow, yrow []float64, dotgy float64) {
	panic("tensor: SIMD kernel on non-amd64")
}

func expSubAVX2(dst, src []float64, m float64) int { panic("tensor: SIMD kernel on non-amd64") }
