//go:build nosimd

package tensor

// noSIMDTag turns the AVX2 kernels off by default for the whole process
// (SetSIMD can still switch them on); see simdKernels.
const noSIMDTag = true
