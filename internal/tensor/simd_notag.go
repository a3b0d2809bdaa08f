//go:build !nosimd

package tensor

// noSIMDTag is false without the nosimd build tag; see simd_tag.go.
const noSIMDTag = false
