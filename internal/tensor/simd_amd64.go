//go:build amd64

package tensor

// AVX2 kernel bindings. Each assembly routine in simd_amd64.s reproduces the
// exact per-element operation order and accumulator grouping of its scalar
// counterpart — SIMD lanes only carry the already-independent chains — so
// switching the simdKernels flag never changes a single result bit:
//
//   - axpyAVX2 / axpy2AVX2 / matmulRowKernelAVX2: every output element's
//     additions form an independent chain (c + a0·b0 + a1·b1 + …); running
//     four chains per vector instruction is associativity-free.
//   - matmulBTRowKernelAVX2: each output keeps dot's four-accumulator
//     stride-4 pattern in one ymm register (lane m holds scalar accumulator
//     s_m), combines lanes left-associatively like the scalar epilogue, and
//     runs the same scalar tail. Four outputs interleave only to overlap
//     dependency chains.
//   - laneBTAVX2: the same dot per output with the outputs in lanes instead
//     of the accumulators: lane j of register m is output j's s_m, so the
//     combine is three vector adds in dot's order.
//   - pvBlockAVX2 / atBlockAVX2: the chains of matmulRowKernel and of
//     matmulATQuadAVX2's all-nonzero path, four rows at a time, without the
//     zero skips; the caller runs them only on a finite right operand, where
//     a skipped ±0 term cannot change a sum that starts at +0.
//
// No FMA instructions are used anywhere else: fused multiply-adds round once
// where the scalar code rounds twice, which would break bitwise identity.
// The one exception is expSubAVX2, whose scalar counterpart is xmath.Exp:
// that function is itself a fused sequence, written with math.FMA, and the
// kernel runs the same fused steps, so FMA there is what keeps the bits.

//go:noescape
func axpyAVX2(a float64, x, y []float64)

//go:noescape
func axpy2AVX2(a0, a1 float64, x0, x1, y []float64)

//go:noescape
func matmulRowKernelAVX2(crow, arow, bd []float64, b0, n int)

//go:noescape
func matmulBTRowKernelAVX2(crow, arow, bd []float64, b0, m, k int)

// laneBTAVX2 is laneBT's leading multiple of four columns: one output column
// per lane, register m of a column group holding dot's accumulator s_m, the
// lanes combined ((s0+s1)+s2)+s3 by vector adds, then the tail and the scale
// (see simd_amd64.s).
//
//go:noescape
func laneBTAVX2(crow, arow, bt []float64, n int, s float64)

// pvBlockAVX2 and atBlockAVX2 are attention's four-row products with the
// block's outputs (P·V, dS·K) or right-hand rows (dK, dV) held in registers
// across the inner index. They keep the per-element sums of matmulRowKernel
// and matmulATQuadAVX2 but not their per-row zero skips, so the caller runs
// them only on a finite right operand (see simd_amd64.s).
//
//go:noescape
func pvBlockAVX2(c []float64, ldc int, a []float64, lda int, bd []float64, n int)

//go:noescape
func atBlockAVX2(dd []float64, n int, a []float64, lda int, b []float64, ldb int)

// Elementwise kernels: each lane computes exactly the scalar expression for
// its own index, so vectorization is trivially bitwise-transparent.

//go:noescape
func addInPlaceAVX2(a, b []float64)

//go:noescape
func addIntoAVX2(dst, a, b []float64)

//go:noescape
func scaleIntoAVX2(dst, t []float64, s float64)

// reluFwdAVX2 implements math.Max(x, 0): VMAXPD with +0 as the
// on-equal/on-NaN operand maps −0 to +0 like math.Max, and a compare+blend
// rewrites NaN lanes to the canonical NaN math.Max returns.
//
//go:noescape
func reluFwdAVX2(v, x []float64)

// reluBackAVX2 computes d = g where x > 0 (ordered, so NaN gates to 0 like
// the scalar comparison) and +0 elsewhere, via compare + bitwise AND.
//
//go:noescape
func reluBackAVX2(d, g, x []float64)

//go:noescape
func leakyFwdAVX2(v, x []float64, alpha float64)

//go:noescape
func leakyBackAVX2(d, g, x []float64, alpha float64)

// softmaxFwdAVX2 runs softmax's first pass — orow = row + mrow stored
// elementwise, returning the running max under strict > — with four lane
// maxima combined in lane order. The max's value is order-independent; NaN
// never wins under either order; and a ±0-sign ambiguity in the returned
// max is erased by the caller's exp pass (see softmaxRow). softmaxFwdNMAVX2
// is the maskless variant (orow = row copied).

//go:noescape
func softmaxFwdAVX2(orow, row, mrow []float64) float64

//go:noescape
func softmaxFwdNMAVX2(orow, row []float64) float64

//go:noescape
func softmaxBackRowAVX2(drow, grow, yrow []float64, dotgy float64)

// expSubAVX2 runs softmaxRow's exp pass, dst[i] = xmath.Exp(src[i] − m),
// over leading blocks of four and returns how many elements it wrote; the
// header above says why its FMA keeps the bits.
//
//go:noescape
func expSubAVX2(dst, src []float64, m float64) (done int)

// matmulATPairAVX2 runs matmulATAccum's per-row-pair inner loop: for each
// p < len(a0), dd rows (base+p)·n accumulate a0[p]·b0 + a1[p]·b1 with the
// scalar axpy2/axpy grouping and the same `av != 0` skip (NaN coefficients
// take the nonzero path, as Go's != does). matmulATRowAVX2 is the odd-row
// single-coefficient form.

//go:noescape
func matmulATPairAVX2(dd []float64, base, n int, a0, a1, b0, b1 []float64)

// matmulATQuadAVX2 fuses two consecutive pair passes over the same dd rows:
// each output element's additions still land in ascending input-row order
// (y + a0·b0 + a1·b1 + a2·b2 + a3·b3), and mixed zero patterns replay the
// pairwise grouping exactly, so results match two pair calls bit for bit
// while touching each dd row once instead of twice.
//
//go:noescape
func matmulATQuadAVX2(dd []float64, base, n int, a0, a1, a2, a3, b0, b1, b2, b3 []float64)

//go:noescape
func matmulATRowAVX2(dd []float64, base, n int, a0, b0 []float64)

func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)

// simdSupported reports whether the CPU and OS can run the AVX2 kernels:
// CPUID.1:ECX must advertise FMA, OSXSAVE and AVX, XCR0 must enable XMM and
// YMM state saving, and CPUID.7:EBX must advertise AVX2 — GOAMD64=v3's own
// pairing of AVX2 with FMA, which expSubAVX2 needs.
func simdSupported() bool {
	_, _, ecx, _ := cpuidAsm(1, 0)
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx&fma == 0 || ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if lo, _ := xgetbvAsm(); lo&0x6 != 0x6 {
		return false
	}
	_, ebx, _, _ := cpuidAsm(7, 0)
	return ebx&(1<<5) != 0
}
