// AVX2 forms of the hot kernels. Every function reproduces the exact
// floating-point operations, element order, and accumulator grouping of its
// Go counterpart in into.go / tensor.go / attention.go — vectorization only
// runs independent per-element chains in SIMD lanes and never refuses,
// regroups, or fuses (no FMA) an operation — so results are bitwise
// identical to the scalar path. The exception is expSubAVX2, whose
// counterpart is the fused sequence of xmath.Exp, replayed FMA for FMA. See
// simd_amd64.go for the correspondence argument per kernel.

#include "textflag.h"

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2(a float64, x, y []float64)
// y[i] += a*x[i] for i in [0, len(x)); per-element chains are independent,
// so 4-lane execution is bitwise identical to the scalar loop.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), R8
	MOVQ y_base+32(FP), DI
	XORQ R12, R12

axpyVec:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  axpyVecDone
	VMOVUPD (DI)(R12*8), Y4
	VMOVUPD (SI)(R12*8), Y5
	VMULPD  Y0, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(R12*8)
	ADDQ $4, R12
	JMP  axpyVec

axpyVecDone:
	CMPQ R12, R8
	JGE  axpyDone

axpyTail:
	VMOVSD (DI)(R12*8), X4
	VMOVSD (SI)(R12*8), X5
	VMULSD X0, X5, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(R12*8)
	INCQ R12
	CMPQ R12, R8
	JLT  axpyTail

axpyDone:
	VZEROUPPER
	RET

DATA canonNaN<>+0(SB)/8, $0x7FF8000000000001
GLOBL canonNaN<>(SB), RODATA, $8

DATA negInf<>+0(SB)/8, $0xFFF0000000000000
GLOBL negInf<>(SB), RODATA, $8

// func addInPlaceAVX2(a, b []float64)
// a[i] += b[i]; element-independent, trivially bitwise-transparent.
TEXT ·addInPlaceAVX2(SB), NOSPLIT, $0-48
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), R8
	MOVQ b_base+24(FP), SI
	XORQ R12, R12

aipVec:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  aipVecDone
	VMOVUPD (DI)(R12*8), Y4
	VADDPD  (SI)(R12*8), Y4, Y4
	VMOVUPD Y4, (DI)(R12*8)
	ADDQ $4, R12
	JMP  aipVec

aipVecDone:
	CMPQ R12, R8
	JGE  aipDone

aipTail:
	VMOVSD (DI)(R12*8), X4
	VADDSD (SI)(R12*8), X4, X4
	VMOVSD X4, (DI)(R12*8)
	INCQ R12
	CMPQ R12, R8
	JLT  aipTail

aipDone:
	VZEROUPPER
	RET

// func addIntoAVX2(dst, a, b []float64)
// dst[i] = a[i] + b[i]; dst may alias a and/or b (same-index access only).
TEXT ·addIntoAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R8
	MOVQ b_base+48(FP), BX
	XORQ R12, R12

aiVec:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  aiVecDone
	VMOVUPD (SI)(R12*8), Y4
	VADDPD  (BX)(R12*8), Y4, Y4
	VMOVUPD Y4, (DI)(R12*8)
	ADDQ $4, R12
	JMP  aiVec

aiVecDone:
	CMPQ R12, R8
	JGE  aiDone

aiTail:
	VMOVSD (SI)(R12*8), X4
	VADDSD (BX)(R12*8), X4, X4
	VMOVSD X4, (DI)(R12*8)
	INCQ R12
	CMPQ R12, R8
	JLT  aiTail

aiDone:
	VZEROUPPER
	RET

// func scaleIntoAVX2(dst, t []float64, s float64)
// dst[i] = s·t[i]; dst may alias t.
TEXT ·scaleIntoAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ t_base+24(FP), SI
	MOVQ t_len+32(FP), R8
	VBROADCASTSD s+48(FP), Y0
	XORQ R12, R12

siVec:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  siVecDone
	VMOVUPD (SI)(R12*8), Y4
	VMULPD  Y0, Y4, Y4
	VMOVUPD Y4, (DI)(R12*8)
	ADDQ $4, R12
	JMP  siVec

siVecDone:
	CMPQ R12, R8
	JGE  siDone

siTail:
	VMOVSD (SI)(R12*8), X4
	VMULSD X0, X4, X4
	VMOVSD X4, (DI)(R12*8)
	INCQ R12
	CMPQ R12, R8
	JLT  siTail

siDone:
	VZEROUPPER
	RET

// func reluFwdAVX2(v, x []float64)
// v[i] = math.Max(x[i], 0): VMAXPD with +0 as the on-equal operand maps −0
// to +0 exactly as math.Max does, and NaN lanes are rewritten to the
// canonical NaN math.Max returns.
TEXT ·reluFwdAVX2(SB), NOSPLIT, $0-48
	MOVQ v_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R8
	VXORPD Y1, Y1, Y1
	VBROADCASTSD canonNaN<>(SB), Y2
	XORQ R12, R12

rfVec:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  rfVecDone
	VMOVUPD (SI)(R12*8), Y4
	VMAXPD  Y1, Y4, Y5        // max(x, 0), +0 on equal or NaN
	VCMPPD  $3, Y4, Y4, Y6    // UNORD: NaN lanes of x
	VBLENDVPD Y6, Y2, Y5, Y5  // NaN lanes take canonical NaN
	VMOVUPD Y5, (DI)(R12*8)
	ADDQ $4, R12
	JMP  rfVec

rfVecDone:
	CMPQ R12, R8
	JGE  rfDone

rfTail:
	VMOVSD (SI)(R12*8), X4
	VUCOMISD X4, X4
	JP   rfTailNaN
	VMAXSD X1, X4, X5
	VMOVSD X5, (DI)(R12*8)
	INCQ R12
	CMPQ R12, R8
	JLT  rfTail
	JMP  rfDone

rfTailNaN:
	VMOVSD X2, (DI)(R12*8)
	INCQ R12
	CMPQ R12, R8
	JLT  rfTail

rfDone:
	VZEROUPPER
	RET

// func reluBackAVX2(d, g, x []float64)
// d[i] = g[i] where x[i] > 0 (ordered: NaN gates to 0) and +0 elsewhere.
// The compare mask is all-ones or all-zero per lane, so AND passes g
// through unchanged or produces +0 — exactly the scalar branch.
TEXT ·reluBackAVX2(SB), NOSPLIT, $0-72
	MOVQ d_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ g_len+32(FP), R8
	MOVQ x_base+48(FP), BX
	VXORPD Y1, Y1, Y1
	XORQ R12, R12

rbVec:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  rbVecDone
	VMOVUPD (BX)(R12*8), Y4
	VCMPPD  $0x1e, Y1, Y4, Y5 // x > 0, ordered quiet
	VANDPD  (SI)(R12*8), Y5, Y6
	VMOVUPD Y6, (DI)(R12*8)
	ADDQ $4, R12
	JMP  rbVec

rbVecDone:
	CMPQ R12, R8
	JGE  rbDone

rbTail:
	VMOVSD (BX)(R12*8), X4
	VUCOMISD X1, X4
	JA   rbTailG
	VMOVSD X1, (DI)(R12*8)
	INCQ R12
	CMPQ R12, R8
	JLT  rbTail
	JMP  rbDone

rbTailG:
	VMOVSD (SI)(R12*8), X5
	VMOVSD X5, (DI)(R12*8)
	INCQ R12
	CMPQ R12, R8
	JLT  rbTail

rbDone:
	VZEROUPPER
	RET

// func leakyFwdAVX2(v, x []float64, alpha float64)
// v[i] = x[i] for x[i] > 0 (ordered) and α·x[i] otherwise, the α product
// computed exactly as the scalar else-branch.
TEXT ·leakyFwdAVX2(SB), NOSPLIT, $0-56
	MOVQ v_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R8
	VBROADCASTSD alpha+48(FP), Y2
	VXORPD Y1, Y1, Y1
	XORQ R12, R12

lfVec:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  lfVecDone
	VMOVUPD (SI)(R12*8), Y4
	VMULPD  Y2, Y4, Y5        // α·x
	VCMPPD  $0x1e, Y1, Y4, Y6 // x > 0
	VBLENDVPD Y6, Y4, Y5, Y7  // mask ? x : α·x
	VMOVUPD Y7, (DI)(R12*8)
	ADDQ $4, R12
	JMP  lfVec

lfVecDone:
	CMPQ R12, R8
	JGE  lfDone

lfTail:
	VMOVSD (SI)(R12*8), X4
	VUCOMISD X1, X4
	JA   lfTailX
	VMULSD X2, X4, X5
	VMOVSD X5, (DI)(R12*8)
	INCQ R12
	CMPQ R12, R8
	JLT  lfTail
	JMP  lfDone

lfTailX:
	VMOVSD X4, (DI)(R12*8)
	INCQ R12
	CMPQ R12, R8
	JLT  lfTail

lfDone:
	VZEROUPPER
	RET

// func leakyBackAVX2(d, g, x []float64, alpha float64)
// d[i] = g[i] where x[i] > 0 and α·g[i] elsewhere.
TEXT ·leakyBackAVX2(SB), NOSPLIT, $0-80
	MOVQ d_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ g_len+32(FP), R8
	MOVQ x_base+48(FP), BX
	VBROADCASTSD alpha+72(FP), Y2
	VXORPD Y1, Y1, Y1
	XORQ R12, R12

lbVec:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  lbVecDone
	VMOVUPD (SI)(R12*8), Y3   // g
	VMOVUPD (BX)(R12*8), Y4   // x
	VMULPD  Y2, Y3, Y5        // α·g
	VCMPPD  $0x1e, Y1, Y4, Y6 // x > 0
	VBLENDVPD Y6, Y3, Y5, Y7  // mask ? g : α·g
	VMOVUPD Y7, (DI)(R12*8)
	ADDQ $4, R12
	JMP  lbVec

lbVecDone:
	CMPQ R12, R8
	JGE  lbDone

lbTail:
	VMOVSD (BX)(R12*8), X4
	VMOVSD (SI)(R12*8), X3
	VUCOMISD X1, X4
	JA   lbTailG
	VMULSD X2, X3, X5
	VMOVSD X5, (DI)(R12*8)
	INCQ R12
	CMPQ R12, R8
	JLT  lbTail
	JMP  lbDone

lbTailG:
	VMOVSD X3, (DI)(R12*8)
	INCQ R12
	CMPQ R12, R8
	JLT  lbTail

lbDone:
	VZEROUPPER
	RET

// func softmaxFwdAVX2(orow, row, mrow []float64) float64
// Pass 1 of softmaxRow with a mask: orow[j] = row[j] + mrow[j] stored
// elementwise; returns the strict-> running max. Lane maxima are combined
// with the acc as the on-equal/on-NaN operand so NaN candidates never win
// and ties keep the earlier value, matching the scalar scan (the one ±0
// ambiguity is erased by the caller's exp pass).
TEXT ·softmaxFwdAVX2(SB), NOSPLIT, $0-80
	MOVQ orow_base+0(FP), DI
	MOVQ row_base+24(FP), SI
	MOVQ row_len+32(FP), R8
	MOVQ mrow_base+48(FP), BX
	VBROADCASTSD negInf<>(SB), Y0
	XORQ R12, R12

sfVec:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  sfVecDone
	VMOVUPD (SI)(R12*8), Y4
	VADDPD  (BX)(R12*8), Y4, Y4
	VMOVUPD Y4, (DI)(R12*8)
	VMAXPD  Y0, Y4, Y0        // v > acc ? v : acc (NaN v keeps acc)
	ADDQ $4, R12
	JMP  sfVec

sfVecDone:
	VEXTRACTF128 $1, Y0, X5
	VPERMILPD $1, X0, X6
	VMAXSD X0, X6, X0
	VMAXSD X0, X5, X0
	VPERMILPD $1, X5, X6
	VMAXSD X0, X6, X0
	CMPQ R12, R8
	JGE  sfDone

sfTail:
	VMOVSD (SI)(R12*8), X4
	VADDSD (BX)(R12*8), X4, X4
	VMOVSD X4, (DI)(R12*8)
	VUCOMISD X0, X4
	JBE  sfTailNext           // not (v > max); NaN v lands here too
	VMOVAPD X4, X0

sfTailNext:
	INCQ R12
	CMPQ R12, R8
	JLT  sfTail

sfDone:
	VMOVSD X0, ret+72(FP)
	VZEROUPPER
	RET

// func softmaxFwdNMAVX2(orow, row []float64) float64
// Maskless pass 1: orow[j] = row[j] copied; returns the running max.
// orow may alias row.
TEXT ·softmaxFwdNMAVX2(SB), NOSPLIT, $0-56
	MOVQ orow_base+0(FP), DI
	MOVQ row_base+24(FP), SI
	MOVQ row_len+32(FP), R8
	VBROADCASTSD negInf<>(SB), Y0
	XORQ R12, R12

snVec:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  snVecDone
	VMOVUPD (SI)(R12*8), Y4
	VMOVUPD Y4, (DI)(R12*8)
	VMAXPD  Y0, Y4, Y0
	ADDQ $4, R12
	JMP  snVec

snVecDone:
	VEXTRACTF128 $1, Y0, X5
	VPERMILPD $1, X0, X6
	VMAXSD X0, X6, X0
	VMAXSD X0, X5, X0
	VPERMILPD $1, X5, X6
	VMAXSD X0, X6, X0
	CMPQ R12, R8
	JGE  snDone

snTail:
	VMOVSD (SI)(R12*8), X4
	VMOVSD X4, (DI)(R12*8)
	VUCOMISD X0, X4
	JBE  snTailNext
	VMOVAPD X4, X0

snTailNext:
	INCQ R12
	CMPQ R12, R8
	JLT  snTail

snDone:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// expSubAVX2's constants, each replicated across the four lanes of a 32-byte
// row so every FMA can take it as a memory operand: xmath.Exp's (after
// GOROOT/src/math/exp_amd64.s) LOG2E, LN2U, LN2L, 1/16 and Taylor
// coefficients, the 2.0 and 1.0 of its squarings, this kernel's
// normal-path bounds [−708, 709], −Inf, and the exponent bias.
#define EXPC(off, v) DATA expC<>+(off)(SB)/8, v; DATA expC<>+(off+8)(SB)/8, v; DATA expC<>+(off+16)(SB)/8, v; DATA expC<>+(off+24)(SB)/8, v

EXPC(0, $1.4426950408889634073599246810018920)          // LOG2E
EXPC(32, $0.69314718055966295651160180568695068359375)  // LN2U
EXPC(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
EXPC(96, $0.0625)
EXPC(128, $2.4801587301587301587e-5)
EXPC(160, $1.9841269841269841270e-4)
EXPC(192, $1.3888888888888888889e-3)
EXPC(224, $8.3333333333333333333e-3)
EXPC(256, $4.1666666666666666667e-2)
EXPC(288, $1.6666666666666666667e-1)
EXPC(320, $0.5)
EXPC(352, $1.0)
EXPC(384, $2.0)
EXPC(416, $-708.0)
EXPC(448, $709.0)
EXPC(480, $0xFFF0000000000000)                          // −Inf
EXPC(512, $1023)                                        // exponent bias, int64
GLOBL expC<>(SB), RODATA, $544

// func expSubAVX2(dst, src []float64, m float64) (done int)
// dst[i] = xmath.Exp(src[i] − m), four elements at a time, by replaying
// its fused sequence in each lane: the same subtraction,
// LOG2E product and round-to-nearest k, fused LN2U/LN2L reductions, ×1/16,
// fused Taylor chain, three add-2/multiply squarings and a fused fourth
// with +1, then the 2^k scale. A −Inf lane is blended to +0, which is what
// xmath.Exp(−Inf) returns, and a block of four −Inf lanes (masked scores)
// stores its four +0 without the sequence. A block with any lane off that normal path (NaN,
// x < −708 where xmath.Exp may take its denormal branch, x > 709 where it
// may overflow) is left unstored and ends the call; done is the number of
// leading elements written, a multiple of 4, so dst may alias src and the
// caller finishes the rest with xmath.Exp.
TEXT ·expSubAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), R8
	VBROADCASTSD m+48(FP), Y15
	XORQ R12, R12

esVec:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  esDone
	VMOVUPD (SI)(R12*8), Y0
	VSUBPD  Y15, Y0, Y0                  // x = src − m
	VCMPPD  $0x0d, expC<>+416(SB), Y0, Y5 // x ≥ −708 (ordered: NaN fails)
	VCMPPD  $0x02, expC<>+448(SB), Y0, Y6 // x ≤ 709
	VANDPD  Y6, Y5, Y5
	VCMPPD  $0x00, expC<>+480(SB), Y0, Y4 // x == −Inf
	VORPD   Y4, Y5, Y5
	VMOVMSKPD Y5, AX
	CMPQ AX, $15
	JNE  esDone                          // some lane is off the normal path
	VMOVMSKPD Y4, AX
	CMPQ AX, $15
	JEQ  esMasked                        // four masked scores: four +0

	VMULPD     expC<>+0(SB), Y0, Y1      // x·LOG2E
	VCVTPD2DQY Y1, X3                    // k, rounded to nearest
	VCVTDQ2PD  X3, Y1
	VFNMADD231PD expC<>+32(SB), Y1, Y0   // x −= k·LN2U, fused
	VFNMADD231PD expC<>+64(SB), Y1, Y0   // x −= k·LN2L, fused
	VMULPD     expC<>+96(SB), Y0, Y0     // x /= 16
	VMOVUPD    expC<>+128(SB), Y1
	VFMADD213PD expC<>+160(SB), Y0, Y1   // p = p·x + c, fused
	VFMADD213PD expC<>+192(SB), Y0, Y1
	VFMADD213PD expC<>+224(SB), Y0, Y1
	VFMADD213PD expC<>+256(SB), Y0, Y1
	VFMADD213PD expC<>+288(SB), Y0, Y1
	VFMADD213PD expC<>+320(SB), Y0, Y1
	VFMADD213PD expC<>+352(SB), Y0, Y1
	VMULPD     Y1, Y0, Y0                // x·p
	VADDPD     expC<>+384(SB), Y0, Y1    // three squarings: x = x·(x+2)
	VMULPD     Y1, Y0, Y0
	VADDPD     expC<>+384(SB), Y0, Y1
	VMULPD     Y1, Y0, Y0
	VADDPD     expC<>+384(SB), Y0, Y1
	VMULPD     Y1, Y0, Y0
	VADDPD     expC<>+384(SB), Y0, Y1
	VFMADD213PD expC<>+352(SB), Y1, Y0   // x = x·(x+2) + 1, fused
	VPMOVSXDQ  X3, Y1
	VPADDQ     expC<>+512(SB), Y1, Y1
	VPSLLQ     $52, Y1, Y1               // 2^k
	VMULPD     Y1, Y0, Y0
	VANDNPD    Y0, Y4, Y0                // −Inf lanes → +0
	VMOVUPD    Y0, (DI)(R12*8)
	ADDQ $4, R12
	JMP  esVec

esMasked:
	VXORPD  Y0, Y0, Y0
	VMOVUPD Y0, (DI)(R12*8)
	ADDQ $4, R12
	JMP  esVec

esDone:
	MOVQ R12, done+56(FP)
	VZEROUPPER
	RET

// func softmaxBackRowAVX2(drow, grow, yrow []float64, dotgy float64)
// drow[j] = yrow[j] · (grow[j] − dotgy), elementwise.
TEXT ·softmaxBackRowAVX2(SB), NOSPLIT, $0-80
	MOVQ drow_base+0(FP), DI
	MOVQ grow_base+24(FP), SI
	MOVQ grow_len+32(FP), R8
	MOVQ yrow_base+48(FP), BX
	VBROADCASTSD dotgy+72(FP), Y0
	XORQ R12, R12

sbVec:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  sbVecDone
	VMOVUPD (SI)(R12*8), Y4
	VSUBPD  Y0, Y4, Y4        // g − dotgy
	VMULPD  (BX)(R12*8), Y4, Y4
	VMOVUPD Y4, (DI)(R12*8)
	ADDQ $4, R12
	JMP  sbVec

sbVecDone:
	CMPQ R12, R8
	JGE  sbDone

sbTail:
	VMOVSD (SI)(R12*8), X4
	VSUBSD X0, X4, X4
	VMULSD (BX)(R12*8), X4, X4
	VMOVSD X4, (DI)(R12*8)
	INCQ R12
	CMPQ R12, R8
	JLT  sbTail

sbDone:
	VZEROUPPER
	RET

// func laneBTAVX2(crow, arow, bt []float64, n int, s float64)
// crow[j] = s·(arow · column j of bt) for j in [0, len(crow)), len(crow) a
// multiple of 4, bt's rows n wide: one output column per ymm lane. Register
// m of a column group holds dot's accumulator s_m for four columns, starting
// at +0 and taking arow[t]·bt[t][j] for t ≡ m (mod 4) below len(arow)&^3 in
// ascending t; the lanes combine as ((s0+s1)+s2)+s3 with vector adds, the
// len(arow)%4 tail adds sequentially, and the scale multiplies last — dot's
// and ScaleInto's operations per output, without a horizontal reduce. Eight
// columns per step keep eight independent add chains in flight.
TEXT ·laneBTAVX2(SB), NOSPLIT, $0-88
	MOVQ crow_base+0(FP), DI
	MOVQ crow_len+8(FP), R10      // columns, a multiple of 4
	MOVQ arow_base+24(FP), SI
	MOVQ arow_len+32(FP), R8      // k
	MOVQ bt_base+48(FP), BX
	MOVQ n+72(FP), R13
	SHLQ $3, R13                  // bt row stride in bytes
	VBROADCASTSD s+80(FP), Y15
	MOVQ R8, R9
	ANDQ $-4, R9                  // k rounded down to a multiple of 4
	XORQ R11, R11                 // j

lb8:
	LEAQ 8(R11), AX
	CMPQ AX, R10
	JGT  lb4
	LEAQ (BX)(R11*8), R14       // &bt[0][j]
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	VXORPD Y1, Y1, Y1
	VXORPD Y5, Y5, Y5
	VXORPD Y2, Y2, Y2
	VXORPD Y6, Y6, Y6
	VXORPD Y3, Y3, Y3
	VXORPD Y7, Y7, Y7
	XORQ R12, R12               // t

lb8K:
	CMPQ R12, R9
	JGE  lb8Combine
	VBROADCASTSD (SI)(R12*8), Y8
	VMULPD  (R14), Y8, Y9
	VADDPD  Y9, Y0, Y0
	VMULPD  32(R14), Y8, Y10
	VADDPD  Y10, Y4, Y4
	ADDQ R13, R14
	VBROADCASTSD 8(SI)(R12*8), Y8
	VMULPD  (R14), Y8, Y9
	VADDPD  Y9, Y1, Y1
	VMULPD  32(R14), Y8, Y10
	VADDPD  Y10, Y5, Y5
	ADDQ R13, R14
	VBROADCASTSD 16(SI)(R12*8), Y8
	VMULPD  (R14), Y8, Y9
	VADDPD  Y9, Y2, Y2
	VMULPD  32(R14), Y8, Y10
	VADDPD  Y10, Y6, Y6
	ADDQ R13, R14
	VBROADCASTSD 24(SI)(R12*8), Y8
	VMULPD  (R14), Y8, Y9
	VADDPD  Y9, Y3, Y3
	VMULPD  32(R14), Y8, Y10
	VADDPD  Y10, Y7, Y7
	ADDQ R13, R14
	ADDQ $4, R12
	JMP  lb8K

lb8Combine:
	// ((s0+s1)+s2)+s3 lane by lane: each lane is one output column.
	VADDPD  Y1, Y0, Y0
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y0, Y0
	VADDPD  Y5, Y4, Y4
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y4, Y4

lb8Tail:
	CMPQ R12, R8
	JGE  lb8Store
	VBROADCASTSD (SI)(R12*8), Y8
	VMULPD  (R14), Y8, Y9
	VADDPD  Y9, Y0, Y0
	VMULPD  32(R14), Y8, Y10
	VADDPD  Y10, Y4, Y4
	ADDQ R13, R14
	INCQ R12
	JMP  lb8Tail

lb8Store:
	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y4, Y4
	VMOVUPD Y0, (DI)(R11*8)
	VMOVUPD Y4, 32(DI)(R11*8)
	ADDQ $8, R11
	JMP  lb8
lb4:
	LEAQ 4(R11), AX
	CMPQ AX, R10
	JGT  lbDone
	LEAQ (BX)(R11*8), R14       // &bt[0][j]
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ R12, R12               // t

lb4K:
	CMPQ R12, R9
	JGE  lb4Combine
	VBROADCASTSD (SI)(R12*8), Y8
	VMULPD  (R14), Y8, Y9
	VADDPD  Y9, Y0, Y0
	ADDQ R13, R14
	VBROADCASTSD 8(SI)(R12*8), Y8
	VMULPD  (R14), Y8, Y9
	VADDPD  Y9, Y1, Y1
	ADDQ R13, R14
	VBROADCASTSD 16(SI)(R12*8), Y8
	VMULPD  (R14), Y8, Y9
	VADDPD  Y9, Y2, Y2
	ADDQ R13, R14
	VBROADCASTSD 24(SI)(R12*8), Y8
	VMULPD  (R14), Y8, Y9
	VADDPD  Y9, Y3, Y3
	ADDQ R13, R14
	ADDQ $4, R12
	JMP  lb4K

lb4Combine:
	// ((s0+s1)+s2)+s3 lane by lane: each lane is one output column.
	VADDPD  Y1, Y0, Y0
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y0, Y0

lb4Tail:
	CMPQ R12, R8
	JGE  lb4Store
	VBROADCASTSD (SI)(R12*8), Y8
	VMULPD  (R14), Y8, Y9
	VADDPD  Y9, Y0, Y0
	ADDQ R13, R14
	INCQ R12
	JMP  lb4Tail

lb4Store:
	VMULPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)(R11*8)
	ADDQ $4, R11
	JMP  lb4
lbDone:
	VZEROUPPER
	RET


// func pvBlockAVX2(c []float64, ldc int, a []float64, lda int, bd []float64, n int)
// Four output rows at once: c[r·ldc : +n] = Σ_p a[r·lda + p]·bd[p·n : +n] for
// r < 4 and p < lda, each element summed from +0 in ascending p — the
// sequence matmulRowKernel adds, with n a multiple of 4. The four rows' eight
// (then four) columns stay in registers across p, one independent add chain
// per register, and each bd row is loaded once for all four rows. No
// coefficient is skipped: a zero times an Inf is NaN, as in the Go loop.
TEXT ·pvBlockAVX2(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), R15
	SHLQ $3, R15                  // c row stride in bytes
	MOVQ a_base+32(FP), SI        // a row 0
	MOVQ lda+56(FP), CX           // k = lda
	LEAQ (SI)(CX*8), R9           // a row 1
	LEAQ (R9)(CX*8), R10          // a row 2
	LEAQ (R10)(CX*8), R11         // a row 3
	MOVQ bd_base+64(FP), BX
	MOVQ n+88(FP), DX
	MOVQ DX, R13
	SHLQ $3, R13                  // bd row stride in bytes
	XORQ R12, R12                 // j

pv8:
	LEAQ 8(R12), AX
	CMPQ AX, DX
	JGT  pv4
	LEAQ (BX)(R12*8), R14       // &bd[0][j]
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX                 // p

pv8Quad:
	LEAQ 4(AX), R8
	CMPQ R8, CX
	JGT  pv8Tail
	VMOVUPD (R14), Y12
	VMOVUPD 32(R14), Y13
	VBROADCASTSD (SI)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y0, Y0
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y4, Y4
	VBROADCASTSD (R9)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y1, Y1
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y5, Y5
	VBROADCASTSD (R10)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y6, Y6
	VBROADCASTSD (R11)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y3, Y3
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y7, Y7
	ADDQ R13, R14
	VMOVUPD (R14), Y12
	VMOVUPD 32(R14), Y13
	VBROADCASTSD 8(SI)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y0, Y0
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y4, Y4
	VBROADCASTSD 8(R9)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y1, Y1
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y5, Y5
	VBROADCASTSD 8(R10)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y6, Y6
	VBROADCASTSD 8(R11)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y3, Y3
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y7, Y7
	ADDQ R13, R14
	VMOVUPD (R14), Y12
	VMOVUPD 32(R14), Y13
	VBROADCASTSD 16(SI)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y0, Y0
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y4, Y4
	VBROADCASTSD 16(R9)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y1, Y1
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y5, Y5
	VBROADCASTSD 16(R10)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y6, Y6
	VBROADCASTSD 16(R11)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y3, Y3
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y7, Y7
	ADDQ R13, R14
	VMOVUPD (R14), Y12
	VMOVUPD 32(R14), Y13
	VBROADCASTSD 24(SI)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y0, Y0
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y4, Y4
	VBROADCASTSD 24(R9)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y1, Y1
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y5, Y5
	VBROADCASTSD 24(R10)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y6, Y6
	VBROADCASTSD 24(R11)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y3, Y3
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y7, Y7
	ADDQ R13, R14
	ADDQ $4, AX
	JMP  pv8Quad

pv8Tail:
	CMPQ AX, CX
	JGE  pv8Store
	VMOVUPD (R14), Y12
	VMOVUPD 32(R14), Y13
	VBROADCASTSD (SI)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y0, Y0
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y4, Y4
	VBROADCASTSD (R9)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y1, Y1
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y5, Y5
	VBROADCASTSD (R10)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y6, Y6
	VBROADCASTSD (R11)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y3, Y3
	VMULPD  Y13, Y10, Y14
	VADDPD  Y14, Y7, Y7
	ADDQ R13, R14
	INCQ AX
	JMP  pv8Tail

pv8Store:
	LEAQ (DI)(R12*8), R14
	VMOVUPD Y0, (R14)
	VMOVUPD Y4, 32(R14)
	ADDQ R15, R14
	VMOVUPD Y1, (R14)
	VMOVUPD Y5, 32(R14)
	ADDQ R15, R14
	VMOVUPD Y2, (R14)
	VMOVUPD Y6, 32(R14)
	ADDQ R15, R14
	VMOVUPD Y3, (R14)
	VMOVUPD Y7, 32(R14)
	ADDQ $8, R12
	JMP  pv8

pv4:
	LEAQ 4(R12), AX
	CMPQ AX, DX
	JGT  pvDone
	LEAQ (BX)(R12*8), R14       // &bd[0][j]
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX                 // p

pv4Quad:
	LEAQ 4(AX), R8
	CMPQ R8, CX
	JGT  pv4Tail
	VMOVUPD (R14), Y12
	VBROADCASTSD (SI)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y0, Y0
	VBROADCASTSD (R9)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y1, Y1
	VBROADCASTSD (R10)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y2, Y2
	VBROADCASTSD (R11)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y3, Y3
	ADDQ R13, R14
	VMOVUPD (R14), Y12
	VBROADCASTSD 8(SI)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y0, Y0
	VBROADCASTSD 8(R9)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y1, Y1
	VBROADCASTSD 8(R10)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y2, Y2
	VBROADCASTSD 8(R11)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y3, Y3
	ADDQ R13, R14
	VMOVUPD (R14), Y12
	VBROADCASTSD 16(SI)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y0, Y0
	VBROADCASTSD 16(R9)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y1, Y1
	VBROADCASTSD 16(R10)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y2, Y2
	VBROADCASTSD 16(R11)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y3, Y3
	ADDQ R13, R14
	VMOVUPD (R14), Y12
	VBROADCASTSD 24(SI)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y0, Y0
	VBROADCASTSD 24(R9)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y1, Y1
	VBROADCASTSD 24(R10)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y2, Y2
	VBROADCASTSD 24(R11)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y3, Y3
	ADDQ R13, R14
	ADDQ $4, AX
	JMP  pv4Quad

pv4Tail:
	CMPQ AX, CX
	JGE  pv4Store
	VMOVUPD (R14), Y12
	VBROADCASTSD (SI)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y0, Y0
	VBROADCASTSD (R9)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y1, Y1
	VBROADCASTSD (R10)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y2, Y2
	VBROADCASTSD (R11)(AX*8), Y10
	VMULPD  Y12, Y10, Y11
	VADDPD  Y11, Y3, Y3
	ADDQ R13, R14
	INCQ AX
	JMP  pv4Tail

pv4Store:
	LEAQ (DI)(R12*8), R14
	VMOVUPD Y0, (R14)
	ADDQ R15, R14
	VMOVUPD Y1, (R14)
	ADDQ R15, R14
	VMOVUPD Y2, (R14)
	ADDQ R15, R14
	VMOVUPD Y3, (R14)
	ADDQ $4, R12
	JMP  pv4

pvDone:
	VZEROUPPER
	RET

// func atBlockAVX2(dd []float64, n int, a []float64, lda int, b []float64, ldb int)
// Four input rows at once: dd[p·n : +n] += a0[p]·b0 + a1[p]·b1 + a2[p]·b2 +
// a3[p]·b3 for p < lda, where a_r = a[r·lda:] and b_r = b[r·ldb : +n], the
// products added in ascending r — the chain of four atAccumRow calls — with
// n a multiple of 4. Eight (then four) columns of the four b rows stay in
// registers across p. No coefficient is skipped, as in the Go loop.
TEXT ·atBlockAVX2(SB), NOSPLIT, $0-96
	MOVQ dd_base+0(FP), DI
	MOVQ n+24(FP), DX
	MOVQ DX, R13
	SHLQ $3, R13                  // dd row stride in bytes
	MOVQ a_base+32(FP), SI        // a row 0
	MOVQ lda+56(FP), CX           // k = lda
	LEAQ (SI)(CX*8), R9           // a row 1
	LEAQ (R9)(CX*8), R10          // a row 2
	LEAQ (R10)(CX*8), R11         // a row 3
	MOVQ b_base+64(FP), BX
	MOVQ ldb+88(FP), R15
	SHLQ $3, R15                  // b row stride in bytes
	XORQ R12, R12                 // j

at8:
	LEAQ 8(R12), AX
	CMPQ AX, DX
	JGT  at4
	LEAQ (BX)(R12*8), R14
	VMOVUPD (R14), Y8
	VMOVUPD 32(R14), Y12
	ADDQ R15, R14
	VMOVUPD (R14), Y9
	VMOVUPD 32(R14), Y13
	ADDQ R15, R14
	VMOVUPD (R14), Y10
	VMOVUPD 32(R14), Y14
	ADDQ R15, R14
	VMOVUPD (R14), Y11
	VMOVUPD 32(R14), Y15
	LEAQ (DI)(R12*8), R14       // &dd[0][j]
	XORQ AX, AX                 // p

at8Loop:
	CMPQ AX, CX
	JGE  at8Next
	VMOVUPD (R14), Y0
	VMOVUPD 32(R14), Y1
	VBROADCASTSD (SI)(AX*8), Y4
	VMULPD  Y8, Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  Y12, Y4, Y6
	VADDPD  Y6, Y1, Y1
	VBROADCASTSD (R9)(AX*8), Y4
	VMULPD  Y9, Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  Y13, Y4, Y6
	VADDPD  Y6, Y1, Y1
	VBROADCASTSD (R10)(AX*8), Y4
	VMULPD  Y10, Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  Y14, Y4, Y6
	VADDPD  Y6, Y1, Y1
	VBROADCASTSD (R11)(AX*8), Y4
	VMULPD  Y11, Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  Y15, Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, 32(R14)
	ADDQ R13, R14
	INCQ AX
	JMP  at8Loop

at8Next:
	ADDQ $8, R12
	JMP  at8

at4:
	LEAQ 4(R12), AX
	CMPQ AX, DX
	JGT  atDone
	LEAQ (BX)(R12*8), R14
	VMOVUPD (R14), Y8
	ADDQ R15, R14
	VMOVUPD (R14), Y9
	ADDQ R15, R14
	VMOVUPD (R14), Y10
	ADDQ R15, R14
	VMOVUPD (R14), Y11
	LEAQ (DI)(R12*8), R14       // &dd[0][j]
	XORQ AX, AX                 // p

at4Loop:
	CMPQ AX, CX
	JGE  at4Next
	VMOVUPD (R14), Y0
	VBROADCASTSD (SI)(AX*8), Y4
	VMULPD  Y8, Y4, Y5
	VADDPD  Y5, Y0, Y0
	VBROADCASTSD (R9)(AX*8), Y4
	VMULPD  Y9, Y4, Y5
	VADDPD  Y5, Y0, Y0
	VBROADCASTSD (R10)(AX*8), Y4
	VMULPD  Y10, Y4, Y5
	VADDPD  Y5, Y0, Y0
	VBROADCASTSD (R11)(AX*8), Y4
	VMULPD  Y11, Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMOVUPD Y0, (R14)
	ADDQ R13, R14
	INCQ AX
	JMP  at4Loop

at4Next:
	ADDQ $4, R12
	JMP  at4

atDone:
	VZEROUPPER
	RET
