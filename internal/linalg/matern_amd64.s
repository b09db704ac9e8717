//go:build amd64 && !amd64.v3

// The Matérn 5/2 transform, four columns per register (see kernels.go):
// row[c] = vr·(1 + √5r + 5r²/3)·exp(−√5r), r = √row[c]/ls. Everything up to
// the exponential is kernels_amd64.s's rule — one correctly rounded packed
// operation per Go operation, in the Go expression's order, never fused.
// The exponential is math.Exp's own amd64 code (src/math/exp_amd64.s,
// Shibata's SLEEF method), the branch it takes when useFMA is set, replayed
// lane by lane: the same constants, the same operations in the same order,
// fused exactly where that file fuses (two VFNMADD231, eight VFMADD213) and
// nowhere else. That branch is straight-line except for its guards on
// non-finite, overflowing and subnormal results; an argument in [−700, 0]
// gives a biased exponent k+1023 ≥ 13, so none of them can fire, and a block
// with any lane outside that range (or NaN) is left untouched for the Go
// loop: the function stops there and returns how many columns it finished.
// kernels_amd64.go takes this file into use only where math.Exp fuses.

#include "textflag.h"

// Each constant four times over, one 32-byte operand per packed instruction.
#define LANES(off, v) \
	DATA maternc<>+off+0(SB)/8, v; \
	DATA maternc<>+off+8(SB)/8, v; \
	DATA maternc<>+off+16(SB)/8, v; \
	DATA maternc<>+off+24(SB)/8, v

LANES(0, $2.2360679774997896964091736687312762) // √5, = math.Sqrt(5)
LANES(32, $5.0)
LANES(64, $3.0)
LANES(96, $1.0)
LANES(128, $0x8000000000000000) // sign bit
LANES(160, $-700.0)
// math/exp_amd64.s's constants, spelled as it spells them.
LANES(192, $1.4426950408889634073599246810018920) // LOG2E
LANES(224, $0.69314718055966295651160180568695068359375) // LN2U
LANES(256, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
LANES(288, $0.0625)
LANES(320, $2.4801587301587301587e-5)
LANES(352, $1.9841269841269841270e-4)
LANES(384, $1.3888888888888888889e-3)
LANES(416, $8.3333333333333333333e-3)
LANES(448, $4.1666666666666666667e-2)
LANES(480, $1.6666666666666666667e-1)
LANES(512, $0.5)
LANES(544, $2.0)
DATA maternc<>+576(SB)/4, $0x3ff // the exponent bias, four int32 lanes
DATA maternc<>+580(SB)/4, $0x3ff
DATA maternc<>+584(SB)/4, $0x3ff
DATA maternc<>+588(SB)/4, $0x3ff
GLOBL maternc<>(SB), RODATA|NOPTR, $592

#define SQRT5 maternc<>+0(SB)
#define FIVE maternc<>+32(SB)
#define THREE maternc<>+64(SB)
#define ONE maternc<>+96(SB)
#define SIGN maternc<>+128(SB)
#define MIN700 maternc<>+160(SB)
#define LOG2E maternc<>+192(SB)
#define LN2U maternc<>+224(SB)
#define LN2L maternc<>+256(SB)
#define SIXTEENTH maternc<>+288(SB)
#define C8 maternc<>+320(SB)
#define C7 maternc<>+352(SB)
#define C6 maternc<>+384(SB)
#define C5 maternc<>+416(SB)
#define C4 maternc<>+448(SB)
#define C3 maternc<>+480(SB)
#define HALF maternc<>+512(SB)
#define TWO maternc<>+544(SB)
#define BIAS maternc<>+576(SB)

// func matern52Blocks(row []float64, ls, vr float64) int
TEXT ·matern52Blocks(SB), NOSPLIT, $0-48
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), AX
	VBROADCASTSD ls+24(FP), Y8
	VBROADCASTSD vr+32(FP), Y9
	VXORPD Y10, Y10, Y10
	XORQ CX, CX

block:
	LEAQ 4(CX), DX
	CMPQ DX, AX
	JGT  done
	// r = √d² / ls; s5r = √5·r; x = −s5r.
	VSQRTPD (DI)(CX*8), Y0
	VDIVPD  Y8, Y0, Y0
	VMULPD  SQRT5, Y0, Y1
	VXORPD  SIGN, Y1, Y4
	// Every lane's x in [−700, 0], or leave the block to the Go loop.
	VCMPPD    $0x1d, MIN700, Y4, Y6 // x ≥ −700, false for NaN
	VCMPPD    $0x12, Y10, Y4, Y7    // x ≤ 0, false for NaN
	VANDPD    Y7, Y6, Y6
	VMOVMSKPD Y6, DX
	CMPQ      DX, $15
	JNE       done
	// vr·((1 + s5r) + ((5·r)·r)/3).
	VMULPD FIVE, Y0, Y2
	VMULPD Y0, Y2, Y2
	VDIVPD THREE, Y2, Y2
	VADDPD ONE, Y1, Y3
	VADDPD Y2, Y3, Y3
	VMULPD Y9, Y3, Y3
	// exp(x), archExp's avxfma branch with X0 = Y4, X1 = Y5, BX = X6:
	// k = round(x·LOG2E) under MXCSR's round-to-nearest, as CVTSD2SL.
	VMULPD     LOG2E, Y4, Y5
	VCVTPD2DQY Y5, X6
	VCVTDQ2PD  X6, Y5
	VFNMADD231PD LN2U, Y5, Y4
	VFNMADD231PD LN2L, Y5, Y4
	VMULPD       SIXTEENTH, Y4, Y4
	// Taylor series.
	VMOVUPD     C8, Y5
	VFMADD213PD C7, Y4, Y5
	VFMADD213PD C6, Y4, Y5
	VFMADD213PD C5, Y4, Y5
	VFMADD213PD C4, Y4, Y5
	VFMADD213PD C3, Y4, Y5
	VFMADD213PD HALF, Y4, Y5
	VFMADD213PD ONE, Y4, Y5
	VMULPD      Y5, Y4, Y4
	// Undo the ×1/16 by squaring four times.
	VADDPD      TWO, Y4, Y5
	VMULPD      Y5, Y4, Y4
	VADDPD      TWO, Y4, Y5
	VMULPD      Y5, Y4, Y4
	VADDPD      TWO, Y4, Y5
	VMULPD      Y5, Y4, Y4
	VADDPD      TWO, Y4, Y5
	VFMADD213PD ONE, Y5, Y4
	// ·2^k: (k + 1023) zero-extended to 64 bits and shifted into the
	// exponent field, as ADDL $0x3FF, BX; SHLQ $52, BX.
	VPADDD      BIAS, X6, X6
	VPUNPCKLDQ  X10, X6, X7
	VPUNPCKHDQ  X10, X6, X6
	VPSLLQ      $52, X7, X7
	VPSLLQ      $52, X6, X6
	VINSERTF128 $1, X6, Y7, Y7
	VMULPD      Y7, Y4, Y4
	// (vr·poly)·exp.
	VMULPD  Y4, Y3, Y3
	VMOVUPD Y3, (DI)(CX*8)
	ADDQ    $4, CX
	JMP     block

done:
	MOVQ CX, ret+40(FP)
	VZEROUPPER
	RET
