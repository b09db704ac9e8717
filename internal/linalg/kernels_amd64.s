//go:build amd64 && !amd64.v3

// AVX column kernels (see kernels.go for what each computes). Four doubles
// per instruction, unaligned loads, a multiply and then a separate
// subtract, add or divide — never a fused multiply-add, which rounds once
// where the Go loops round twice. Every function walks its columns four at
// a time and then one at a time with the scalar forms of the same
// instructions; the two that chain many operations per column (subMul8,
// sqDists) first take blocks of 16, four independent chains to a block.
// Each clears the upper register halves before it returns.

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// One solved row P with its factor entry broadcast in L, subtracted from
// the running values: 16 columns in Y0-Y3, 4 in Y0, 1 in X0.
#define SUBROW16(P, L) \
	VMULPD (P)(CX*8), L, Y4; \
	VMULPD 32(P)(CX*8), L, Y5; \
	VMULPD 64(P)(CX*8), L, Y6; \
	VMULPD 96(P)(CX*8), L, Y7; \
	VSUBPD Y4, Y0, Y0; \
	VSUBPD Y5, Y1, Y1; \
	VSUBPD Y6, Y2, Y2; \
	VSUBPD Y7, Y3, Y3

#define SUBROW4(P, L) \
	VMULPD (P)(CX*8), L, Y4; \
	VSUBPD Y4, Y0, Y0

#define SUBROW1(P, L) \
	VMULSD (P)(CX*8), L, X4; \
	VSUBSD X4, X0, X0

// func subMul8AVX(y []float64, l *[8]float64, rows []float64, stride int)
TEXT ·subMul8AVX(SB), NOSPLIT, $0-64
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), AX
	MOVQ l+24(FP), DX
	MOVQ rows_base+32(FP), SI
	MOVQ stride+56(FP), BX
	TESTQ AX, AX
	JE   sm8done
	SHLQ $3, BX
	LEAQ (SI)(BX*1), R8
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R11)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	LEAQ (R13)(BX*1), BX
	VBROADCASTSD 0(DX), Y8
	VBROADCASTSD 8(DX), Y9
	VBROADCASTSD 16(DX), Y10
	VBROADCASTSD 24(DX), Y11
	VBROADCASTSD 32(DX), Y12
	VBROADCASTSD 40(DX), Y13
	VBROADCASTSD 48(DX), Y14
	VBROADCASTSD 56(DX), Y15
	XORQ CX, CX

sm8loop16:
	CMPQ AX, $16
	JL   sm8loop4
	VMOVUPD (DI)(CX*8), Y0
	VMOVUPD 32(DI)(CX*8), Y1
	VMOVUPD 64(DI)(CX*8), Y2
	VMOVUPD 96(DI)(CX*8), Y3
	SUBROW16(SI, Y8)
	SUBROW16(R8, Y9)
	SUBROW16(R9, Y10)
	SUBROW16(R10, Y11)
	SUBROW16(R11, Y12)
	SUBROW16(R12, Y13)
	SUBROW16(R13, Y14)
	SUBROW16(BX, Y15)
	VMOVUPD Y0, (DI)(CX*8)
	VMOVUPD Y1, 32(DI)(CX*8)
	VMOVUPD Y2, 64(DI)(CX*8)
	VMOVUPD Y3, 96(DI)(CX*8)
	ADDQ $16, CX
	SUBQ $16, AX
	JMP  sm8loop16

sm8loop4:
	CMPQ AX, $4
	JL   sm8loop1
	VMOVUPD (DI)(CX*8), Y0
	SUBROW4(SI, Y8)
	SUBROW4(R8, Y9)
	SUBROW4(R9, Y10)
	SUBROW4(R10, Y11)
	SUBROW4(R11, Y12)
	SUBROW4(R12, Y13)
	SUBROW4(R13, Y14)
	SUBROW4(BX, Y15)
	VMOVUPD Y0, (DI)(CX*8)
	ADDQ $4, CX
	SUBQ $4, AX
	JMP  sm8loop4

sm8loop1:
	TESTQ AX, AX
	JE   sm8done
	VMOVSD (DI)(CX*8), X0
	SUBROW1(SI, X8)
	SUBROW1(R8, X9)
	SUBROW1(R9, X10)
	SUBROW1(R10, X11)
	SUBROW1(R11, X12)
	SUBROW1(R12, X13)
	SUBROW1(R13, X14)
	SUBROW1(BX, X15)
	VMOVSD X0, (DI)(CX*8)
	INCQ CX
	DECQ AX
	JMP  sm8loop1

sm8done:
	VZEROUPPER
	RET

// func subMulAVX(y, x []float64, l float64)
TEXT ·subMulAVX(SB), NOSPLIT, $0-56
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), AX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD l+48(FP), Y8
	XORQ CX, CX

smloop4:
	CMPQ AX, $4
	JL   smloop1
	VMOVUPD (DI)(CX*8), Y0
	SUBROW4(SI, Y8)
	VMOVUPD Y0, (DI)(CX*8)
	ADDQ $4, CX
	SUBQ $4, AX
	JMP  smloop4

smloop1:
	TESTQ AX, AX
	JE   smdone
	VMOVSD (DI)(CX*8), X0
	SUBROW1(SI, X8)
	VMOVSD X0, (DI)(CX*8)
	INCQ CX
	DECQ AX
	JMP  smloop1

smdone:
	VZEROUPPER
	RET

// func divAVX(y []float64, pivot float64)
TEXT ·divAVX(SB), NOSPLIT, $0-32
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), AX
	VBROADCASTSD pivot+24(FP), Y8
	XORQ CX, CX

divloop4:
	CMPQ AX, $4
	JL   divloop1
	VMOVUPD (DI)(CX*8), Y0
	VDIVPD Y8, Y0, Y0
	VMOVUPD Y0, (DI)(CX*8)
	ADDQ $4, CX
	SUBQ $4, AX
	JMP  divloop4

divloop1:
	TESTQ AX, AX
	JE   divdone
	VMOVSD (DI)(CX*8), X0
	VDIVSD X8, X0, X0
	VMOVSD X0, (DI)(CX*8)
	INCQ CX
	DECQ AX
	JMP  divloop1

divdone:
	VZEROUPPER
	RET

// func sqDistsAVX(dst, pt, x []float64)
//
// The running sums of a column block stay in registers across all
// dimensions; R9 walks down the block's rows of the panel, R8 bytes apart.
TEXT ·sqDistsAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), AX
	MOVQ pt_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), BX
	MOVQ AX, R8
	SHLQ $3, R8

sqblock16:
	CMPQ AX, $16
	JL   sqblock4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R9
	XORQ CX, CX

sqdim16:
	CMPQ CX, BX
	JGE  sqstore16
	VBROADCASTSD (DX)(CX*8), Y8
	VMOVUPD (R9), Y4
	VMOVUPD 32(R9), Y5
	VMOVUPD 64(R9), Y6
	VMOVUPD 96(R9), Y7
	VSUBPD Y8, Y4, Y4
	VSUBPD Y8, Y5, Y5
	VSUBPD Y8, Y6, Y6
	VSUBPD Y8, Y7, Y7
	VMULPD Y4, Y4, Y4
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	ADDQ R8, R9
	INCQ CX
	JMP  sqdim16

sqstore16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, AX
	JMP  sqblock16

sqblock4:
	CMPQ AX, $4
	JL   sqblock1
	VXORPD Y0, Y0, Y0
	MOVQ SI, R9
	XORQ CX, CX

sqdim4:
	CMPQ CX, BX
	JGE  sqstore4
	VBROADCASTSD (DX)(CX*8), Y8
	VMOVUPD (R9), Y4
	VSUBPD Y8, Y4, Y4
	VMULPD Y4, Y4, Y4
	VADDPD Y4, Y0, Y0
	ADDQ R8, R9
	INCQ CX
	JMP  sqdim4

sqstore4:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, AX
	JMP  sqblock4

sqblock1:
	TESTQ AX, AX
	JE   sqdone
	VXORPD X0, X0, X0
	MOVQ SI, R9
	XORQ CX, CX

sqdim1:
	CMPQ CX, BX
	JGE  sqstore1
	VMOVSD (R9), X4
	VSUBSD (DX)(CX*8), X4, X4
	VMULSD X4, X4, X4
	VADDSD X4, X0, X0
	ADDQ R8, R9
	INCQ CX
	JMP  sqdim1

sqstore1:
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	DECQ AX
	JMP  sqblock1

sqdone:
	VZEROUPPER
	RET

// func addMulAVX(acc, v []float64, a float64)
TEXT ·addMulAVX(SB), NOSPLIT, $0-56
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), AX
	MOVQ v_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y8
	XORQ CX, CX

amloop4:
	CMPQ AX, $4
	JL   amloop1
	VMULPD (SI)(CX*8), Y8, Y4
	VMOVUPD (DI)(CX*8), Y0
	VADDPD Y4, Y0, Y0
	VMOVUPD Y0, (DI)(CX*8)
	ADDQ $4, CX
	SUBQ $4, AX
	JMP  amloop4

amloop1:
	TESTQ AX, AX
	JE   amdone
	VMULSD (SI)(CX*8), X8, X4
	VMOVSD (DI)(CX*8), X0
	VADDSD X4, X0, X0
	VMOVSD X0, (DI)(CX*8)
	INCQ CX
	DECQ AX
	JMP  amloop1

amdone:
	VZEROUPPER
	RET

// func addSqAVX(acc, v []float64)
TEXT ·addSqAVX(SB), NOSPLIT, $0-48
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), AX
	MOVQ v_base+24(FP), SI
	XORQ CX, CX

asloop4:
	CMPQ AX, $4
	JL   asloop1
	VMOVUPD (SI)(CX*8), Y4
	VMULPD Y4, Y4, Y4
	VMOVUPD (DI)(CX*8), Y0
	VADDPD Y4, Y0, Y0
	VMOVUPD Y0, (DI)(CX*8)
	ADDQ $4, CX
	SUBQ $4, AX
	JMP  asloop4

asloop1:
	TESTQ AX, AX
	JE   asdone
	VMOVSD (SI)(CX*8), X4
	VMULSD X4, X4, X4
	VMOVSD (DI)(CX*8), X0
	VADDSD X4, X0, X0
	VMOVSD X0, (DI)(CX*8)
	INCQ CX
	DECQ AX
	JMP  asloop1

asdone:
	VZEROUPPER
	RET
