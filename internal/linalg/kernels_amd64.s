//go:build amd64 && !amd64.v3

// AVX column kernels (see kernels.go for what each computes). Four doubles
// per instruction, unaligned loads, a multiply and then a separate
// subtract, add, divide or maximum — never a fused multiply-add, which
// rounds once where the Go loops round twice. A call walks the columns in
// blocks of 16 (four independent chains), then 4, then 1, and holds a
// block's running values in registers while it walks down the block's
// column of the panel, R9 stepping R8 = 8·(panel width) bytes a row; the
// squared distances of four points at once take blocks of 8, 4 and 1
// columns, four chains per panel load. Each clears the upper register
// halves before it returns.

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

// func sqDistsAVX(dst []float64, stride int, pt []float64, x [4][]float64, rows int)
//
// Four rows share every load of the panel: a block of 8 columns holds two
// registers of running values per row (8 chains), a block of 4 one (4
// chains), a single column one scalar per row, and the four rows' outputs
// are stored R10 = 8·stride bytes apart. Fewer rows go one at a time
// through blocks of 16 (four chains), 4 and 1 columns of their row.
TEXT ·sqDistsAVX(SB), NOSPLIT, $0-160
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), AX
	MOVQ stride+24(FP), R10
	MOVQ pt_base+32(FP), SI
	MOVQ x_0_base+56(FP), DX
	MOVQ x_0_len+64(FP), BX
	MOVQ rows+152(FP), R14
	LEAQ -1(R14), CX
	IMULQ R10, CX
	SUBQ CX, AX // w = len(dst) − (rows−1)·stride
	MOVQ AX, R8
	SHLQ $3, R8
	SHLQ $3, R10
	CMPQ R14, $4
	JNE  sqrows
	MOVQ x_1_base+80(FP), R11
	MOVQ x_2_base+104(FP), R12
	MOVQ x_3_base+128(FP), R13

sq4block8:
	CMPQ AX, $8
	JL   sq4block4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R9
	XORL CX, CX

sq4dim8:
	CMPQ CX, BX
	JGE  sq4store8
	VMOVUPD (R9), Y8
	VMOVUPD 32(R9), Y9
	VBROADCASTSD (DX)(CX*8), Y10
	VSUBPD Y10, Y8, Y11
	VSUBPD Y10, Y9, Y12
	VMULPD Y11, Y11, Y11
	VMULPD Y12, Y12, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	VBROADCASTSD (R11)(CX*8), Y13
	VSUBPD Y13, Y8, Y14
	VSUBPD Y13, Y9, Y15
	VMULPD Y14, Y14, Y14
	VMULPD Y15, Y15, Y15
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	VBROADCASTSD (R12)(CX*8), Y10
	VSUBPD Y10, Y8, Y11
	VSUBPD Y10, Y9, Y12
	VMULPD Y11, Y11, Y11
	VMULPD Y12, Y12, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5
	VBROADCASTSD (R13)(CX*8), Y13
	VSUBPD Y13, Y8, Y14
	VSUBPD Y13, Y9, Y15
	VMULPD Y14, Y14, Y14
	VMULPD Y15, Y15, Y15
	VADDPD Y14, Y6, Y6
	VADDPD Y15, Y7, Y7
	ADDQ R8, R9
	INCQ CX
	JMP  sq4dim8

sq4store8:
	LEAQ (DI)(R10*2), R14
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R10*1)
	VMOVUPD Y3, 32(DI)(R10*1)
	VMOVUPD Y4, (R14)
	VMOVUPD Y5, 32(R14)
	VMOVUPD Y6, (R14)(R10*1)
	VMOVUPD Y7, 32(R14)(R10*1)
	ADDQ $64, DI
	ADDQ $64, SI
	SUBQ $8, AX
	JMP  sq4block8

sq4block4:
	CMPQ AX, $4
	JL   sq4block1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R9
	XORL CX, CX

sq4dim4:
	CMPQ CX, BX
	JGE  sq4store4
	VMOVUPD (R9), Y8
	VBROADCASTSD (DX)(CX*8), Y10
	VSUBPD Y10, Y8, Y11
	VMULPD Y11, Y11, Y11
	VADDPD Y11, Y0, Y0
	VBROADCASTSD (R11)(CX*8), Y12
	VSUBPD Y12, Y8, Y13
	VMULPD Y13, Y13, Y13
	VADDPD Y13, Y1, Y1
	VBROADCASTSD (R12)(CX*8), Y10
	VSUBPD Y10, Y8, Y11
	VMULPD Y11, Y11, Y11
	VADDPD Y11, Y2, Y2
	VBROADCASTSD (R13)(CX*8), Y12
	VSUBPD Y12, Y8, Y13
	VMULPD Y13, Y13, Y13
	VADDPD Y13, Y3, Y3
	ADDQ R8, R9
	INCQ CX
	JMP  sq4dim4

sq4store4:
	LEAQ (DI)(R10*2), R14
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R10*1)
	VMOVUPD Y2, (R14)
	VMOVUPD Y3, (R14)(R10*1)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, AX
	JMP  sq4block4

sq4block1:
	TESTQ AX, AX
	JE   sqdone
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	MOVQ SI, R9
	XORL CX, CX

sq4dim1:
	CMPQ CX, BX
	JGE  sq4store1
	VMOVSD (R9), X8
	VSUBSD (DX)(CX*8), X8, X11
	VMULSD X11, X11, X11
	VADDSD X11, X0, X0
	VSUBSD (R11)(CX*8), X8, X12
	VMULSD X12, X12, X12
	VADDSD X12, X1, X1
	VSUBSD (R12)(CX*8), X8, X13
	VMULSD X13, X13, X13
	VADDSD X13, X2, X2
	VSUBSD (R13)(CX*8), X8, X14
	VMULSD X14, X14, X14
	VADDSD X14, X3, X3
	ADDQ R8, R9
	INCQ CX
	JMP  sq4dim1

sq4store1:
	LEAQ (DI)(R10*2), R14
	VMOVSD X0, (DI)
	VMOVSD X1, (DI)(R10*1)
	VMOVSD X2, (R14)
	VMOVSD X3, (R14)(R10*1)
	ADDQ $8, DI
	ADDQ $8, SI
	DECQ AX
	JMP  sq4block1

// One row at a time: R11 is the row's output, R14 the rows left, R12 and
// R13 the next rows' points; each row starts again from the panel's first
// column, reloaded, and w = R8/8.
sqrows:
	MOVQ x_1_base+80(FP), R12
	MOVQ x_2_base+104(FP), R13
	MOVQ DI, R11

sqblock16:
	CMPQ AX, $16
	JL   sqblock4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R9
	XORL CX, CX

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
	XORL CX, CX

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
	JE   sqnextrow
	VXORPD X0, X0, X0
	MOVQ SI, R9
	XORL CX, CX

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

sqnextrow:
	DECQ R14
	JE   sqdone
	ADDQ R10, R11
	MOVQ R11, DI
	MOVQ R12, DX
	MOVQ R13, R12
	MOVQ pt_base+32(FP), SI
	MOVQ R8, AX
	SHRQ $3, AX
	JMP  sqblock16

sqdone:
	VZEROUPPER
	RET

// func dotsAVX(dst, pt, x []float64)
TEXT ·dotsAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), AX
	MOVQ pt_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), BX
	MOVQ AX, R8
	SHLQ $3, R8

dotblock16:
	CMPQ AX, $16
	JL   dotblock4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R9
	XORL CX, CX

dotrow16:
	CMPQ CX, BX
	JGE  dotstore16
	VBROADCASTSD (DX)(CX*8), Y8
	VMULPD (R9), Y8, Y4
	VMULPD 32(R9), Y8, Y5
	VMULPD 64(R9), Y8, Y6
	VMULPD 96(R9), Y8, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	ADDQ R8, R9
	INCQ CX
	JMP  dotrow16

dotstore16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, AX
	JMP  dotblock16

dotblock4:
	CMPQ AX, $4
	JL   dotblock1
	VXORPD Y0, Y0, Y0
	MOVQ SI, R9
	XORL CX, CX

dotrow4:
	CMPQ CX, BX
	JGE  dotstore4
	VBROADCASTSD (DX)(CX*8), Y8
	VMULPD (R9), Y8, Y4
	VADDPD Y4, Y0, Y0
	ADDQ R8, R9
	INCQ CX
	JMP  dotrow4

dotstore4:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, AX
	JMP  dotblock4

dotblock1:
	TESTQ AX, AX
	JE   dotdone
	VXORPD X0, X0, X0
	MOVQ SI, R9
	XORL CX, CX

dotrow1:
	CMPQ CX, BX
	JGE  dotstore1
	VMOVSD (DX)(CX*8), X8
	VMULSD (R9), X8, X4
	VADDSD X4, X0, X0
	ADDQ R8, R9
	INCQ CX
	JMP  dotrow1

dotstore1:
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	DECQ AX
	JMP  dotblock1

dotdone:
	VZEROUPPER
	RET

// func solveRowAVX(dst, b, pt, x []float64, pivot float64)
//
// A block starts from b's values, subtracts one solved row of pt per factor
// entry in x, and is divided by the pivot in Y15 once, on its way out.
TEXT ·solveRowAVX(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), AX
	MOVQ b_base+24(FP), R10
	MOVQ pt_base+48(FP), SI
	MOVQ x_base+72(FP), DX
	MOVQ x_len+80(FP), BX
	VBROADCASTSD pivot+96(FP), Y15
	MOVQ AX, R8
	SHLQ $3, R8

srblock16:
	CMPQ AX, $16
	JL   srblock4
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	MOVQ SI, R9
	XORL CX, CX

srrow16:
	CMPQ CX, BX
	JGE  srstore16
	VBROADCASTSD (DX)(CX*8), Y8
	VMULPD (R9), Y8, Y4
	VMULPD 32(R9), Y8, Y5
	VMULPD 64(R9), Y8, Y6
	VMULPD 96(R9), Y8, Y7
	VSUBPD Y4, Y0, Y0
	VSUBPD Y5, Y1, Y1
	VSUBPD Y6, Y2, Y2
	VSUBPD Y7, Y3, Y3
	ADDQ R8, R9
	INCQ CX
	JMP  srrow16

srstore16:
	VDIVPD Y15, Y0, Y0
	VDIVPD Y15, Y1, Y1
	VDIVPD Y15, Y2, Y2
	VDIVPD Y15, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R10
	ADDQ $128, SI
	SUBQ $16, AX
	JMP  srblock16

srblock4:
	CMPQ AX, $4
	JL   srblock1
	VMOVUPD (R10), Y0
	MOVQ SI, R9
	XORL CX, CX

srrow4:
	CMPQ CX, BX
	JGE  srstore4
	VBROADCASTSD (DX)(CX*8), Y8
	VMULPD (R9), Y8, Y4
	VSUBPD Y4, Y0, Y0
	ADDQ R8, R9
	INCQ CX
	JMP  srrow4

srstore4:
	VDIVPD Y15, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R10
	ADDQ $32, SI
	SUBQ $4, AX
	JMP  srblock4

srblock1:
	TESTQ AX, AX
	JE   srdone
	VMOVSD (R10), X0
	MOVQ SI, R9
	XORL CX, CX

srrow1:
	CMPQ CX, BX
	JGE  srstore1
	VMOVSD (DX)(CX*8), X8
	VMULSD (R9), X8, X4
	VSUBSD X4, X0, X0
	ADDQ R8, R9
	INCQ CX
	JMP  srrow1

srstore1:
	VDIVSD X15, X0, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, R10
	ADDQ $8, SI
	DECQ AX
	JMP  srblock1

srdone:
	VZEROUPPER
	RET

// func maxSquaresAVX(dst, pt []float64)
//
// A block's running maxima start at +0 and take VMAXPD with each row's
// squares, which returns the square when either is NaN, so a NaN would
// drop out again at the next finite row. A second register per block ORs
// in the unordered compare of every square with itself, all ones where it
// is NaN, and is ORed into the maxima on the way out. The rows end where
// R9 reaches the panel's end, R10: a column's row i sits at
// 8·(c + i·len(dst)) bytes, past the end exactly when i ≥ len(pt)/len(dst).
TEXT ·maxSquaresAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), AX
	MOVQ pt_base+24(FP), SI
	MOVQ pt_len+32(FP), BX
	LEAQ (SI)(BX*8), R10
	MOVQ AX, R8
	SHLQ $3, R8

mxblock16:
	CMPQ AX, $16
	JL   mxblock4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R9

mxrow16:
	CMPQ R9, R10
	JAE  mxstore16
	VMOVUPD (R9), Y8
	VMOVUPD 32(R9), Y9
	VMOVUPD 64(R9), Y10
	VMOVUPD 96(R9), Y11
	VMULPD Y8, Y8, Y8
	VMULPD Y9, Y9, Y9
	VMULPD Y10, Y10, Y10
	VMULPD Y11, Y11, Y11
	VCMPPD $3, Y8, Y8, Y12
	VCMPPD $3, Y9, Y9, Y13
	VCMPPD $3, Y10, Y10, Y14
	VCMPPD $3, Y11, Y11, Y15
	VORPD Y12, Y4, Y4
	VORPD Y13, Y5, Y5
	VORPD Y14, Y6, Y6
	VORPD Y15, Y7, Y7
	VMAXPD Y8, Y0, Y0
	VMAXPD Y9, Y1, Y1
	VMAXPD Y10, Y2, Y2
	VMAXPD Y11, Y3, Y3
	ADDQ R8, R9
	JMP  mxrow16

mxstore16:
	VORPD Y4, Y0, Y0
	VORPD Y5, Y1, Y1
	VORPD Y6, Y2, Y2
	VORPD Y7, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, AX
	JMP  mxblock16

mxblock4:
	CMPQ AX, $4
	JL   mxblock1
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	MOVQ SI, R9

mxrow4:
	CMPQ R9, R10
	JAE  mxstore4
	VMOVUPD (R9), Y8
	VMULPD Y8, Y8, Y8
	VCMPPD $3, Y8, Y8, Y12
	VORPD Y12, Y4, Y4
	VMAXPD Y8, Y0, Y0
	ADDQ R8, R9
	JMP  mxrow4

mxstore4:
	VORPD Y4, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, AX
	JMP  mxblock4

mxblock1:
	TESTQ AX, AX
	JE   mxdone
	VXORPD X0, X0, X0
	VXORPD X4, X4, X4
	MOVQ SI, R9

mxrow1:
	CMPQ R9, R10
	JAE  mxstore1
	VMOVSD (R9), X8
	VMULSD X8, X8, X8
	VCMPSD $3, X8, X8, X12
	VORPD X12, X4, X4
	VMAXSD X8, X0, X0
	ADDQ R8, R9
	JMP  mxrow1

mxstore1:
	VORPD X4, X0, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	DECQ AX
	JMP  mxblock1

mxdone:
	VZEROUPPER
	RET
