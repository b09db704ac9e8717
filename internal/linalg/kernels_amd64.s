//go:build amd64 && !amd64.v3

// AVX column kernels (see kernels.go for what each computes). Four doubles
// per instruction, unaligned loads, a multiply and then a separate
// subtract, add or divide — never a fused multiply-add, which rounds once
// where the Go loops round twice. Each call produces one output row: it
// walks the columns in blocks of 16 (four independent chains), then 4,
// then 1, and holds a block's running values in registers while it walks
// down the block's column of the panel, R9 stepping R8 = 8·len(dst) bytes
// a row. Each clears the upper register halves before it returns.

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

// func sqDistsAVX(dst, pt, x []float64)
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
	JE   sqdone
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
