//go:build amd64 && !race

#include "textflag.h"

// The AVX2 tier of the float64 kernels in vec.go. Lanes run across j:
// each instruction updates four adjacent cells of one row, and every
// cell applies its updates in ascending k with the roundings of the Go
// loops. A product is VMULPD then VADDPD or VSUBPD, never FMA, so it is
// rounded before the add. A relaxation is VMINPD with the candidate
// d = u+v as first source and the cell c as second (Go operand order
// VMINPD c, d, dst), which returns d < c ? d : c: "if d < c { c = d }"
// bit for bit, NaN and ±0 included. Loads and stores are unaligned,
// since a block's rows start anywhere. Callers check the bounds in Go
// and pass n > 0, a multiple of 4, and kn > 0.

// The update steps: c is a cell accumulator, a the broadcast U value,
// m four V cells in memory; Y15 is scratch.
#define MINPLUS(m, a, c) VADDPD m, a, Y15; VMINPD c, Y15, c
#define MULADD(m, a, c) VMULPD m, a, Y15; VADDPD Y15, c, c
#define MULSUB(m, a, c) VMULPD m, a, Y15; VSUBPD Y15, c, c

// ROW is a single-k row kernel, func(x, v *float64, u float64, n int):
// x[j] = STEP(v[j], u, x[j]) for j < n.
#define ROW(STEP) \
	MOVQ         x+0(FP), DI \
	MOVQ         v+8(FP), SI \
	VBROADCASTSD u+16(FP), Y4 \
	MOVQ         n+24(FP), CX \
	SHLQ         $3, CX \
	XORQ         AX, AX \
loop: \
	VMOVUPD (DI)(AX*1), Y0 \
	STEP((SI)(AX*1), Y4, Y0) \
	VMOVUPD Y0, (DI)(AX*1) \
	ADDQ    $32, AX \
	CMPQ    AX, CX \
	JLT     loop \
	VZEROUPPER \
	RET

// ROWK is a covered-block row kernel, func(x, u, v *float64, vs, kn,
// n int): for k = 0, 1, …, kn-1 in turn, x[j] = STEP(v[k*vs+j], u[k],
// x[j]) for j < n. Four k share each pass over the row, so four cells
// of x stay in a register across four updates.
#define ROWK(STEP) \
	MOVQ x+0(FP), DI \
	MOVQ u+8(FP), SI \
	MOVQ v+16(FP), DX \
	MOVQ vs+24(FP), R8 \
	SHLQ $3, R8 \
	MOVQ kn+32(FP), R9 \
	MOVQ n+40(FP), CX \
	SHLQ $3, CX \
quad: \
	CMPQ         R9, $4 \
	JLT          single \
	VBROADCASTSD 0(SI), Y4 \
	VBROADCASTSD 8(SI), Y5 \
	VBROADCASTSD 16(SI), Y6 \
	VBROADCASTSD 24(SI), Y7 \
	LEAQ         (DX)(R8*1), R10 \
	LEAQ         (R10)(R8*1), R11 \
	LEAQ         (R11)(R8*1), R12 \
	XORQ         AX, AX \
quadj: \
	VMOVUPD (DI)(AX*1), Y0 \
	STEP((DX)(AX*1), Y4, Y0) \
	STEP((R10)(AX*1), Y5, Y0) \
	STEP((R11)(AX*1), Y6, Y0) \
	STEP((R12)(AX*1), Y7, Y0) \
	VMOVUPD Y0, (DI)(AX*1) \
	ADDQ    $32, AX \
	CMPQ    AX, CX \
	JLT     quadj \
	ADDQ    $32, SI \
	LEAQ    (R12)(R8*1), DX \
	SUBQ    $4, R9 \
	JMP     quad \
single: \
	TESTQ        R9, R9 \
	JEQ          done \
	VBROADCASTSD (SI), Y4 \
	XORQ         AX, AX \
singlej: \
	VMOVUPD (DI)(AX*1), Y0 \
	STEP((DX)(AX*1), Y4, Y0) \
	VMOVUPD Y0, (DI)(AX*1) \
	ADDQ    $32, AX \
	CMPQ    AX, CX \
	JLT     singlej \
	ADDQ    $8, SI \
	ADDQ    R8, DX \
	DECQ    R9 \
	JMP     single \
done: \
	VZEROUPPER \
	RET

// func minPlusRow(x, v *float64, u float64, n int)
TEXT ·minPlusRow(SB), NOSPLIT, $0-32
	ROW(MINPLUS)

// func addRow(x, v *float64, u float64, n int)
TEXT ·addRow(SB), NOSPLIT, $0-32
	ROW(MULADD)

// func subRow(x, v *float64, u float64, n int)
TEXT ·subRow(SB), NOSPLIT, $0-32
	ROW(MULSUB)

// func minPlusRowK(x, u, v *float64, vs, kn, n int)
TEXT ·minPlusRowK(SB), NOSPLIT, $0-48
	ROWK(MINPLUS)

// func mulAddRowK(x, u, v *float64, vs, kn, n int)
TEXT ·mulAddRowK(SB), NOSPLIT, $0-48
	ROWK(MULADD)

// func mulSubRowK(x, u, v *float64, vs, kn, n int)
TEXT ·mulSubRowK(SB), NOSPLIT, $0-48
	ROWK(MULSUB)

// func mulAddChains(iters int, m, c float64) float64
// Twelve independent chains a = a·m + c, four lanes each (VMULPD then
// VADDPD), iters steps; returns one lane of their sum.
TEXT ·mulAddChains(SB), NOSPLIT, $0-32
	MOVQ         iters+0(FP), CX
	VBROADCASTSD m+8(FP), Y12
	VBROADCASTSD c+16(FP), Y13
	VMOVAPD      Y13, Y0
	VMOVAPD      Y13, Y1
	VMOVAPD      Y13, Y2
	VMOVAPD      Y13, Y3
	VMOVAPD      Y13, Y4
	VMOVAPD      Y13, Y5
	VMOVAPD      Y13, Y6
	VMOVAPD      Y13, Y7
	VMOVAPD      Y13, Y8
	VMOVAPD      Y13, Y9
	VMOVAPD      Y13, Y10
	VMOVAPD      Y13, Y11
	TESTQ        CX, CX
	JEQ          sum

step:
	VMULPD Y12, Y0, Y0
	VADDPD Y13, Y0, Y0
	VMULPD Y12, Y1, Y1
	VADDPD Y13, Y1, Y1
	VMULPD Y12, Y2, Y2
	VADDPD Y13, Y2, Y2
	VMULPD Y12, Y3, Y3
	VADDPD Y13, Y3, Y3
	VMULPD Y12, Y4, Y4
	VADDPD Y13, Y4, Y4
	VMULPD Y12, Y5, Y5
	VADDPD Y13, Y5, Y5
	VMULPD Y12, Y6, Y6
	VADDPD Y13, Y6, Y6
	VMULPD Y12, Y7, Y7
	VADDPD Y13, Y7, Y7
	VMULPD Y12, Y8, Y8
	VADDPD Y13, Y8, Y8
	VMULPD Y12, Y9, Y9
	VADDPD Y13, Y9, Y9
	VMULPD Y12, Y10, Y10
	VADDPD Y13, Y10, Y10
	VMULPD Y12, Y11, Y11
	VADDPD Y13, Y11, Y11
	DECQ CX
	JNE  step

sum:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VADDPD Y2, Y0, Y0
	VADDPD Y6, Y4, Y4
	VADDPD Y10, Y8, Y8
	VADDPD Y4, Y0, Y0
	VADDPD Y8, Y0, Y0
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

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
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
