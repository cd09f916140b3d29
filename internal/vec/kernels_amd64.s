//go:build amd64 && !race

#include "textflag.h"

// The assembly tiers of the float64 kernels in vec.go. Every routine
// has two paths: with useAVX512 set it runs columns [0, n&^7) eight
// cells per instruction in ZMM registers and a last group of four
// columns in YMM; otherwise (the AVX2 tier) it runs every column four
// cells per instruction in YMM. Lanes run across j: each instruction
// updates adjacent cells of one row, and every cell applies its
// updates in ascending k with the roundings of the Go loops. A product
// is VMULPD then VADDPD or VSUBPD, never FMA, so it is rounded before
// the add. A relaxation is VMINPD with the candidate d = u+v as first
// source and the cell c as second (Go operand order VMINPD c, d, dst),
// which returns d < c ? d : c: "if d < c { c = d }" bit for bit, NaN
// and ±0 included. Both widths execute the same instruction per cell,
// so the two tiers' outputs are the same bits. Loads and stores are
// unaligned, since a block's rows start anywhere. Callers check the
// bounds in Go and pass n > 0, a multiple of 4, and kn > 0.

// The update steps: c is a cell accumulator, a the broadcast U value,
// m the V cells in memory and t scratch, all of one width (Y or Z).
#define MINPLUS(m, a, c, t) VADDPD m, a, t; VMINPD c, t, c
#define MULADD(m, a, c, t) VMULPD m, a, t; VADDPD t, c, c
#define MULSUB(m, a, c, t) VMULPD m, a, t; VSUBPD t, c, c

// WIDE sets BX to the bytes of a row the ZMM path covers, (n&^7)·8 for
// CX = n·8 on the AVX-512 tier, and 0 otherwise.
#define WIDE \
	XORQ BX, BX \
	CMPB ·useAVX512(SB), $0 \
	JEQ  3(PC) \
	MOVQ CX, BX \
	ANDQ $-64, BX

// ROW is a single-k row kernel, func(x, v *float64, u float64, n int):
// x[j] = STEP(v[j], u, x[j]) for j < n.
#define ROW(STEP) \
	MOVQ x+0(FP), DI \
	MOVQ v+8(FP), SI \
	MOVQ n+24(FP), CX \
	SHLQ $3, CX \
	XORQ AX, AX \
	WIDE \
	TESTQ        BX, BX \
	JEQ          narrow \
	VBROADCASTSD u+16(FP), Z4 \
wide: \
	VMOVUPD (DI)(AX*1), Z0 \
	STEP((SI)(AX*1), Z4, Z0, Z15) \
	VMOVUPD Z0, (DI)(AX*1) \
	ADDQ    $64, AX \
	CMPQ    AX, BX \
	JLT     wide \
	CMPQ    AX, CX \
	JEQ     done \
	JMP     loop \
narrow: \
	VBROADCASTSD u+16(FP), Y4 \
loop: \
	VMOVUPD (DI)(AX*1), Y0 \
	STEP((SI)(AX*1), Y4, Y0, Y15) \
	VMOVUPD Y0, (DI)(AX*1) \
	ADDQ    $32, AX \
	CMPQ    AX, CX \
	JLT     loop \
done: \
	VZEROUPPER \
	RET

// ROWK is a covered-block row kernel, func(x, u, v *float64, vs, kn,
// n int): for k = 0, 1, …, kn-1 in turn, x[j] = STEP(v[k*vs+j], u[k],
// x[j]) for j < n. Four k share each pass over the row, so the cells
// of x stay in a register across four updates. A ZMM broadcast also
// fills the YMM register that is its low half, so the YMM group after
// the ZMM loop reuses it.
#define ROWK(STEP) \
	MOVQ x+0(FP), DI \
	MOVQ u+8(FP), SI \
	MOVQ v+16(FP), DX \
	MOVQ vs+24(FP), R8 \
	SHLQ $3, R8 \
	MOVQ kn+32(FP), R9 \
	MOVQ n+40(FP), CX \
	SHLQ $3, CX \
	WIDE \
quad: \
	CMPQ  R9, $4 \
	JLT   single \
	LEAQ  (DX)(R8*1), R10 \
	LEAQ  (R10)(R8*1), R11 \
	LEAQ  (R11)(R8*1), R12 \
	XORQ  AX, AX \
	TESTQ BX, BX \
	JEQ   quadnarrow \
	VBROADCASTSD 0(SI), Z4 \
	VBROADCASTSD 8(SI), Z5 \
	VBROADCASTSD 16(SI), Z6 \
	VBROADCASTSD 24(SI), Z7 \
quadwide: \
	VMOVUPD (DI)(AX*1), Z0 \
	STEP((DX)(AX*1), Z4, Z0, Z15) \
	STEP((R10)(AX*1), Z5, Z0, Z15) \
	STEP((R11)(AX*1), Z6, Z0, Z15) \
	STEP((R12)(AX*1), Z7, Z0, Z15) \
	VMOVUPD Z0, (DI)(AX*1) \
	ADDQ    $64, AX \
	CMPQ    AX, BX \
	JLT     quadwide \
	CMPQ    AX, CX \
	JEQ     quadnext \
	JMP     quadj \
quadnarrow: \
	VBROADCASTSD 0(SI), Y4 \
	VBROADCASTSD 8(SI), Y5 \
	VBROADCASTSD 16(SI), Y6 \
	VBROADCASTSD 24(SI), Y7 \
quadj: \
	VMOVUPD (DI)(AX*1), Y0 \
	STEP((DX)(AX*1), Y4, Y0, Y15) \
	STEP((R10)(AX*1), Y5, Y0, Y15) \
	STEP((R11)(AX*1), Y6, Y0, Y15) \
	STEP((R12)(AX*1), Y7, Y0, Y15) \
	VMOVUPD Y0, (DI)(AX*1) \
	ADDQ    $32, AX \
	CMPQ    AX, CX \
	JLT     quadj \
quadnext: \
	ADDQ $32, SI \
	LEAQ (R12)(R8*1), DX \
	SUBQ $4, R9 \
	JMP  quad \
single: \
	TESTQ R9, R9 \
	JEQ   done \
	XORQ  AX, AX \
	TESTQ BX, BX \
	JEQ   singlenarrow \
	VBROADCASTSD (SI), Z4 \
singlewide: \
	VMOVUPD (DI)(AX*1), Z0 \
	STEP((DX)(AX*1), Z4, Z0, Z15) \
	VMOVUPD Z0, (DI)(AX*1) \
	ADDQ    $64, AX \
	CMPQ    AX, BX \
	JLT     singlewide \
	CMPQ    AX, CX \
	JEQ     singlenext \
	JMP     singlej \
singlenarrow: \
	VBROADCASTSD (SI), Y4 \
singlej: \
	VMOVUPD (DI)(AX*1), Y0 \
	STEP((DX)(AX*1), Y4, Y0, Y15) \
	VMOVUPD Y0, (DI)(AX*1) \
	ADDQ    $32, AX \
	CMPQ    AX, CX \
	JLT     singlej \
singlenext: \
	ADDQ $8, SI \
	ADDQ R8, DX \
	DECQ R9 \
	JMP  single \
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

// CHAIN steps chain a: a = a·m + c, VMULPD then VADDPD.
#define CHAIN(m, c, a) VMULPD m, a, a; VADDPD c, a, a

// func mulAddChains(iters int, m, c float64) float64
// Independent chains a = a·m + c, iters steps each; returns one lane of
// their sum. The AVX-512 tier runs 24 chains of eight lanes, enough to
// keep the vector units busy across the multiply and add latencies;
// the AVX2 tier runs 12 chains of four lanes.
TEXT ·mulAddChains(SB), NOSPLIT, $0-32
	MOVQ iters+0(FP), CX
	CMPB ·useAVX512(SB), $0
	JEQ  narrow
	VBROADCASTSD m+8(FP), Z30
	VBROADCASTSD c+16(FP), Z31
	VMOVAPD      Z31, Z0
	VMOVAPD      Z31, Z1
	VMOVAPD      Z31, Z2
	VMOVAPD      Z31, Z3
	VMOVAPD      Z31, Z4
	VMOVAPD      Z31, Z5
	VMOVAPD      Z31, Z6
	VMOVAPD      Z31, Z7
	VMOVAPD      Z31, Z8
	VMOVAPD      Z31, Z9
	VMOVAPD      Z31, Z10
	VMOVAPD      Z31, Z11
	VMOVAPD      Z31, Z16
	VMOVAPD      Z31, Z17
	VMOVAPD      Z31, Z18
	VMOVAPD      Z31, Z19
	VMOVAPD      Z31, Z20
	VMOVAPD      Z31, Z21
	VMOVAPD      Z31, Z22
	VMOVAPD      Z31, Z23
	VMOVAPD      Z31, Z24
	VMOVAPD      Z31, Z25
	VMOVAPD      Z31, Z26
	VMOVAPD      Z31, Z27
	TESTQ        CX, CX
	JEQ          widesum

widestep:
	CHAIN(Z30, Z31, Z0)
	CHAIN(Z30, Z31, Z1)
	CHAIN(Z30, Z31, Z2)
	CHAIN(Z30, Z31, Z3)
	CHAIN(Z30, Z31, Z4)
	CHAIN(Z30, Z31, Z5)
	CHAIN(Z30, Z31, Z6)
	CHAIN(Z30, Z31, Z7)
	CHAIN(Z30, Z31, Z8)
	CHAIN(Z30, Z31, Z9)
	CHAIN(Z30, Z31, Z10)
	CHAIN(Z30, Z31, Z11)
	CHAIN(Z30, Z31, Z16)
	CHAIN(Z30, Z31, Z17)
	CHAIN(Z30, Z31, Z18)
	CHAIN(Z30, Z31, Z19)
	CHAIN(Z30, Z31, Z20)
	CHAIN(Z30, Z31, Z21)
	CHAIN(Z30, Z31, Z22)
	CHAIN(Z30, Z31, Z23)
	CHAIN(Z30, Z31, Z24)
	CHAIN(Z30, Z31, Z25)
	CHAIN(Z30, Z31, Z26)
	CHAIN(Z30, Z31, Z27)
	DECQ CX
	JNE  widestep

widesum:
	VADDPD Z16, Z0, Z0
	VADDPD Z17, Z1, Z1
	VADDPD Z18, Z2, Z2
	VADDPD Z19, Z3, Z3
	VADDPD Z20, Z4, Z4
	VADDPD Z21, Z5, Z5
	VADDPD Z22, Z6, Z6
	VADDPD Z23, Z7, Z7
	VADDPD Z24, Z8, Z8
	VADDPD Z25, Z9, Z9
	VADDPD Z26, Z10, Z10
	VADDPD Z27, Z11, Z11
	VADDPD Z1, Z0, Z0
	VADDPD Z3, Z2, Z2
	VADDPD Z5, Z4, Z4
	VADDPD Z7, Z6, Z6
	VADDPD Z9, Z8, Z8
	VADDPD Z11, Z10, Z10
	VADDPD Z2, Z0, Z0
	VADDPD Z6, Z4, Z4
	VADDPD Z10, Z8, Z8
	VADDPD Z4, Z0, Z0
	VADDPD Z8, Z0, Z0
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

narrow:
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
	CHAIN(Y12, Y13, Y0)
	CHAIN(Y12, Y13, Y1)
	CHAIN(Y12, Y13, Y2)
	CHAIN(Y12, Y13, Y3)
	CHAIN(Y12, Y13, Y4)
	CHAIN(Y12, Y13, Y5)
	CHAIN(Y12, Y13, Y6)
	CHAIN(Y12, Y13, Y7)
	CHAIN(Y12, Y13, Y8)
	CHAIN(Y12, Y13, Y9)
	CHAIN(Y12, Y13, Y10)
	CHAIN(Y12, Y13, Y11)
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
