#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func and4(acc, src, a, b, c, e []uint64)
//
// acc[w] = src[w] & a[w] & b[w] & c[w] & e[w] for every w < len(acc), four
// words per step and the last len(acc) mod 4 one at a time. src may be acc.
TEXT ·and4(SB), NOSPLIT, $0-144
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ a_base+48(FP), AX
	MOVQ b_base+72(FP), BX
	MOVQ c_base+96(FP), DX
	MOVQ e_base+120(FP), R8
	MOVQ CX, R10
	ANDQ $-4, R10
	XORQ R9, R9

and4wide:
	CMPQ R9, R10
	JAE  and4tail
	VMOVDQU (SI)(R9*8), Y0
	VMOVDQU (AX)(R9*8), Y1
	VPAND   (BX)(R9*8), Y0, Y0
	VPAND   (DX)(R9*8), Y1, Y1
	VPAND   (R8)(R9*8), Y0, Y0
	VPAND   Y1, Y0, Y0
	VMOVDQU Y0, (DI)(R9*8)
	ADDQ    $4, R9
	JMP     and4wide

and4tail:
	CMPQ R9, CX
	JAE  and4done
	MOVQ (SI)(R9*8), R11
	ANDQ (AX)(R9*8), R11
	ANDQ (BX)(R9*8), R11
	ANDQ (DX)(R9*8), R11
	ANDQ (R8)(R9*8), R11
	MOVQ R11, (DI)(R9*8)
	INCQ R9
	JMP  and4tail

and4done:
	VZEROUPPER
	RET

// func andNot4(acc, a, b, c, e []uint64)
//
// acc[w] &^= a[w] | b[w] | c[w] | e[w] for every w < len(acc), four words per
// step (VPANDN) and the last len(acc) mod 4 one at a time.
TEXT ·andNot4(SB), NOSPLIT, $0-120
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ a_base+24(FP), AX
	MOVQ b_base+48(FP), BX
	MOVQ c_base+72(FP), DX
	MOVQ e_base+96(FP), R8
	MOVQ CX, R10
	ANDQ $-4, R10
	XORQ R9, R9

andNot4wide:
	CMPQ   R9, R10
	JAE    andNot4tail
	VMOVDQU (AX)(R9*8), Y0
	VMOVDQU (BX)(R9*8), Y1
	VPOR   (DX)(R9*8), Y0, Y0
	VPOR   (R8)(R9*8), Y1, Y1
	VPOR   Y1, Y0, Y0
	VPANDN (DI)(R9*8), Y0, Y0
	VMOVDQU Y0, (DI)(R9*8)
	ADDQ   $4, R9
	JMP    andNot4wide

andNot4tail:
	CMPQ R9, CX
	JAE  andNot4done
	MOVQ (AX)(R9*8), R11
	ORQ  (BX)(R9*8), R11
	ORQ  (DX)(R9*8), R11
	ORQ  (R8)(R9*8), R11
	NOTQ R11
	ANDQ R11, (DI)(R9*8)
	INCQ R9
	JMP  andNot4tail

andNot4done:
	VZEROUPPER
	RET

// ROW sets r to the address of the row of the point whose ID is at off(DI),
// pts + ID·8d, after checking that ID, unsigned, is below rows (SI): the
// check that keeps every read inside pts, one compare off any dependency
// chain.
#define ROW(off, r) MOVQ off(DI), r; CMPQ r, SI; JAE outside; IMULQ CX, r; ADDQ R8, r

// COLUMNS_A loads coordinates j … j+3 (byte offset R15) of the rows at AX,
// BX, R9, R10 and transposes them in registers: Y12 holds coordinate j of the
// four points, one lane each, Y0 j+1, Y1 j+2, Y2 j+3. Each ymm starts as two
// halves from two rows (VMOVUPD + VINSERTF128), so one unpack per column
// finishes the transpose.
#define COLUMNS_A \
	VMOVUPD     (AX)(R15*1), X0; \
	VINSERTF128 $1, (R9)(R15*1), Y0, Y0; \
	VMOVUPD     (BX)(R15*1), X1; \
	VINSERTF128 $1, (R10)(R15*1), Y1, Y1; \
	VMOVUPD     16(AX)(R15*1), X2; \
	VINSERTF128 $1, 16(R9)(R15*1), Y2, Y2; \
	VMOVUPD     16(BX)(R15*1), X3; \
	VINSERTF128 $1, 16(R10)(R15*1), Y3, Y3; \
	VUNPCKLPD   Y1, Y0, Y12; \
	VUNPCKHPD   Y1, Y0, Y0; \
	VUNPCKLPD   Y3, Y2, Y1; \
	VUNPCKHPD   Y3, Y2, Y2

// COLUMNS_B is COLUMNS_A for the rows at R11, R12, R13, R14: columns j … j+3
// in Y13, Y4, Y5, Y6.
#define COLUMNS_B \
	VMOVUPD     (R11)(R15*1), X4; \
	VINSERTF128 $1, (R13)(R15*1), Y4, Y4; \
	VMOVUPD     (R12)(R15*1), X5; \
	VINSERTF128 $1, (R14)(R15*1), Y5, Y5; \
	VMOVUPD     16(R11)(R15*1), X6; \
	VINSERTF128 $1, 16(R13)(R15*1), Y6, Y6; \
	VMOVUPD     16(R12)(R15*1), X7; \
	VINSERTF128 $1, 16(R14)(R15*1), Y7, Y7; \
	VUNPCKLPD   Y5, Y4, Y13; \
	VUNPCKHPD   Y5, Y4, Y4; \
	VUNPCKLPD   Y7, Y6, Y5; \
	VUNPCKHPD   Y7, Y6, Y6

// QUERY broadcasts q[j] … q[j+3] into Y8 … Y11.
#define QUERY \
	VBROADCASTSD (DX)(R15*1), Y8; \
	VBROADCASTSD 8(DX)(R15*1), Y9; \
	VBROADCASTSD 16(DX)(R15*1), Y10; \
	VBROADCASTSD 24(DX)(R15*1), Y11

// TERM adds (x − q[j])² to the lanes of s, q[j] broadcast in qj: one
// subtraction, one multiplication, one addition, each rounded, so a lane sums
// its terms exactly as the Go loop does.
#define TERM(x, qj, s) \
	VSUBPD qj, x, x; \
	VMULPD x, x, x; \
	VADDPD x, s, s

// STORE writes the four lanes of Y (its low half X) to the Dist2 fields of
// the entries at off(DI) … off+48(DI).
#define STORE(off, X, Y) \
	VMOVSD       X, off+8(DI); \
	VMOVHPD      X, off+24(DI); \
	VEXTRACTF128 $1, Y, X; \
	VMOVSD       X, off+40(DI); \
	VMOVHPD      X, off+56(DI)

// func dist2sAVX2(list []Neighbor, q, pts []float64, rows int) (ok bool)
//
// Sets the Dist2 of every entry of list to the squared distance from q to the
// row ID of pts, and reports whether every ID was below rows = len(pts)/d; at
// the first that is not it stops, no row read. len(list) is a multiple of
// four and d = len(q) a positive multiple of four, as the Go caller sees to.
// Each ymm lane is one point, summing its d terms in index order
// with no fused multiply-add, so every result has vec.Dist2Flat's bits. Eight
// points (two groups of four) are in flight per pass over the coordinates.
TEXT ·dist2sAVX2(SB), NOSPLIT, $0-81
	MOVQ list_base+0(FP), DI
	MOVQ q_base+24(FP), DX
	MOVQ q_len+32(FP), CX
	SHLQ $3, CX                  // CX = 8d, the row stride in bytes
	MOVQ pts_base+48(FP), R8
	MOVQ rows+72(FP), SI

pairs:                           // list_len counts the entries left
	CMPQ list_len+8(FP), $8
	JB   single
	ROW(0, AX)
	ROW(16, BX)
	ROW(32, R9)
	ROW(48, R10)
	ROW(64, R11)
	ROW(80, R12)
	ROW(96, R13)
	ROW(112, R14)
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	XORQ   R15, R15

pairsLoop:
	COLUMNS_A
	COLUMNS_B
	QUERY
	TERM(Y12, Y8, Y14)
	TERM(Y13, Y8, Y15)
	TERM(Y0, Y9, Y14)
	TERM(Y4, Y9, Y15)
	TERM(Y1, Y10, Y14)
	TERM(Y5, Y10, Y15)
	TERM(Y2, Y11, Y14)
	TERM(Y6, Y11, Y15)
	ADDQ $32, R15
	CMPQ R15, CX
	JB   pairsLoop

	STORE(0, X14, Y14)
	STORE(64, X15, Y15)
	ADDQ $128, DI
	SUBQ $8, list_len+8(FP)
	JMP  pairs

single:
	CMPQ list_len+8(FP), $0
	JE   done
	ROW(0, AX)
	ROW(16, BX)
	ROW(32, R9)
	ROW(48, R10)
	VXORPD Y14, Y14, Y14
	XORQ   R15, R15

singleLoop:
	COLUMNS_A
	QUERY
	TERM(Y12, Y8, Y14)
	TERM(Y0, Y9, Y14)
	TERM(Y1, Y10, Y14)
	TERM(Y2, Y11, Y14)
	ADDQ $32, R15
	CMPQ R15, CX
	JB   singleLoop

	STORE(0, X14, Y14)

done:
	VZEROUPPER
	MOVB $1, ok+80(FP)
	RET

outside:
	VZEROUPPER
	MOVB $0, ok+80(FP)
	RET
