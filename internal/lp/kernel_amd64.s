#include "textflag.h"

// The AVX2 kernels of the dual simplex, four float64 lanes wide. Each computes
// bit for bit what the Go loop it replaces computes: a multiply and an add or
// subtract per term (VMULPD, then VADDPD or VSUBPD; no FMA, whose single
// rounding would change the floats), the terms in the Go loop's order. Only
// VEX-encoded instructions touch the vector registers and every exit runs
// VZEROUPPER: a legacy-SSE instruction (MOVSD, DIVSD, UCOMISD — what the Go
// compiler emits for float64 arithmetic) after a ymm write pays an AVX–SSE
// transition on every call.

// LANEMIN keeps, per lane, the least reduced cost below the lane's minimum
// in Y10 and its column in Y11 (a strict <, false for NaN: LT_OQ), then
// moves the lanes' columns in Y12 four on.
#define LANEMIN(red) \
	VCMPPD    $0x11, Y10, red, Y3; \
	VBLENDVPD Y3, red, Y10, Y10;   \
	VBLENDVPD Y3, Y12, Y11, Y11;   \
	VPADDQ    Y13, Y12, Y12

// func priceAVX2(consT, wPad, pi, red, wBox []float64, m int, bestRed float64, lanes *laneMinima)
//
// Prices the len(red) user columns, a multiple of four, sixteen and then four
// at a time: red[k] = wPad[k] − Σ_i pi[i]·consT[i·len(red)+k], the
// subtractions in index order. If wBox is not empty (len(pi) a multiple of four) it prices the box
// columns m … m+2·len(pi)−1 too, wBox[j] − pi[j] and then wBox[len(pi)+j] +
// pi[j], without storing them. Lane l keeps the least reduced cost below
// bestRed among the columns it priced and the first column that reached it,
// or bestRed and −1; lanes receives both.
TEXT ·priceAVX2(SB), NOSPLIT, $0-144
	MOVQ consT_base+0(FP), SI
	MOVQ wPad_base+24(FP), DX
	MOVQ pi_base+48(FP), R8
	MOVQ pi_len+56(FP), BX
	MOVQ red_base+72(FP), DI
	MOVQ red_len+80(FP), CX
	LEAQ (CX*8), R9                  // consT's row stride in bytes
	VBROADCASTSD bestRed+128(FP), Y10 // lane minima
	VPCMPEQQ     Y11, Y11, Y11        // their columns: −1, none yet
	VMOVDQU      lanes<>(SB), Y12     // the columns in the lanes: k … k+3
	VPBROADCASTQ four<>(SB), Y13
	XORQ         R10, R10
	MOVQ         CX, R14
	ANDQ         $-16, R14            // the columns priced sixteen at a time

user16:
	CMPQ    R10, R14
	JAE     user
	VMOVUPD (DX)(R10*8), Y0          // wPad[k : k+16] in four accumulators
	VMOVUPD 32(DX)(R10*8), Y4
	VMOVUPD 64(DX)(R10*8), Y5
	VMOVUPD 96(DX)(R10*8), Y6
	LEAQ    (SI)(R10*8), R11         // &consT[k], then one row further per i
	XORQ    R12, R12

user16Term:
	VBROADCASTSD (R8)(R12*8), Y1
	VMULPD       (R11), Y1, Y2
	VMULPD       32(R11), Y1, Y7
	VMULPD       64(R11), Y1, Y8
	VMULPD       96(R11), Y1, Y9
	VSUBPD       Y2, Y0, Y0
	VSUBPD       Y7, Y4, Y4
	VSUBPD       Y8, Y5, Y5
	VSUBPD       Y9, Y6, Y6
	ADDQ         R9, R11
	INCQ         R12
	CMPQ         R12, BX
	JB           user16Term

	VMOVUPD Y0, (DI)(R10*8)
	VMOVUPD Y4, 32(DI)(R10*8)
	VMOVUPD Y5, 64(DI)(R10*8)
	VMOVUPD Y6, 96(DI)(R10*8)
	LANEMIN(Y0)
	LANEMIN(Y4)
	LANEMIN(Y5)
	LANEMIN(Y6)
	ADDQ    $16, R10
	JMP     user16

user:
	CMPQ    R10, CX
	JAE     box
	VMOVUPD (DX)(R10*8), Y0          // wPad[k : k+4]
	LEAQ    (SI)(R10*8), R11
	XORQ    R12, R12

userTerm:
	VBROADCASTSD (R8)(R12*8), Y1
	VMULPD       (R11), Y1, Y2
	VSUBPD       Y2, Y0, Y0
	ADDQ         R9, R11
	INCQ         R12
	CMPQ         R12, BX
	JB           userTerm

	VMOVUPD Y0, (DI)(R10*8)
	LANEMIN(Y0)
	ADDQ    $4, R10
	JMP     user

box:
	MOVQ         wBox_base+96(FP), R13
	MOVQ         wBox_len+104(FP), AX
	TESTQ        AX, AX
	JZ           priced
	VPBROADCASTQ m+120(FP), Y12
	VPADDQ       lanes<>(SB), Y12, Y12 // the columns in the lanes: m+j … m+j+3
	LEAQ         (R13)(BX*8), R14      // &wBox[len(pi)], the lower bounds
	XORQ         R10, R10

boxUpper:
	VMOVUPD (R13)(R10*8), Y0
	VSUBPD  (R8)(R10*8), Y0, Y0
	LANEMIN(Y0)
	ADDQ    $4, R10
	CMPQ    R10, BX
	JB      boxUpper
	XORQ    R10, R10

boxLower:
	VMOVUPD (R14)(R10*8), Y0
	VADDPD  (R8)(R10*8), Y0, Y0
	LANEMIN(Y0)
	ADDQ    $4, R10
	CMPQ    R10, BX
	JB      boxLower

priced:
	MOVQ    lanes+136(FP), AX
	VMOVUPD Y10, 0(AX)
	VMOVDQU Y11, 32(AX)
	VZEROUPPER
	RET

// func piAVX2(pi, wb, binv []float64)
//
// pi = Σ_i wb[i]·binv[i] over the len(pi) rows of the row-major len(pi) ×
// len(pi) matrix binv, len(pi) a multiple of four: four entries of pi per
// pass, each summed from +0 with the rows in index order.
TEXT ·piAVX2(SB), NOSPLIT, $0-72
	MOVQ pi_base+0(FP), DI
	MOVQ pi_len+8(FP), CX
	MOVQ wb_base+24(FP), DX
	MOVQ binv_base+48(FP), SI
	LEAQ (CX*8), R9                  // row stride in bytes
	XORQ R10, R10

piQuad:
	VXORPD Y0, Y0, Y0
	LEAQ   (SI)(R10*8), R11          // &binv[0][j], then one row further per i
	XORQ   R12, R12

piTerm:
	VBROADCASTSD (DX)(R12*8), Y1
	VMULPD       (R11), Y1, Y2
	VADDPD       Y2, Y0, Y0
	ADDQ         R9, R11
	INCQ         R12
	CMPQ         R12, CX
	JB           piTerm

	VMOVUPD Y0, (DI)(R10*8)
	ADDQ    $4, R10
	CMPQ    R10, CX
	JB      piQuad
	VZEROUPPER
	RET

// func uAVX2(u, binv, col []float64)
//
// u = binv·col for the row-major len(u) × len(u) matrix binv, len(u) a
// multiple of four: four entries of u per pass, each summed from +0 with the
// columns in index order. Each 4 × 4 block of binv is transposed in the
// registers, so that one vector holds four rows' entries of one column.
TEXT ·uAVX2(SB), NOSPLIT, $0-72
	MOVQ u_base+0(FP), DI
	MOVQ u_len+8(FP), CX
	MOVQ binv_base+24(FP), SI
	MOVQ col_base+48(FP), DX
	LEAQ (CX*8), R9                  // row stride in bytes
	XORQ R10, R10                    // the first of four rows

uQuad:
	VXORPD Y0, Y0, Y0
	XORQ   R12, R12                  // the first of four columns

uBlock:
	LEAQ         (SI)(R12*8), R13
	VMOVUPD      (R13), Y4
	VMOVUPD      (R13)(R9*1), Y5
	VMOVUPD      (R13)(R9*2), Y6
	LEAQ         (R13)(R9*2), R13
	VMOVUPD      (R13)(R9*1), Y7
	VUNPCKLPD    Y5, Y4, Y8          // r0[0] r1[0] r0[2] r1[2]
	VUNPCKHPD    Y5, Y4, Y9          // r0[1] r1[1] r0[3] r1[3]
	VUNPCKLPD    Y7, Y6, Y14         // r2[0] r3[0] r2[2] r3[2]
	VUNPCKHPD    Y7, Y6, Y15         // r2[1] r3[1] r2[3] r3[3]
	VPERM2F128   $0x20, Y14, Y8, Y4  // column 0 of the block
	VPERM2F128   $0x20, Y15, Y9, Y5  // column 1
	VPERM2F128   $0x31, Y14, Y8, Y6  // column 2
	VPERM2F128   $0x31, Y15, Y9, Y7  // column 3
	VBROADCASTSD (DX)(R12*8), Y1
	VMULPD       Y1, Y4, Y2
	VADDPD       Y2, Y0, Y0
	VBROADCASTSD 8(DX)(R12*8), Y1
	VMULPD       Y1, Y5, Y2
	VADDPD       Y2, Y0, Y0
	VBROADCASTSD 16(DX)(R12*8), Y1
	VMULPD       Y1, Y6, Y2
	VADDPD       Y2, Y0, Y0
	VBROADCASTSD 24(DX)(R12*8), Y1
	VMULPD       Y1, Y7, Y2
	VADDPD       Y2, Y0, Y0
	ADDQ         $4, R12
	CMPQ         R12, CX
	JB           uBlock

	VMOVUPD Y0, (DI)(R10*8)
	LEAQ    (SI)(R9*4), SI           // four rows on
	ADDQ    $4, R10
	CMPQ    R10, CX
	JB      uQuad
	VZEROUPPER
	RET

// func updateAVX2(binv, u []float64, leave int, inv float64)
//
// The product-form update of the row-major len(u) × len(u) inverse binv,
// len(u) a multiple of four: row leave is scaled by inv, then every other row
// i with u[i] ≠ 0 (±0 skipped, NaN not) loses u[i] times it.
TEXT ·updateAVX2(SB), NOSPLIT, $0-64
	MOVQ         binv_base+0(FP), SI
	MOVQ         u_base+24(FP), DX
	MOVQ         u_len+32(FP), CX
	MOVQ         leave+48(FP), R8
	VBROADCASTSD inv+56(FP), Y0
	LEAQ         (CX*8), R9          // row stride in bytes
	MOVQ         R8, R10
	IMULQ        R9, R10
	ADDQ         SI, R10             // the pivot row
	XORQ         R11, R11

scale:
	VMULPD  (R10)(R11*8), Y0, Y1
	VMOVUPD Y1, (R10)(R11*8)
	ADDQ    $4, R11
	CMPQ    R11, CX
	JB      scale

	XORQ R12, R12                    // i
	MOVQ SI, R13                     // row i

row:
	CMPQ R12, R8
	JEQ  nextRow
	MOVQ (DX)(R12*8), AX
	SHLQ $1, AX                      // drop the sign: zero iff u[i] is ±0
	JZ   nextRow
	VBROADCASTSD (DX)(R12*8), Y1
	XORQ         R11, R11

rowQuad:
	VMULPD  (R10)(R11*8), Y1, Y2
	VMOVUPD (R13)(R11*8), Y3
	VSUBPD  Y2, Y3, Y3
	VMOVUPD Y3, (R13)(R11*8)
	ADDQ    $4, R11
	CMPQ    R11, CX
	JB      rowQuad

nextRow:
	ADDQ R9, R13
	INCQ R12
	CMPQ R12, CX
	JB   row
	VZEROUPPER
	RET

DATA lanes<>+0(SB)/8, $0
DATA lanes<>+8(SB)/8, $1
DATA lanes<>+16(SB)/8, $2
DATA lanes<>+24(SB)/8, $3
GLOBL lanes<>(SB), RODATA|NOPTR, $32

DATA four<>+0(SB)/8, $4
GLOBL four<>(SB), RODATA|NOPTR, $8
