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

// TERM adds (x − q[j])² to the lanes of s, q[j] broadcast in qj: one
// subtraction, one multiplication, one addition, each rounded, so a lane sums
// its terms exactly as the Go loop does.
#define TERM(x, qj, s) \
	VSUBPD qj, x, x; \
	VMULPD x, x, x; \
	VADDPD x, s, s

// PAIR_PASS adds the terms of coordinates j … j+3 (byte offset R15) of the
// eight rows at AX … R14 to Y14 (the group of AX, BX, R9, R10) and Y15 (that
// of R11 … R14). q[j] … q[j+3] are broadcast in turn into Y8, the one register
// the query takes, so Y9 … Y11 stay free for the callers' running state.
#define PAIR_PASS \
	COLUMNS_A; \
	COLUMNS_B; \
	VBROADCASTSD (DX)(R15*1), Y8; \
	TERM(Y12, Y8, Y14); \
	TERM(Y13, Y8, Y15); \
	VBROADCASTSD 8(DX)(R15*1), Y8; \
	TERM(Y0, Y8, Y14); \
	TERM(Y4, Y8, Y15); \
	VBROADCASTSD 16(DX)(R15*1), Y8; \
	TERM(Y1, Y8, Y14); \
	TERM(Y5, Y8, Y15); \
	VBROADCASTSD 24(DX)(R15*1), Y8; \
	TERM(Y2, Y8, Y14); \
	TERM(Y6, Y8, Y15)

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
	PAIR_PASS
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
	VBROADCASTSD (DX)(R15*1), Y8
	TERM(Y12, Y8, Y14)
	VBROADCASTSD 8(DX)(R15*1), Y8
	TERM(Y0, Y8, Y14)
	VBROADCASTSD 16(DX)(R15*1), Y8
	TERM(Y1, Y8, Y14)
	VBROADCASTSD 24(DX)(R15*1), Y8
	TERM(Y2, Y8, Y14)
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

// func onesCount(set []uint64) int
//
// The population count of set, four words per step on four counters.
TEXT ·onesCount(SB), NOSPLIT, $0-32
	MOVQ set_base+0(FP), SI
	MOVQ set_len+8(FP), CX
	LEAQ (SI)(CX*8), DX
	ANDQ $-4, CX
	LEAQ (SI)(CX*8), CX
	XORQ AX, AX
	XORQ BX, BX
	XORQ R8, R8
	XORQ R9, R9

countWide:
	CMPQ    SI, CX
	JAE     countTail
	POPCNTQ (SI), R10
	POPCNTQ 8(SI), R11
	POPCNTQ 16(SI), R12
	POPCNTQ 24(SI), R13
	ADDQ    R10, AX
	ADDQ    R11, BX
	ADDQ    R12, R8
	ADDQ    R13, R9
	ADDQ    $32, SI
	JMP     countWide

countTail:
	CMPQ    SI, DX
	JAE     countDone
	POPCNTQ (SI), R10
	ADDQ    R10, AX
	ADDQ    $8, SI
	JMP     countTail

countDone:
	ADDQ BX, AX
	ADDQ R9, R8
	ADDQ R8, AX
	MOVQ AX, ret+24(FP)
	RET

// WALK lists the set bits of the word in AX, bit 0 standing for id BX: it
// writes the ids, ascending, as quadwords s1 bytes apart from DI on, four per
// step whatever the word holds — TZCNT of an exhausted word is 64, an id the
// next word overwrites — and leaves the population count in R8, by which the
// caller advances DI: the one branch on the data is taken by a word of more
// than four bits. s2, s3 are two and three entries, s4 four; step names the
// step's label. AX, R9 and R10 are clobbered.
#define WALK(step, s1, s2, s3, s4) \
	POPCNTQ AX, R8; \
	MOVQ    DI, R10; \
step: \
	TZCNTQ AX, R9; \
	ADDQ   BX, R9; \
	MOVQ   R9, (R10); \
	BLSRQ  AX, AX; \
	TZCNTQ AX, R9; \
	ADDQ   BX, R9; \
	MOVQ   R9, s1(R10); \
	BLSRQ  AX, AX; \
	TZCNTQ AX, R9; \
	ADDQ   BX, R9; \
	MOVQ   R9, s2(R10); \
	BLSRQ  AX, AX; \
	TZCNTQ AX, R9; \
	ADDQ   BX, R9; \
	MOVQ   R9, s3(R10); \
	ADDQ   $s4, R10; \
	BLSRQ  AX, AX; \
	JNZ    step

// LISTED walks the word in AX into dst at DI (WALK), advances DI past its
// entries, 16 bytes each, and BX to the next word's first id.
#define LISTED(step) \
	WALK(step, 16, 32, 48, 64); \
	SHLQ $4, R8; \
	ADDQ R8, DI; \
	ADDQ $64, BX

// func walkBits(dst []Neighbor, set []uint64)
//
// Sets the ID of dst[0], dst[1], … to the positions of the set bits of set,
// ascending, with the Go loop's writes: four per word whatever it holds. The
// words go four at a time, and a block of four empty words is skipped by one
// branch, which predicts both on a dense set (few blocks are empty) and on a
// sparse one (nearly all are); the words after the last block are walked one
// by one. dst has room for the population count of set plus bitSlack.
TEXT ·walkBits(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ set_base+24(FP), SI
	MOVQ set_len+32(FP), CX
	LEAQ (SI)(CX*8), R12         // R12: the end of set
	ANDQ $-4, CX
	LEAQ (SI)(CX*8), CX          // CX: the end of its blocks of four
	XORQ BX, BX

listBlocks:
	CMPQ SI, CX
	JAE  listWords
	MOVQ (SI), AX
	ORQ  8(SI), AX
	ORQ  16(SI), AX
	ORQ  24(SI), AX
	JZ   listEmpty
	MOVQ (SI), AX
	LISTED(list0)
	MOVQ 8(SI), AX
	LISTED(list1)
	MOVQ 16(SI), AX
	LISTED(list2)
	MOVQ 24(SI), AX
	LISTED(list3)
	ADDQ $32, SI
	JMP  listBlocks

listEmpty:
	ADDQ $32, SI
	ADDQ $256, BX
	JMP  listBlocks

listWords:
	CMPQ SI, R12
	JAE  listDone
	MOVQ (SI), AX
	LISTED(listw)
	ADDQ $8, SI
	JMP  listWords

listDone:
	RET

// WORD walks the word in AX into the id buffer at DI (WALK), advances DI past
// its ids and BX to the next word's first id.
#define WORD(step) \
	WALK(step, 8, 16, 24, 32); \
	LEAQ (DI)(R8*8), DI; \
	ADDQ $64, BX

// The frame of nearestAVX2. IDS holds the listed ids, 8 bytes each, 328 of
// them: a block of four words starts below FLUSHAT (64 ids) and adds at most
// 256, the words after the last block at most 192, and a drain reads, as the
// last group's padding writes, up to 8 past the end. WORDP, BASE, FILL and
// LAST hold the walk's state across a drain, COUNT the ids drained so far,
// MINS and LANEIDS the lanes for the reduction.
#define IDS 0
#define FLUSHAT 512
#define WORDP 2624
#define BASE 2632
#define FILL 2640
#define LAST 2648
#define COUNT 2656
#define MINS 2664
#define LANEIDS 2696

// ROWOF sets r to the address of the row of the point whose ID is at
// off(DI), pts (R8) + ID·8d (CX): nearestAVX2 checks the set against the
// row count before it reads a row.
#define ROWOF(off, r) MOVQ off(DI), r; IMULQ CX, r; ADDQ R8, r

// KEEP folds the four sums of sums, the group whose ids are at off(DI), into
// the running minima Y9 and their ids Y10, lane by lane: a sum replaces the
// minimum only when strictly smaller (an ordered compare, so never a NaN),
// and a lane sees its ids in ascending order, so it keeps the smallest id of
// its least sum. Y0 and Y1 are clobbered.
#define KEEP(off, sums) \
	VMOVDQU   off(DI), Y0; \
	VCMPPD    $0x11, Y9, sums, Y1; \
	VBLENDVPD Y1, sums, Y9, Y9; \
	VBLENDVPD Y1, Y0, Y10, Y10

// LANE folds the lane at m(SP), its id at i(SP), into the least Dist2 (its
// bits in AX) and that point's id (BX): the smaller Dist2 wins, an equal one
// the smaller id. A lane's Dist2 is +0 … +Inf, whose bits order as the
// values do.
#define LANE(m, i) \
	MOVQ    m(SP), CX; \
	MOVQ    i(SP), DX; \
	MOVQ    BX, R9; \
	CMPQ    DX, R9; \
	CMOVQLT DX, R9; \
	CMPQ    CX, AX; \
	CMOVQEQ R9, BX; \
	CMOVQCS DX, BX; \
	CMOVQCS CX, AX

// func nearestAVX2(set []uint64, q, pts []float64, rows int) (id int, dist2 float64, count int, ok bool)
//
// The NN fold of a survivor set in one pass: the point of set nearest to q,
// its squared distance and the population count of set — what dist2s over
// appendBits' list and the first strictly smaller minimum in id order give,
// bit for bit, with id −1 when no distance is below +Inf.
//
// The set is first checked against rows = len(pts)/d: a bit at or past it
// stops the kernel, ok false, before any row is read. The walk is walkBits'
// — blocks of four words, an empty block skipped by one branch — into the
// frame, with the population count taken from the buffer positions. When the
// ids pass FLUSHAT they are drained — groups of eight through
// PAIR_PASS, each lane keeping its least sum and id (KEEP) — the fewer than
// eight left move to the front, and the walk goes on; at the end the last
// group is padded with copies of the last id, and the four lanes are reduced
// by (Dist2, id). d = len(q) is a positive multiple of four.
TEXT ·nearestAVX2(SB), $2728-105
	MOVQ  set_base+0(FP), SI
	MOVQ  set_len+8(FP), DX
	MOVQ  rows+72(FP), CX
	MOVQ  CX, R9
	SHRQ  $6, R9                 // the word of id rows
	CMPQ  R9, DX
	JAE   inside
	MOVQ  (SI)(R9*8), AX
	SHRQ  CX, AX                 // its bits from id rows on
	TESTQ AX, AX
	JNZ   outside

beyond:
	INCQ R9
	CMPQ R9, DX
	JAE  inside
	CMPQ (SI)(R9*8), $0
	JNE  outside
	JMP  beyond

inside:
	MOVQ         $0x7ff0000000000000, R9
	VMOVQ        R9, X9
	VPBROADCASTQ X9, Y9             // minima +Inf
	VPCMPEQQ     Y10, Y10, Y10      // ids −1
	MOVQ         $0, COUNT(SP)
	MOVQ         $0, LAST(SP)
	XORQ         BX, BX
	LEAQ         IDS(SP), DI

walk:                                // SI: the next word, BX: its first id
	MOVQ set_base+0(FP), CX
	MOVQ set_len+8(FP), R12
	LEAQ (CX)(R12*8), R12        // R12: the end of set
	MOVQ R12, CX
	SUBQ SI, CX
	ANDQ $-32, CX
	ADDQ SI, CX                  // CX: the end of its blocks of four
	LEAQ FLUSHAT(SP), R11

blocks:
	CMPQ SI, CX
	JAE  words
	MOVQ (SI), AX
	ORQ  8(SI), AX
	ORQ  16(SI), AX
	ORQ  24(SI), AX
	JZ   emptyBlock
	MOVQ (SI), AX
	WORD(step0)
	MOVQ 8(SI), AX
	WORD(step1)
	MOVQ 16(SI), AX
	WORD(step2)
	MOVQ 24(SI), AX
	WORD(step3)
	ADDQ $32, SI
	CMPQ DI, R11
	JB   blocks
	MOVQ SI, WORDP(SP)
	MOVQ BX, BASE(SP)
	JMP  drain

emptyBlock:
	ADDQ $32, SI
	ADDQ $256, BX
	JMP  blocks

words:
	CMPQ SI, R12
	JAE  tail
	MOVQ (SI), AX
	WORD(stepw)
	ADDQ $8, SI
	JMP  words

tail:
	MOVQ         $1, LAST(SP)
	LEAQ         IDS(SP), R9
	MOVQ         DI, R10
	SUBQ         R9, R10
	JZ           reduce          // nothing listed since the last drain, if any
	SHRQ         $3, R10
	ADDQ         R10, COUNT(SP)
	VPBROADCASTQ -8(DI), Y0
	VMOVDQU      Y0, (DI)
	VMOVDQU      Y0, 32(DI)
	SUBQ         R9, DI
	ADDQ         $63, DI
	ANDQ         $-64, DI
	ADDQ         R9, DI

drain:                               // groups of eight from IDS up to DI
	MOVQ DI, FILL(SP)
	MOVQ q_base+24(FP), DX
	MOVQ q_len+32(FP), CX
	SHLQ $3, CX                  // CX = 8d, the row stride in bytes
	MOVQ pts_base+48(FP), R8
	LEAQ IDS(SP), DI

group:
	LEAQ 64(DI), R15
	CMPQ R15, FILL(SP)
	JA   drained
	ROWOF(0, AX)
	ROWOF(8, BX)
	ROWOF(16, R9)
	ROWOF(24, R10)
	ROWOF(32, R11)
	ROWOF(40, R12)
	ROWOF(48, R13)
	ROWOF(56, R14)
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	XORQ   R15, R15

groupLoop:
	PAIR_PASS
	ADDQ $32, R15
	CMPQ R15, CX
	JB   groupLoop

	KEEP(0, Y14)
	KEEP(32, Y15)
	ADDQ $64, DI
	JMP  group

drained:
	CMPQ    LAST(SP), $0
	JNE     reduce
	LEAQ    IDS(SP), R9
	MOVQ    DI, R10
	SUBQ    R9, R10
	SHRQ    $3, R10
	ADDQ    R10, COUNT(SP)       // the ids drained
	VMOVDQU (DI), Y0             // the fewer than 8 left, to the front
	VMOVDQU 32(DI), Y1
	VMOVDQU Y0, IDS(SP)
	VMOVDQU Y1, (IDS+32)(SP)
	MOVQ    FILL(SP), R10
	SUBQ    DI, R10
	LEAQ    (R9)(R10*1), DI
	MOVQ    WORDP(SP), SI
	MOVQ    BASE(SP), BX
	JMP     walk

reduce:
	VMOVUPD Y9, MINS(SP)
	VMOVDQU Y10, LANEIDS(SP)
	VZEROUPPER
	MOVQ    MINS(SP), AX
	MOVQ    LANEIDS(SP), BX
	LANE(MINS+8, LANEIDS+8)
	LANE(MINS+16, LANEIDS+16)
	LANE(MINS+24, LANEIDS+24)
	MOVQ    BX, id+80(FP)
	MOVQ    AX, dist2+88(FP)
	MOVQ    COUNT(SP), AX
	MOVQ    AX, count+96(FP)
	MOVB    $1, ok+104(FP)
	RET

outside:
	MOVQ $-1, id+80(FP)
	MOVQ $0, dist2+88(FP)
	MOVQ $0, count+96(FP)
	MOVB $0, ok+104(FP)
	RET
