#include "textflag.h"

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

// WORD lists the set bits of the word in AX, bit 0 standing for id BX, into
// the id buffer at DI: it writes the ids, ascending, as quadwords, four per
// step whatever the word holds — TZCNT of an exhausted word is 64, an id the
// next word overwrites — then advances DI by the word's population count
// (R8) and BX to the next word's first id. The one branch on the data is
// taken by a word of more than four bits; step names the step's label. AX,
// R9 and R10 are clobbered.
#define WORD(step) \
	POPCNTQ AX, R8; \
	MOVQ    DI, R10; \
step: \
	TZCNTQ AX, R9; \
	ADDQ   BX, R9; \
	MOVQ   R9, (R10); \
	BLSRQ  AX, AX; \
	TZCNTQ AX, R9; \
	ADDQ   BX, R9; \
	MOVQ   R9, 8(R10); \
	BLSRQ  AX, AX; \
	TZCNTQ AX, R9; \
	ADDQ   BX, R9; \
	MOVQ   R9, 16(R10); \
	BLSRQ  AX, AX; \
	TZCNTQ AX, R9; \
	ADDQ   BX, R9; \
	MOVQ   R9, 24(R10); \
	ADDQ   $32, R10; \
	BLSRQ  AX, AX; \
	JNZ    step; \
	LEAQ   (DI)(R8*8), DI; \
	ADDQ   $64, BX

// The frame of the fused folds, nearestAVX2 and boundedAVX2. IDS holds the
// listed ids, 8 bytes each, 328 of them: a block of four words starts below
// FLUSHAT (64 ids) and adds at most 256, the words after the last block at
// most 192, and a drain reads, as the last group's padding writes, up to 8
// past the end. WORDP, BASE, FILL and LAST hold the walk's state across a
// drain, COUNT the ids drained so far. nearestAVX2 keeps the lanes for its
// reduction in MINS and LANEIDS; boundedAVX2 keeps in REALEND the end of the
// set's ids in the last drain (until then all ones), in OUTP the next free
// output entry across a walk and in SECOND the lanes' second least sums.
#define IDS 0
#define FLUSHAT 512
#define WORDP 2624
#define BASE 2632
#define FILL 2640
#define LAST 2648
#define COUNT 2656
#define MINS 2664
#define LANEIDS 2696
#define REALEND 2728
#define OUTP 2736
#define SECOND 2744

// CHECK_SET checks the set (at base, len words) against rows = len(pts)/d:
// a bit at or past it jumps to outside, before any row is read; a set that
// passes goes on at inside. The callers name their arguments in the
// invocation, where go vet checks them against the Go declaration.
#define CHECK_SET(base, len, rows) \
	MOVQ  base, SI; \
	MOVQ  len, DX; \
	MOVQ  rows, CX; \
	MOVQ  CX, R9; \
	SHRQ  $6, R9; \
	CMPQ  R9, DX; \
	JAE   inside; \
	MOVQ  (SI)(R9*8), AX; \
	SHRQ  CX, AX; \
	TESTQ AX, AX; \
	JNZ   outside; \
beyond: \
	INCQ R9; \
	CMPQ R9, DX; \
	JAE  inside; \
	CMPQ (SI)(R9*8), $0; \
	JNE  outside; \
	JMP  beyond

// WALK_SET walks the set (at base, len words) from the word at SI, whose
// first id is BX, into IDS at DI (WORD): four words at a time, a block of
// four empty words skipped by one branch — which predicts both on a dense set
// (few blocks are empty) and on a sparse one (nearly all are) — then the
// words after the last block one by one. Once the ids pass FLUSHAT it saves SI and BX in WORDP and BASE and
// jumps to drain; at the end of the set it jumps to tail.
#define WALK_SET(base, len) \
walk: \
	MOVQ base, CX; \
	MOVQ len, R12; \
	LEAQ (CX)(R12*8), R12; \
	MOVQ R12, CX; \
	SUBQ SI, CX; \
	ANDQ $-32, CX; \
	ADDQ SI, CX; \
	LEAQ FLUSHAT(SP), R11; \
blocks: \
	CMPQ SI, CX; \
	JAE  words; \
	MOVQ (SI), AX; \
	ORQ  8(SI), AX; \
	ORQ  16(SI), AX; \
	ORQ  24(SI), AX; \
	JZ   emptyBlock; \
	MOVQ (SI), AX; \
	WORD(step0); \
	MOVQ 8(SI), AX; \
	WORD(step1); \
	MOVQ 16(SI), AX; \
	WORD(step2); \
	MOVQ 24(SI), AX; \
	WORD(step3); \
	ADDQ $32, SI; \
	CMPQ DI, R11; \
	JB   blocks; \
	MOVQ SI, WORDP(SP); \
	MOVQ BX, BASE(SP); \
	JMP  drain; \
emptyBlock: \
	ADDQ $32, SI; \
	ADDQ $256, BX; \
	JMP  blocks; \
words: \
	CMPQ SI, R12; \
	JAE  tail; \
	MOVQ (SI), AX; \
	WORD(stepw); \
	ADDQ $8, SI; \
	JMP  words

// TAIL_COUNT marks the last drain and adds the ids listed since the one
// before to COUNT, leaving their number in R10 and IDS in R9; with none it
// jumps to reduce.
#define TAIL_COUNT \
	MOVQ $1, LAST(SP); \
	LEAQ IDS(SP), R9; \
	MOVQ DI, R10; \
	SUBQ R9, R10; \
	JZ   reduce; \
	SHRQ $3, R10; \
	ADDQ R10, COUNT(SP)

// PAD_GROUP fills the last group of eight up with copies of the last id and
// moves DI to its end.
#define PAD_GROUP \
	VPBROADCASTQ -8(DI), Y0; \
	VMOVDQU      Y0, (DI); \
	VMOVDQU      Y0, 32(DI); \
	SUBQ         R9, DI; \
	ADDQ         $63, DI; \
	ANDQ         $-64, DI; \
	ADDQ         R9, DI

// DRAIN_START records DI, the end of the ids to drain, in FILL, loads the
// registers PAIR_PASS reads — q, 8d and pts — and points DI at the first
// group.
#define DRAIN_START(q, d, pts) \
	MOVQ DI, FILL(SP); \
	MOVQ q, DX; \
	MOVQ d, CX; \
	SHLQ $3, CX; \
	MOVQ pts, R8; \
	LEAQ IDS(SP), DI

// GROUP_SUMS takes the sums of the group of eight ids at DI into Y14 (the
// first four) and Y15, or jumps to drained when fewer than eight are left.
#define GROUP_SUMS \
	LEAQ 64(DI), R15; \
	CMPQ R15, FILL(SP); \
	JA   drained; \
	ROWOF(0, AX); \
	ROWOF(8, BX); \
	ROWOF(16, R9); \
	ROWOF(24, R10); \
	ROWOF(32, R11); \
	ROWOF(40, R12); \
	ROWOF(48, R13); \
	ROWOF(56, R14); \
	VXORPD Y14, Y14, Y14; \
	VXORPD Y15, Y15, Y15; \
	XORQ   R15, R15; \
groupLoop: \
	PAIR_PASS; \
	ADDQ $32, R15; \
	CMPQ R15, CX; \
	JB   groupLoop

// REFILL, after a drain that was not the last, adds the ids drained to
// COUNT, moves the fewer than eight left to the front of IDS and goes on
// walking from WORDP and BASE.
#define REFILL \
	LEAQ    IDS(SP), R9; \
	MOVQ    DI, R10; \
	SUBQ    R9, R10; \
	SHRQ    $3, R10; \
	ADDQ    R10, COUNT(SP); \
	VMOVDQU (DI), Y0; \
	VMOVDQU 32(DI), Y1; \
	VMOVDQU Y0, IDS(SP); \
	VMOVDQU Y1, (IDS+32)(SP); \
	MOVQ    FILL(SP), R10; \
	SUBQ    DI, R10; \
	LEAQ    (R9)(R10*1), DI; \
	MOVQ    WORDP(SP), SI; \
	MOVQ    BASE(SP), BX; \
	JMP     walk

// ROWOF sets r to the address of the row of the point whose ID is at
// off(DI), pts (R8) + ID·8d (CX): the fused folds check the set against the
// row count before they read a row.
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
// stops the kernel, ok false, before any row is read. The walk is WALK_SET's
// — blocks of four words, an empty block skipped by one branch — into the
// frame, with the population count taken from the buffer positions. When the
// ids pass FLUSHAT they are drained — groups of eight through
// PAIR_PASS, each lane keeping its least sum and id (KEEP) — the fewer than
// eight left move to the front, and the walk goes on; at the end the last
// group is padded with copies of the last id, and the four lanes are reduced
// by (Dist2, id). d = len(q) is a positive multiple of four.
TEXT ·nearestAVX2(SB), $2728-105
	CHECK_SET(set_base+0(FP), set_len+8(FP), rows+72(FP))

inside:
	MOVQ         $0x7ff0000000000000, R9
	VMOVQ        R9, X9
	VPBROADCASTQ X9, Y9             // minima +Inf
	VPCMPEQQ     Y10, Y10, Y10      // ids −1
	MOVQ         $0, COUNT(SP)
	MOVQ         $0, LAST(SP)
	XORQ         BX, BX
	LEAQ         IDS(SP), DI
	WALK_SET(set_base+0(FP), set_len+8(FP))

tail:
	TAIL_COUNT
	PAD_GROUP

drain:                               // groups of eight from IDS up to DI
	DRAIN_START(q_base+24(FP), q_len+32(FP), pts_base+48(FP))

group:
	GROUP_SUMS
	KEEP(0, Y14)
	KEEP(32, Y15)
	ADDQ $64, DI
	JMP  group

drained:
	CMPQ LAST(SP), $0
	JNE  reduce
	REFILL

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

// The lane numbers of a group of eight, for the compare that tells the
// padding of the last group from its ids, and +Inf, the sum a padding lane
// takes.
DATA lanesLo<>+0(SB)/8, $0
DATA lanesLo<>+8(SB)/8, $1
DATA lanesLo<>+16(SB)/8, $2
DATA lanesLo<>+24(SB)/8, $3
GLOBL lanesLo<>(SB), RODATA|NOPTR, $32
DATA lanesHi<>+0(SB)/8, $4
DATA lanesHi<>+8(SB)/8, $5
DATA lanesHi<>+16(SB)/8, $6
DATA lanesHi<>+24(SB)/8, $7
GLOBL lanesHi<>(SB), RODATA|NOPTR, $32
DATA posInf<>+0(SB)/8, $0x7ff0000000000000
GLOBL posInf<>(SB), RODATA|NOPTR, $8

// SECOND_LEAST folds the four sums of sums into the lanes' least sums m1 and
// second least sums at off(SP): with t = max(m1, sum), second = min(second,
// t), then m1 = min(m1, sum), where VMINPD's min(a, b) is a < b ? a : b and
// VMAXPD's max(a, b) is a > b ? a : b — laneMinima.fold, lane by lane. Y0
// and Y1 are clobbered.
#define SECOND_LEAST(off, sums, m1) \
	VMOVUPD off(SP), Y0; \
	VMAXPD  sums, m1, Y1; \
	VMINPD  Y1, Y0, Y0; \
	VMINPD  sums, m1, m1; \
	VMOVUPD Y0, off(SP)

// PASS writes the lanes of the group of four whose ids are at off(DI) and
// whose sums (sums) pass the bound in Y9 — ¬(sum > bound), VCMPPD's NGT_UQ,
// which a NaN passes — and whose bit is set in valid, as (ID, Dist2) entries
// from SI on, ascending, and advances SI past them. A group with no lane to
// write writes nothing; otherwise every lane is written at SI, which moves on
// by one entry for a lane that passes: no branch per lane. AX, BX and Y0–Y3
// are clobbered.
#define PASS(off, sums, valid, next) \
	VCMPPD       $0x1a, Y9, sums, Y1; \
	VMOVMSKPD    Y1, AX; \
	ANDQ         valid, AX; \
	JZ           next; \
	VMOVDQU      off(DI), Y0; \
	VUNPCKLPD    sums, Y0, Y2; \
	VUNPCKHPD    sums, Y0, Y3; \
	VMOVUPD      X2, (SI); \
	MOVQ         AX, BX; \
	ANDQ         $1, BX; \
	SHLQ         $4, BX; \
	ADDQ         BX, SI; \
	VMOVUPD      X3, (SI); \
	MOVQ         AX, BX; \
	ANDQ         $2, BX; \
	LEAQ         (SI)(BX*8), SI; \
	VEXTRACTF128 $1, Y2, (SI); \
	MOVQ         AX, BX; \
	ANDQ         $4, BX; \
	LEAQ         (SI)(BX*4), SI; \
	VEXTRACTF128 $1, Y3, (SI); \
	ANDQ         $8, AX; \
	LEAQ         (SI)(AX*2), SI; \
next:

// PREFETCH_ROWS asks the cache for the rows of the group of eight ids at
// off(DI), pts (R8) + ID·8d (CX): boundedAVX2 asks for those of the group two
// ahead of the one it sums, whose rows, read at random from the coordinate
// store, would otherwise stall that group. AX is clobbered.
#define PREFETCH_ROW(off) MOVQ off(DI), AX; IMULQ CX, AX; PREFETCHT0 (R8)(AX*1)
#define PREFETCH_ROWS(off) \
	PREFETCH_ROW(off); \
	PREFETCH_ROW(off+8); \
	PREFETCH_ROW(off+16); \
	PREFETCH_ROW(off+24); \
	PREFETCH_ROW(off+32); \
	PREFETCH_ROW(off+40); \
	PREFETCH_ROW(off+48); \
	PREFETCH_ROW(off+56)

// func boundedAVX2(set []uint64, q, pts []float64, rows int, bound float64, out []Neighbor, mins *laneMinima) (kept, count int, ok bool)
//
// The bounded fold of a set in one pass: the entries (ID, Dist2) of the points
// of set whose squared distance from q passes ¬(Dist2 > bound), ascending by
// id, written to out from its start, their number kept and the population
// count of set — what the compaction of dist2s over appendBits' list gives,
// bit for bit — and, when mins is not nil, the lanes' least and second least
// sums in it (laneMinima; lane l the ids at positions ≡ l mod 8).
//
// The check, the walk and the drains are nearestAVX2's; a group of eight
// asks for the rows of the group two ahead (PREFETCH_ROWS), takes its sums
// into the lane minima (SECOND_LEAST), compares each of its fours with the
// bound and writes only the lanes that pass (PASS). The last group's padding is told from its ids by position:
// its sums become +Inf, which no minimum takes from a real sum, and its lanes
// are never written. A drain starts only with room in out for every id it
// drains and one entry more (a lane that does not pass is written, to be
// written over by the next); without it the kernel returns kept −1, and the
// caller, who gives out room for the population count of set and one more,
// calls it again. d = len(q) is a positive multiple of four.
TEXT ·boundedAVX2(SB), $2808-137
	CHECK_SET(set_base+0(FP), set_len+8(FP), rows+72(FP))

inside:
	VBROADCASTSD bound+80(FP), Y9
	VBROADCASTSD posInf<>(SB), Y10   // least sums +Inf
	VMOVAPD      Y10, Y11
	VMOVUPD      Y10, SECOND(SP)     // second least +Inf
	VMOVUPD      Y10, (SECOND+32)(SP)
	MOVQ         out_base+88(FP), R9
	MOVQ         R9, OUTP(SP)
	MOVQ         $-1, REALEND(SP)
	MOVQ         $0, COUNT(SP)
	MOVQ         $0, LAST(SP)
	XORQ         BX, BX
	LEAQ         IDS(SP), DI
	WALK_SET(set_base+0(FP), set_len+8(FP))

tail:
	TAIL_COUNT
	MOVQ DI, REALEND(SP)
	PAD_GROUP

drain:                               // groups of eight from IDS up to DI
	DRAIN_START(q_base+24(FP), q_len+32(FP), pts_base+48(FP))
	MOVQ OUTP(SP), SI
	MOVQ out_base+88(FP), AX
	MOVQ out_len+96(FP), BX
	SHLQ $4, BX
	ADDQ BX, AX
	SUBQ SI, AX                  // the room left in out, in bytes
	MOVQ    FILL(SP), BX
	CMPQ    BX, REALEND(SP)
	CMOVQHI REALEND(SP), BX      // the last group's padding takes no room
	SUBQ    DI, BX
	LEAQ    16(BX)(BX*1), BX     // 16 bytes an id to drain, and one entry more
	CMPQ AX, BX
	JB   short

group:
	GROUP_SUMS
	LEAQ 192(DI), AX
	CMPQ AX, FILL(SP)
	JA   fetched
	PREFETCH_ROWS(128)
fetched:
	MOVQ $15, R11                // every lane of both fours is an id
	MOVQ $15, R12
	LEAQ 64(DI), AX
	CMPQ AX, REALEND(SP)
	JA   padding

lanes:
	CMPQ mins+112(FP), $0
	JEQ  compare
	SECOND_LEAST(SECOND, Y14, Y10)
	SECOND_LEAST(SECOND+32, Y15, Y11)

compare:
	PASS(0, Y14, R11, passedLo)
	PASS(32, Y15, R12, passedHi)
	ADDQ $64, DI
	JMP  group

padding:                             // the last group: its ids end at REALEND
	MOVQ         REALEND(SP), AX
	SUBQ         DI, AX
	SHRQ         $3, AX              // 1 … 7 ids
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0
	VPCMPGTQ     lanesLo<>(SB), Y0, Y1
	VPCMPGTQ     lanesHi<>(SB), Y0, Y2
	VMOVMSKPD    Y1, R11
	VMOVMSKPD    Y2, R12
	VBROADCASTSD posInf<>(SB), Y3
	VBLENDVPD    Y1, Y14, Y3, Y14
	VBLENDVPD    Y2, Y15, Y3, Y15
	JMP          lanes

drained:
	MOVQ SI, OUTP(SP)
	CMPQ LAST(SP), $0
	JNE  reduce
	REFILL

reduce:
	MOVQ  OUTP(SP), SI
	SUBQ  out_base+88(FP), SI
	SHRQ  $4, SI
	MOVQ  SI, kept+120(FP)
	MOVQ  COUNT(SP), AX
	MOVQ  AX, count+128(FP)
	MOVQ  mins+112(FP), AX
	TESTQ AX, AX
	JZ    done
	VMOVUPD Y10, (AX)
	VMOVUPD Y11, 32(AX)
	VMOVUPD SECOND(SP), Y0
	VMOVUPD Y0, 64(AX)
	VMOVUPD (SECOND+32)(SP), Y0
	VMOVUPD Y0, 96(AX)

done:
	VZEROUPPER
	MOVB $1, ok+136(FP)
	RET

short:
	VZEROUPPER
	MOVQ $-1, kept+120(FP)
	MOVQ $0, count+128(FP)
	MOVB $1, ok+136(FP)
	RET

outside:
	MOVQ $0, kept+120(FP)
	MOVQ $0, count+128(FP)
	MOVB $0, ok+136(FP)
	RET

// func compactAVX2(list []Neighbor, bound float64) (kept int)
//
// Moves the entries of list whose Dist2 passes ¬(Dist2 > bound) — VCMPPD's
// NGT_UQ, which a NaN passes — to its front, in order, and returns their
// number: compact's Go loop, four entries a step. A step loads its four
// entries, compares the two ymm of (ID, Dist2) pairs with the bound and
// writes each entry at DI, moving DI on by 16 bytes for one that passes: no
// branch on a distance, where the dozen entries that pass among the two
// hundred of a seed list would mispredict one. The writes stay behind the
// reads: DI never passes the step's first entry, and a step writes at most
// 64 bytes from there. The last len mod 4 entries go one at a time.
TEXT ·compactAVX2(SB), NOSPLIT, $0-40
	MOVQ         list_base+0(FP), SI
	MOVQ         list_len+8(FP), CX
	VBROADCASTSD bound+24(FP), Y9
	MOVQ         SI, DI
	SHLQ         $4, CX
	ADDQ         SI, CX              // CX: the end of list
	MOVQ         CX, R8
	SUBQ         SI, R8
	ANDQ         $-64, R8
	ADDQ         SI, R8              // R8: the end of its steps of four

compactSteps:
	CMPQ      SI, R8
	JAE       compactTail
	VMOVUPD   (SI), Y0               // entries 0 and 1: ID, Dist2, ID, Dist2
	VMOVUPD   32(SI), Y1             // entries 2 and 3
	VCMPPD    $0x1a, Y9, Y0, Y2
	VCMPPD    $0x1a, Y9, Y1, Y3
	VMOVMSKPD Y2, AX
	VMOVMSKPD Y3, BX
	SHLQ      $4, BX
	ORQ       BX, AX
	ANDQ      $0xaa, AX              // the Dist2 lanes: bits 1, 3, 5 and 7
	VMOVUPD   X0, (DI)
	MOVQ      AX, BX
	ANDQ      $2, BX
	LEAQ      (DI)(BX*8), DI
	VEXTRACTF128 $1, Y0, (DI)
	MOVQ      AX, BX
	ANDQ      $8, BX
	LEAQ      (DI)(BX*2), DI
	VMOVUPD   X1, (DI)
	MOVQ      AX, BX
	ANDQ      $32, BX
	SHRQ      $1, BX
	ADDQ      BX, DI
	VEXTRACTF128 $1, Y1, (DI)
	ANDQ      $128, AX
	SHRQ      $3, AX
	ADDQ      AX, DI
	ADDQ      $64, SI
	JMP  compactSteps

compactTail:
	CMPQ      SI, CX
	JAE       compactDone
	VMOVUPD   (SI), X0
	VCMPPD    $0x1a, X9, X0, X2
	VMOVMSKPD X2, AX
	VMOVUPD   X0, (DI)
	ANDQ      $2, AX
	LEAQ      (DI)(AX*8), DI
	ADDQ      $16, SI
	JMP       compactTail

compactDone:
	SUBQ list_base+0(FP), DI
	SHRQ $4, DI
	MOVQ DI, kept+32(FP)
	VZEROUPPER
	RET

// func boundAVX2(m *laneMinima, k int) float64
//
// laneMinima.bound: the least of the sixteen minima with at least k minima at
// or below it (an ordered compare, so a NaN counts none and has none), +Inf
// when none has — the k-th least, a NaN taken as +Inf. Each minimum is
// broadcast, compared with all sixteen and the count of the four masks taken
// with POPCNT; the least by bits, which order as the values do for +0 … +Inf,
// is kept without a branch.
TEXT ·boundAVX2(SB), NOSPLIT, $0-24
	MOVQ    m+0(FP), SI
	MOVQ    k+8(FP), DX
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	MOVQ    $0x7ff0000000000000, R11 // +Inf
	MOVQ    R11, AX                  // the bound so far
	XORQ    CX, CX

boundEach:
	VBROADCASTSD (SI)(CX*8), Y4
	VCMPPD       $0x12, Y4, Y0, Y5   // minimum ≤ this one (LE_OQ)
	VCMPPD       $0x12, Y4, Y1, Y6
	VCMPPD       $0x12, Y4, Y2, Y7
	VCMPPD       $0x12, Y4, Y3, Y8
	VMOVMSKPD    Y5, R8
	VMOVMSKPD    Y6, R9
	VMOVMSKPD    Y7, R10
	VMOVMSKPD    Y8, BX
	SHLQ         $4, R9
	SHLQ         $8, R10
	SHLQ         $12, BX
	ORQ          R9, R8
	ORQ          BX, R10
	ORQ          R10, R8
	POPCNTQ      R8, R8
	MOVQ         (SI)(CX*8), R9
	CMPQ         R8, DX
	CMOVQLT      R11, R9             // fewer than k at or below it: +Inf
	CMPQ         R9, AX
	CMOVQCS      R9, AX
	INCQ         CX
	CMPQ         CX, $16
	JB           boundEach

	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET
