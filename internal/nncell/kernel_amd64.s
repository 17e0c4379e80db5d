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
// the id buffer at DI: it writes the ids, ascending, as dwords, four per step
// whatever the word holds — TZCNT of an exhausted word is 64, an id the next
// word overwrites — then advances DI by the word's population count (R8) and
// BX to the next word's first id. The one branch on the data is taken by a
// word of more than four bits; step names the step's label. AX, R9 and R10
// are clobbered.
#define WORD(step) \
	POPCNTQ AX, R8; \
	MOVQ    DI, R10; \
step: \
	TZCNTQ AX, R9; \
	ADDQ   BX, R9; \
	MOVL   R9, (R10); \
	BLSRQ  AX, AX; \
	TZCNTQ AX, R9; \
	ADDQ   BX, R9; \
	MOVL   R9, 4(R10); \
	BLSRQ  AX, AX; \
	TZCNTQ AX, R9; \
	ADDQ   BX, R9; \
	MOVL   R9, 8(R10); \
	BLSRQ  AX, AX; \
	TZCNTQ AX, R9; \
	ADDQ   BX, R9; \
	MOVL   R9, 12(R10); \
	ADDQ   $16, R10; \
	BLSRQ  AX, AX; \
	JNZ    step; \
	LEAQ   (DI)(R8*4), DI; \
	ADDQ   $64, BX

// The frame of the fused folds, nearestAVX2 and boundedAVX2. IDS holds the
// listed ids, 4 bytes each (the kernels' callers hold fewer than 2³² rows),
// 328 of them: a block of four words starts below FLUSHAT (64 ids) and adds
// at most 256, the words after the last block at most 192, and a drain reads,
// as the last group's padding writes, up to 8 past the end. WORDP, BASE,
// FILL and LAST hold the walk's state across a drain, COUNT the ids drained
// so far, REALEND the end of the set's ids in the last drain (until then all
// ones). With the code bound, PEND holds the ids whose distances are still
// to take — fewer than eight between groups, 16 slots for the store of eight
// that may follow — PENDP their end while a drain does not hold it in R8,
// DISTS the number of distances taken, RAWP the next group of listed ids
// while a pending group's are taken, and CODEEND the end of the code chunks'
// slice headers. nearestAVX2 keeps the lanes for its reduction in MINS and
// LANEIDS; boundedAVX2 keeps in OUTP the next free output entry across a walk
// and in SECOND the lanes' second least sums.
#define IDS 0
#define FLUSHAT 256
#define WORDP 1312
#define BASE 1320
#define FILL 1328
#define LAST 1336
#define COUNT 1344
#define REALEND 1352
#define RAWP 1360
#define PENDP 1368
#define DISTS 1376
#define CODEEND 1384
#define PEND 1392
#define MINS 1456
#define LANEIDS 1488
#define OUTP 1456
#define SECOND 1464

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
// jumps to empty.
#define TAIL_COUNT(empty) \
	MOVQ $1, LAST(SP); \
	LEAQ IDS(SP), R9; \
	MOVQ DI, R10; \
	SUBQ R9, R10; \
	JZ   empty; \
	SHRQ $2, R10; \
	ADDQ R10, COUNT(SP)

// PAD_GROUP fills the last group of eight up with copies of the last id and
// moves DI to its end.
#define PAD_GROUP \
	VPBROADCASTD -4(DI), Y0; \
	VMOVDQU      Y0, (DI); \
	SUBQ         R9, DI; \
	ADDQ         $31, DI; \
	ANDQ         $-32, DI; \
	ADDQ         R9, DI

// FOLD_REGS loads the registers PAIR_PASS reads: q, 8d and pts.
#define FOLD_REGS(q, d, pts) \
	MOVQ q, DX; \
	MOVQ d, CX; \
	SHLQ $3, CX; \
	MOVQ pts, R8

// DRAIN_START records DI, the end of the ids to drain, in FILL, loads the
// registers PAIR_PASS reads and points DI at the first group.
#define DRAIN_START(q, d, pts) \
	MOVQ DI, FILL(SP); \
	FOLD_REGS(q, d, pts); \
	LEAQ IDS(SP), DI

// ROWOF sets r to the address of the row of the point whose ID is at
// off(DI), pts (R8) + ID·8d (CX): the fused folds check the set against the
// row count before they read a row.
#define ROWOF(off, r) MOVL off(DI), r; IMULQ CX, r; ADDQ R8, r

// SUMS takes the sums of the group of eight ids at DI into Y14 (the first
// four) and Y15; loop names its loop's label.
#define SUMS(loop) \
	ROWOF(0, AX); \
	ROWOF(4, BX); \
	ROWOF(8, R9); \
	ROWOF(12, R10); \
	ROWOF(16, R11); \
	ROWOF(20, R12); \
	ROWOF(24, R13); \
	ROWOF(28, R14); \
	VXORPD Y14, Y14, Y14; \
	VXORPD Y15, Y15, Y15; \
	XORQ   R15, R15; \
loop: \
	PAIR_PASS; \
	ADDQ $32, R15; \
	CMPQ R15, CX; \
	JB   loop

// GROUP_SUMS is SUMS of the next group of eight listed ids, or jumps to
// drained when fewer than eight are left.
#define GROUP_SUMS \
	LEAQ 32(DI), R15; \
	CMPQ R15, FILL(SP); \
	JA   drained; \
	SUMS(groupLoop)

// REFILL, after a drain that was not the last, adds the ids drained to
// COUNT, moves the fewer than eight left to the front of IDS and goes on
// walking from WORDP and BASE.
#define REFILL \
	LEAQ    IDS(SP), R9; \
	MOVQ    DI, R10; \
	SUBQ    R9, R10; \
	SHRQ    $2, R10; \
	ADDQ    R10, COUNT(SP); \
	VMOVDQU (DI), Y0; \
	VMOVDQU Y0, IDS(SP); \
	MOVQ    FILL(SP), R10; \
	SUBQ    DI, R10; \
	LEAQ    (R9)(R10*1), DI; \
	MOVQ    WORDP(SP), SI; \
	MOVQ    BASE(SP), BX; \
	JMP     walk

// LOAD_CODES loads the code words at base + 8·id of the ids in AX, BX, R11
// and R12 into the quadwords of lo and of those in R9, R10, R13 and R14 into
// hi — the order in which SQUARES' sums come out of one VPHADDD as the eight
// ids' — by broadcasts, which are loads, and blends, which leave the shuffle
// port free. Y2 and Y3 are clobbered.
#define LOAD_CODES(base, lo, hi) \
	VPBROADCASTQ (base)(AX*8), lo; \
	VPBROADCASTQ (base)(BX*8), Y2; \
	VPBLENDD     $0x0c, Y2, lo, lo; \
	VPBROADCASTQ (base)(R11*8), Y2; \
	VPBLENDD     $0x30, Y2, lo, lo; \
	VPBROADCASTQ (base)(R12*8), Y2; \
	VPBLENDD     $0xc0, Y2, lo, lo; \
	VPBROADCASTQ (base)(R9*8), hi; \
	VPBROADCASTQ (base)(R10*8), Y3; \
	VPBLENDD     $0x0c, Y3, hi, hi; \
	VPBROADCASTQ (base)(R13*8), Y3; \
	VPBLENDD     $0x30, Y3, hi, hi; \
	VPBROADCASTQ (base)(R14*8), Y3; \
	VPBLENDD     $0xc0, Y3, hi, hi

// SQUARES sets the bytes of c, a word of codes of four points, to min(127,
// max(0, |c − q| − 1)) — the saturating differences c − (q + 1) and (q − 1) −
// c, the query's codes plus and minus one in qhi and qlo, one of them 0 — and
// then each quadword to the sums of their squares, four to a dword
// (VPMADDUBSW of c with itself, then VPMADDWD with the ones in Y14); 127 in
// every byte of Y15 keeps them inside VPMADDUBSW's signed bytes. t is
// clobbered.
#define SQUARES(c, t, qhi, qlo) \
	VPSUBUSB   qhi, c, t; \
	VPSUBUSB   c, qlo, c; \
	VPOR       t, c, c; \
	VPMINUB    Y15, c, c; \
	VPMADDUBSW c, c, c; \
	VPMADDWD   Y14, c, c

// CODE_CONSTS loads the constants of CODE_BOUNDS: the words 1 in Y14, the
// bytes 127 in Y15, the first chunk's base in R15 and the query's codes of
// it plus and minus one in Y6 and Y7 (from the slice headers at codes and
// the words at qcodes). PAIR_PASS clobbers them.
#define CODE_CONSTS(codes, qcodes) \
	VPCMPEQW     Y14, Y14, Y14; \
	VPSRLW       $15, Y14, Y14; \
	MOVL         $0x7f7f7f7f, AX; \
	VMOVD        AX, X15; \
	VPBROADCASTD X15, Y15; \
	MOVQ         codes, AX; \
	MOVQ         (AX), R15; \
	MOVQ         qcodes, AX; \
	VPBROADCASTQ (AX), Y6; \
	VPBROADCASTQ 8(AX), Y7

// CODE_END stores in CODEEND the end of the slice headers of the code chunks
// (at base, len of them).
#define CODE_END(base, len) \
	MOVQ len, AX; \
	LEAQ (AX)(AX*2), AX; \
	MOVQ base, CX; \
	LEAQ (CX)(AX*8), AX; \
	MOVQ AX, CODEEND(SP)

// LIMIT puts the code limit in AX, a 32-bit integer, into every dword of
// Y11.
#define LIMIT \
	VMOVD        AX, X11; \
	VPBROADCASTD X11, Y11

// CODE_BOUNDS sets AX to the mask of the eight ids at DI whose code bound
// (codes.go) does not exceed the limit in Y11: a chunk at a time, the words
// of the eight points read at their ids (LOAD_CODES) — the first chunk's
// from R15 against Y6 and Y7 (CODE_CONSTS), each further one's from its
// slice header at codes, to CODEEND, against the query's two words at
// qcodes — and one VPHADDD then takes the bounds in id order into the dwords
// of Y4. chunk and summed name the labels of the loop over the chunks past
// the first.
#define CODE_BOUNDS(codes, qcodes, chunk, summed) \
	MOVL         0(DI), AX; \
	MOVL         4(DI), BX; \
	MOVL         8(DI), R9; \
	MOVL         12(DI), R10; \
	MOVL         16(DI), R11; \
	MOVL         20(DI), R12; \
	MOVL         24(DI), R13; \
	MOVL         28(DI), R14; \
	LOAD_CODES(R15, Y4, Y5); \
	SQUARES(Y4, Y2, Y6, Y7); \
	SQUARES(Y5, Y3, Y6, Y7); \
	MOVQ         codes, SI; \
	MOVQ         qcodes, DX; \
chunk: \
	ADDQ         $24, SI; \
	CMPQ         SI, CODEEND(SP); \
	JAE          summed; \
	ADDQ         $16, DX; \
	MOVQ         (SI), CX; \
	VPBROADCASTQ (DX), Y8; \
	VPBROADCASTQ 8(DX), Y1; \
	LOAD_CODES(CX, Y12, Y13); \
	SQUARES(Y12, Y2, Y8, Y1); \
	SQUARES(Y13, Y3, Y8, Y1); \
	VPADDD       Y12, Y4, Y4; \
	VPADDD       Y13, Y5, Y5; \
	JMP          chunk; \
summed: \
	VPHADDD      Y5, Y4, Y4; \
	VPCMPGTD     Y11, Y4, Y4; \
	VMOVMSKPS    Y4, AX; \
	XORL         $0xff, AX

// VALID clears in AX the bits of the last group's padding, the lanes at or
// past REALEND; whole names the label of a group of ids only. BX and CX are
// clobbered.
#define VALID(whole) \
	MOVQ REALEND(SP), CX; \
	SUBQ DI, CX; \
	CMPQ CX, $32; \
	JAE  whole; \
	SHRQ $2, CX; \
	MOVQ $1, BX; \
	SHLQ CX, BX; \
	DECQ BX; \
	ANDQ BX, AX; \
whole:

// APPEND_PEND appends the ids at DI whose bit is set in AX to PEND at R8, in
// order, and moves R8 past them: the group is permuted by the compactIDs
// entry of its mask, which moves the ids of the set bits to the front, and
// stored whole. AX, BX, R11 and Y0 are clobbered.
#define APPEND_PEND \
	LEAQ    ·compactIDs(SB), R11; \
	MOVL    AX, BX; \
	SHLQ    $5, BX; \
	VMOVDQU (R11)(BX*1), Y0; \
	VPERMD  (DI), Y0, Y0; \
	VMOVDQU Y0, (R8); \
	POPCNTL AX, AX; \
	LEAQ    (R8)(AX*4), R8

// PENDING8 jumps to less while fewer than eight ids are pending (PEND to R8).
#define PENDING8(less) \
	LEAQ (PEND+32)(SP), AX; \
	CMPQ R8, AX; \
	JB   less

// SHIFT_PEND drops the eight pending ids whose distances were taken, and
// counts them: the end of PEND, PENDP, moves back by eight and is left in R8.
#define SHIFT_PEND \
	VMOVDQU (PEND+32)(SP), Y0; \
	VMOVDQU Y0, PEND(SP); \
	MOVQ    PENDP(SP), R8; \
	SUBQ    $32, R8; \
	ADDQ    $8, DISTS(SP)

// FLUSH_PEND, at the end, jumps to none when no id is pending; otherwise it
// counts the pending ids, leaves their number in AX and fills them up to
// eight with copies of the last.
#define FLUSH_PEND(none) \
	MOVQ         PENDP(SP), DI; \
	LEAQ         PEND(SP), AX; \
	SUBQ         DI, AX; \
	NEGQ         AX; \
	JZ           none; \
	SHRQ         $2, AX; \
	ADDQ         AX, DISTS(SP); \
	VPBROADCASTD -4(DI), Y0; \
	VMOVDQU      Y0, (DI)

// KEEP folds the four sums of sums, the group whose ids are at off(DI), into
// the running minima Y9 and their ids Y10, lane by lane: a sum replaces the
// minimum only when strictly smaller (an ordered compare, so never a NaN),
// and a lane sees its ids in ascending order, so it keeps the smallest id of
// its least sum. Y0 and Y1 are clobbered.
#define KEEP(off, sums) \
	VPMOVZXDQ off(DI), Y0; \
	VCMPPD    $0x11, Y9, sums, Y1; \
	VBLENDVPD Y1, sums, Y9, Y9; \
	VBLENDVPD Y1, Y0, Y10, Y10

// TIGHTEN sets the code limit Y11 from the least of the minima Y9: limit's
// ⌊least·inv⌋, or maxLimit where that is not below it. AX, Y0 and Y1 are
// clobbered.
#define TIGHTEN(inv) \
	VEXTRACTF128 $1, Y9, X0; \
	VMINPD       X0, X9, X0; \
	VPERMILPD    $1, X0, X1; \
	VMINSD       X1, X0, X0; \
	VMULSD       inv, X0, X0; \
	VMINSD       maxLimit<>(SB), X0, X0; \
	VCVTTSD2SI   X0, AX; \
	LIMIT

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

// maxLimit, the largest code limit, as a float64.
DATA maxLimit<>+0(SB)/8, $0x41dfffffffc00000
GLOBL maxLimit<>(SB), RODATA|NOPTR, $8

// func nearestAVX2(set []uint64, q, pts []float64, rows int, codes [][]uint64, qcodes []uint64, inv float64) (id int, dist2 float64, count, dists int, ok bool)
//
// The NN fold of a survivor set in one pass: the point of set nearest to q,
// its squared distance, the population count of set and the number of
// distances taken — what the Go fold gives, bit for bit, with id −1 when no
// distance is below +Inf.
//
// The set is first checked against rows = len(pts)/d: a bit at or past it
// stops the kernel, ok false, before any row is read. The walk is WALK_SET's
// — blocks of four words, an empty block skipped by one branch — into the
// frame, with the population count taken from the buffer positions. When the
// ids pass FLUSHAT they are drained, a group of eight at a time. Without the
// code bound (qcodes empty) each group goes through PAIR_PASS, each lane
// keeping its least sum and id (KEEP). With it the group's code bounds
// (CODE_BOUNDS) against the limit of the least distance so far (TIGHTEN; the
// first eight ids join without, as nothing is skipped before the first
// distances) keep the ids that may be nearer, which join PEND (APPEND_PEND);
// each eight there go through PAIR_PASS and KEEP, and the limit tightens.
// The fewer than eight listed ids left move to the front, and the walk goes
// on; at the end the last group is padded with copies of the last id, whose
// lanes the code bound masks, the pending ids are padded with copies of
// theirs, and the four lanes are reduced by (Dist2, id). codes holds the
// codes of the rows of pts, qcodes the query's (queryCodes); d = len(q) is a
// positive multiple of four.
TEXT ·nearestAVX2(SB), $1520-169
	CHECK_SET(set_base+0(FP), set_len+8(FP), rows+72(FP))

inside:
	MOVQ         $0x7ff0000000000000, R9
	VMOVQ        R9, X9
	VPBROADCASTQ X9, Y9             // minima +Inf
	VPCMPEQQ     Y10, Y10, Y10      // ids −1
	MOVQ         $0, COUNT(SP)
	MOVQ         $0, LAST(SP)
	MOVQ         $-1, REALEND(SP)
	LEAQ         PEND(SP), AX
	MOVQ         AX, PENDP(SP)
	MOVQ         $0, DISTS(SP)
	CODE_END(codes_base+80(FP), codes_len+88(FP))
	XORQ         BX, BX
	LEAQ         IDS(SP), DI
	WALK_SET(set_base+0(FP), set_len+8(FP))

tail:
	TAIL_COUNT(flush)
	MOVQ DI, REALEND(SP)
	PAD_GROUP

drain:                               // groups of eight from IDS up to DI
	CMPQ qcodes_len+112(FP), $0
	JNE  codeDrain
	DRAIN_START(q_base+24(FP), q_len+32(FP), pts_base+48(FP))

group:
	GROUP_SUMS
	KEEP(0, Y14)
	KEEP(16, Y15)
	ADDQ $32, DI
	JMP  group

drained:
	CMPQ LAST(SP), $0
	JNE  reduce
	REFILL

codeDrain:                           // with the code bound
	MOVQ DI, FILL(SP)
	LEAQ IDS(SP), DI
	MOVQ PENDP(SP), R8
	CODE_CONSTS(codes_base+80(FP), qcodes_base+104(FP))

codeGroup:
	LEAQ 32(DI), AX
	CMPQ AX, FILL(SP)
	JA   codeDrained
	MOVL $0xff, AX
	CMPQ DISTS(SP), $0
	JEQ  unbounded                  // no distance yet: the limit skips nothing
	CODE_BOUNDS(codes_base+80(FP), qcodes_base+104(FP), chunk, summed)

unbounded:
	VALID(whole)
	APPEND_PEND
	ADDQ $32, DI
	PENDING8(codeGroup)
	MOVQ DI, RAWP(SP)
	MOVQ R8, PENDP(SP)
	FOLD_REGS(q_base+24(FP), q_len+32(FP), pts_base+48(FP))
	LEAQ PEND(SP), DI
	SUMS(sumLoop)
	KEEP(0, Y14)
	KEEP(16, Y15)
	TIGHTEN(inv+128(FP))
	SHIFT_PEND
	CODE_CONSTS(codes_base+80(FP), qcodes_base+104(FP))
	MOVQ RAWP(SP), DI
	JMP  codeGroup

codeDrained:
	MOVQ R8, PENDP(SP)
	CMPQ LAST(SP), $0
	JNE  flush
	REFILL

flush:                               // the fewer than eight ids still pending
	FLUSH_PEND(reduce)
	FOLD_REGS(q_base+24(FP), q_len+32(FP), pts_base+48(FP))
	LEAQ  PEND(SP), DI
	SUMS(flushLoop)
	KEEP(0, Y14)
	KEEP(16, Y15)

reduce:
	VMOVUPD Y9, MINS(SP)
	VMOVDQU Y10, LANEIDS(SP)
	VZEROUPPER
	MOVQ    MINS(SP), AX
	MOVQ    LANEIDS(SP), BX
	LANE(MINS+8, LANEIDS+8)
	LANE(MINS+16, LANEIDS+16)
	LANE(MINS+24, LANEIDS+24)
	MOVQ    BX, id+136(FP)
	MOVQ    AX, dist2+144(FP)
	MOVQ    COUNT(SP), AX
	MOVQ    AX, count+152(FP)
	MOVQ    DISTS(SP), AX
	MOVQ    AX, dists+160(FP)
	MOVB    $1, ok+168(FP)
	RET

outside:
	MOVQ $-1, id+136(FP)
	MOVQ $0, dist2+144(FP)
	MOVQ $0, count+152(FP)
	MOVQ $0, dists+160(FP)
	MOVB $0, ok+168(FP)
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
	VPMOVZXDQ    off(DI), Y0; \
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
#define PREFETCH_ROW(off) MOVL off(DI), AX; IMULQ CX, AX; PREFETCHT0 (R8)(AX*1)
#define PREFETCH_ROWS(off) \
	PREFETCH_ROW(off); \
	PREFETCH_ROW(off+4); \
	PREFETCH_ROW(off+8); \
	PREFETCH_ROW(off+12); \
	PREFETCH_ROW(off+16); \
	PREFETCH_ROW(off+20); \
	PREFETCH_ROW(off+24); \
	PREFETCH_ROW(off+28)

// func boundedAVX2(set []uint64, q, pts []float64, rows int, bound float64, out []Neighbor, mins *laneMinima, codes [][]uint64, qcodes []uint64, limit int) (kept, count, dists int, ok bool)
//
// The bounded fold of a set in one pass: the entries (ID, Dist2) of the points
// of set whose squared distance from q passes ¬(Dist2 > bound), ascending by
// id, written to out from its start, their number kept, the population count
// of set and, with the code bound, the number of distances taken — what the
// Go fold gives, bit for bit — and, when mins is not nil, the lanes' least
// and second least sums in it (laneMinima; lane l the ids at positions ≡ l
// mod 8).
//
// The check, the walk and the drains are nearestAVX2's. Without the code
// bound (qcodes empty) a group of eight asks for the rows of the group two
// ahead (PREFETCH_ROWS), takes its sums into the lane minima
// (SECOND_LEAST), compares each of its fours with the bound and writes only
// the lanes that pass (PASS). The last group's padding is told from its ids
// by position: its sums become +Inf, which no minimum takes from a real sum,
// and its lanes are never written. With it (mins nil, and limit the code
// limit of bound) a group's code bounds keep the ids that may pass, which
// join PEND as in nearestAVX2, and each eight there are summed and passed;
// the last fewer than eight are padded, and their padding lanes are never
// written. A drain starts only with room in out for every id it drains or
// holds pending and one entry more (a lane that does not pass is written, to
// be written over by the next); without it the kernel returns kept −1, and
// the caller, who gives out room for the population count of set and one
// more, calls it again. d = len(q) is a positive multiple of four.
TEXT ·boundedAVX2(SB), $1528-201
	CHECK_SET(set_base+0(FP), set_len+8(FP), rows+72(FP))

inside:
	VBROADCASTSD bound+80(FP), Y9
	VBROADCASTSD posInf<>(SB), Y10   // least sums +Inf
	VMOVAPD      Y10, Y11
	VMOVUPD      Y10, SECOND(SP)     // second least +Inf
	VMOVUPD      Y10, (SECOND+32)(SP)
	CMPQ         qcodes_len+152(FP), $0
	JEQ          started
	MOVQ         limit+168(FP), AX   // the code bound has no minima: Y11 is its limit
	LIMIT

started:
	MOVQ         out_base+88(FP), R9
	MOVQ         R9, OUTP(SP)
	MOVQ         $-1, REALEND(SP)
	MOVQ         $0, COUNT(SP)
	MOVQ         $0, LAST(SP)
	LEAQ         PEND(SP), AX
	MOVQ         AX, PENDP(SP)
	MOVQ         $0, DISTS(SP)
	CODE_END(codes_base+120(FP), codes_len+128(FP))
	XORQ         BX, BX
	LEAQ         IDS(SP), DI
	WALK_SET(set_base+0(FP), set_len+8(FP))

tail:
	TAIL_COUNT(flush)
	MOVQ DI, REALEND(SP)
	PAD_GROUP

drain:                               // groups of eight from IDS up to DI
	CMPQ qcodes_len+152(FP), $0
	JNE  codeDrain
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
	SHLQ    $2, BX
	ADDQ    $16, BX              // 16 bytes an id to drain, and one entry more
	CMPQ AX, BX
	JB   short

group:
	GROUP_SUMS
	LEAQ 96(DI), AX
	CMPQ AX, FILL(SP)
	JA   fetched
	PREFETCH_ROWS(64)
fetched:
	MOVQ $15, R11                // every lane of both fours is an id
	MOVQ $15, R12
	LEAQ 32(DI), AX
	CMPQ AX, REALEND(SP)
	JA   padding

lanes:
	CMPQ mins+112(FP), $0
	JEQ  compare
	SECOND_LEAST(SECOND, Y14, Y10)
	SECOND_LEAST(SECOND+32, Y15, Y11)

compare:
	PASS(0, Y14, R11, passedLo)
	PASS(16, Y15, R12, passedHi)
	ADDQ $32, DI
	JMP  group

padding:                             // the last group: its ids end at REALEND
	MOVQ         REALEND(SP), AX
	SUBQ         DI, AX
	SHRQ         $2, AX              // 1 … 7 ids
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

codeDrain:                           // with the code bound
	MOVQ DI, FILL(SP)
	MOVQ OUTP(SP), SI
	MOVQ out_base+88(FP), AX
	MOVQ out_len+96(FP), BX
	SHLQ $4, BX
	ADDQ BX, AX
	SUBQ SI, AX                  // the room left in out, in bytes
	MOVQ    FILL(SP), BX
	CMPQ    BX, REALEND(SP)
	CMOVQHI REALEND(SP), BX      // the last group's padding takes no room
	LEAQ    IDS(SP), DI
	SUBQ    DI, BX
	MOVQ    PENDP(SP), R8
	ADDQ    R8, BX
	LEAQ    PEND(SP), CX
	SUBQ    CX, BX               // 4 bytes an id to drain or pending
	SHLQ    $2, BX
	ADDQ    $16, BX              // 16 bytes an entry, and one entry more
	CMPQ AX, BX
	JB   short
	CODE_CONSTS(codes_base+120(FP), qcodes_base+144(FP))

codeGroup:
	LEAQ 32(DI), AX
	CMPQ AX, FILL(SP)
	JA   codeDrained
	CODE_BOUNDS(codes_base+120(FP), qcodes_base+144(FP), chunk, summed)
	VALID(whole)
	APPEND_PEND
	ADDQ $32, DI
	PENDING8(codeGroup)
	MOVQ DI, RAWP(SP)
	MOVQ R8, PENDP(SP)
	FOLD_REGS(q_base+24(FP), q_len+32(FP), pts_base+48(FP))
	LEAQ PEND(SP), DI
	SUMS(sumLoop)
	MOVQ OUTP(SP), SI
	PASS(0, Y14, $15, pendLo)
	PASS(16, Y15, $15, pendHi)
	MOVQ SI, OUTP(SP)
	SHIFT_PEND
	CODE_CONSTS(codes_base+120(FP), qcodes_base+144(FP))
	MOVQ RAWP(SP), DI
	JMP  codeGroup

codeDrained:
	MOVQ R8, PENDP(SP)
	CMPQ LAST(SP), $0
	JNE  flush
	REFILL

flush:                               // the fewer than eight ids still pending
	FLUSH_PEND(reduce)
	FOLD_REGS(q_base+24(FP), q_len+32(FP), pts_base+48(FP))
	LEAQ  PEND(SP), DI
	SUMS(flushLoop)
	MOVQ    PENDP(SP), AX        // lanes 0 … n−1 hold ids
	LEAQ    PEND(SP), CX
	SUBQ    CX, AX
	SHRQ    $2, AX
	MOVQ    $4, CX
	CMPQ    AX, CX
	CMOVQLT AX, CX
	MOVQ    $1, R11
	SHLQ    CX, R11
	DECQ    R11                  // the low four's valid lanes
	SUBQ    CX, AX
	MOVQ    AX, CX
	MOVQ    $1, R12
	SHLQ    CX, R12
	DECQ    R12                  // the high four's
	MOVQ    OUTP(SP), SI
	PASS(0, Y14, R11, flushLo)
	PASS(16, Y15, R12, flushHi)
	MOVQ    SI, OUTP(SP)

reduce:
	MOVQ  OUTP(SP), SI
	SUBQ  out_base+88(FP), SI
	SHRQ  $4, SI
	MOVQ  SI, kept+176(FP)
	MOVQ  COUNT(SP), AX
	MOVQ  AX, count+184(FP)
	MOVQ  DISTS(SP), AX
	MOVQ  AX, dists+192(FP)
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
	MOVB $1, ok+200(FP)
	RET

short:
	VZEROUPPER
	MOVQ $-1, kept+176(FP)
	MOVQ $0, count+184(FP)
	MOVQ $0, dists+192(FP)
	MOVB $1, ok+200(FP)
	RET

outside:
	MOVQ $0, kept+176(FP)
	MOVQ $0, count+184(FP)
	MOVQ $0, dists+192(FP)
	MOVB $0, ok+200(FP)
	RET

// QCODES4 takes coordinates DX … DX+3 (byte offset off) of q (SI) to their
// codes in the dwords of dst: ⌊(q − lo)·scale·4⌋ (lo at R8, scale at R9)
// clamped by VMAXPD with 0 — which, taking its second operand for a NaN,
// makes a NaN 0 as code's !(t >= 0) does — and VMINPD with 255. The lanes
// that are NaN in q are ORed into AX.
#define QCODES4(off, dst) \
	VMOVUPD     off(SI)(DX*8), Y0; \
	VCMPPD      $3, Y0, Y0, Y1; \
	VMOVMSKPD   Y1, R11; \
	ORQ         R11, AX; \
	VSUBPD      off(R8)(DX*8), Y0, Y0; \
	VMULPD      off(R9)(DX*8), Y0, Y0; \
	VMULPD      Y8, Y0, Y0; \
	VMAXPD      Y9, Y0, Y0; \
	VMINPD      Y10, Y0, Y0; \
	VCVTTPD2DQY Y0, dst

DATA four<>+0(SB)/8, $0x4010000000000000
GLOBL four<>(SB), RODATA|NOPTR, $8
DATA topCode<>+0(SB)/8, $0x406fe00000000000
GLOBL topCode<>(SB), RODATA|NOPTR, $8

// func queryCodesAVX2(dst []uint64, q, lo, scale []float64) (nan bool)
//
// The query's side of the code bound at d = len(q), a multiple of four, into
// dst, two words a chunk of eight coordinates (codes.go): the codes — the
// same three rounded operations as code, truncated — packed to bytes, then
// plus one and minus one with saturation, a chunk of four padded with 255
// and 0. nan reports a NaN coordinate, for which the caller takes every
// distance.
TEXT ·queryCodesAVX2(SB), NOSPLIT, $0-97
	MOVQ         dst_base+0(FP), DI
	MOVQ         q_base+24(FP), SI
	MOVQ         q_len+32(FP), CX
	MOVQ         lo_base+48(FP), R8
	MOVQ         scale_base+72(FP), R9
	VBROADCASTSD four<>(SB), Y8
	VXORPD       Y9, Y9, Y9
	VBROADCASTSD topCode<>(SB), Y10
	VPCMPEQB     X11, X11, X11
	VPABSB       X11, X11            // bytes 1
	XORQ         AX, AX
	XORQ         DX, DX

qchunk:
	CMPQ      DX, CX
	JAE       qdone
	QCODES4(0, X4)
	VPXOR     X5, X5, X5
	MOVQ      $0xffffffff00000000, BX // a chunk of four: its high codes are padding
	LEAQ      4(DX), R10
	CMPQ      R10, CX
	JAE       qpacked
	QCODES4(32, X5)
	XORQ      BX, BX

qpacked:
	VPACKUSDW X5, X4, X4
	VPACKUSWB X4, X4, X4
	VPADDUSB  X11, X4, X6
	VPSUBUSB  X11, X4, X7
	VMOVQ     X6, R11
	ORQ       BX, R11
	MOVQ      R11, (DI)
	VMOVQ     X7, 8(DI)
	ADDQ      $16, DI
	ADDQ      $8, DX
	JMP       qchunk

qdone:
	TESTQ AX, AX
	SETNE nan+96(FP)
	VZEROUPPER
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
