//go:build amd64 && !purego

#include "textflag.h"

// The byte-code run kernel for amd64: sixteen codes per compare, SSE2 only.
//
// A run [lo, hi) of byte codes, 0 <= lo < hi <= 256, is one unsigned byte
// compare with span = hi-lo-1:
//
//	lo <= c < hi  <=>  (c-lo) mod 256 <= span
//
// A code in the run gives c-lo in [0, span]; a code at or past hi gives
// c-lo in [span+1, 255-lo]; a code below lo wraps to 256-(lo-c), which is
// at least 256-lo > span because hi <= 256. So no run needs cutting, the
// full range [0, 256) included (span 255). PSUBB wraps mod 256, and
// PMINUB x, span equals x iff x <= span, which PCMPEQB turns into 0xff.
// PMOVMSKB packs the sixteen byte flags into sixteen bits, code k of the
// load on bit k, and four of them make one 64-row bitmap word.

// ONE16 tests the sixteen codes at off(SI) against run 1 (X8/X9 the
// broadcast lo1/span1) and leaves their flags in the low sixteen bits of
// reg, the rest of reg zero.
#define ONE16(off, reg) \
	MOVOU    off(SI), X0; \
	PSUBB    X8, X0;      \
	MOVO     X0, X2;      \
	PMINUB   X9, X2;      \
	PCMPEQB  X0, X2;      \
	PMOVMSKB X2, reg

// TWO16 is ONE16 against either run, run 2 in X10/X11.
#define TWO16(off, reg) \
	MOVOU    off(SI), X0; \
	MOVO     X0, X1;      \
	PSUBB    X8, X0;      \
	PSUBB    X10, X1;     \
	MOVO     X0, X2;      \
	MOVO     X1, X3;      \
	PMINUB   X9, X2;      \
	PMINUB   X11, X3;     \
	PCMPEQB  X0, X2;      \
	PCMPEQB  X1, X3;      \
	POR      X3, X2;      \
	PMOVMSKB X2, reg

// WORD tests the 64 codes at SI with TEST (ONE16 or TWO16), writes their
// bitmap word to DI and steps SI, DI and the word count CX; DECQ leaves ZF
// set for the loop's JNZ when CX reaches 0.
#define WORD(TEST) \
	TEST(0, AX);      \
	TEST(16, BX);     \
	TEST(32, DX);     \
	TEST(48, R9);     \
	SHLQ $16, BX;     \
	SHLQ $32, DX;     \
	SHLQ $48, R9;     \
	ORQ  BX, AX;      \
	ORQ  R9, DX;      \
	ORQ  DX, AX;      \
	MOVQ AX, (DI);    \
	ADDQ $64, SI;     \
	ADDQ $8, DI;      \
	DECQ CX

// BROADCAST fills all sixteen bytes of xmm with the byte arg, and all eight
// of AX. IMULQ leaves ZF undefined, so no flag is tested across it.
#define BROADCAST(arg, xmm) \
	MOVBQZX    arg, AX; \
	IMULQ      R8, AX;  \
	MOVQ       AX, xmm; \
	PUNPCKLQDQ xmm, xmm

// func runWords(dst *uint64, codes *uint8, nw int, lo1, span1, lo2, span2 uint8)
//
// nw >= 1. The runs of a leaf are disjoint, so lo2 == lo1 means one run
// passed as both, which takes the one-run loop.
TEXT ·runWords(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ codes+8(FP), SI
	MOVQ nw+16(FP), CX
	MOVQ $0x0101010101010101, R8
	BROADCAST(lo1+24(FP), X8)
	MOVQ AX, R10
	BROADCAST(span1+25(FP), X9)
	BROADCAST(span2+27(FP), X11)
	BROADCAST(lo2+26(FP), X10)
	CMPQ AX, R10
	JNE  two

one:
	WORD(ONE16)
	JNZ one
	RET

two:
	WORD(TWO16)
	JNZ two
	RET
