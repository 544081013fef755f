//go:build !purego

#include "textflag.h"

// The L2 leaf and directory kernels in AVX2. A block is 4 entries, one
// float64 lane per entry, and every lane runs the Go loop's operation
// sequence in ascending dimension order: VCVTPS2PD (exact), VSUBPD,
// VMULPD, VADDPD — never a fused multiply-add — from a +0 accumulator
// (the staged kernels) or from out (the dense ones, which DistsToPage
// and MinDistsToPage clear first). The main loops take two blocks at a
// time, so that two accumulation chains overlap; then one 4-wide block;
// then a tail of 1–3 entries through masked loads and stores.
//
// Registers shared by the kernels:
//	DI out, SI keep, R8 first column (leaf data or directory minima),
//	DX maxima - minima in bytes (directory), R9 query, R10 end of the
//	stage-one query coordinates, R11 end of all of them, R12 column
//	stride in bytes, R13 column pointer of the block and then its keep
//	mask, R14 query pointer and then a temporary, BX entry index, AX
//	keep count, CX n.
//	Y0, Y1 accumulators; Y2 the query coordinate; Y3, Y4, Y9, Y10
//	temporaries; Y5, Y6 keep masks; Y7, Y8 partials; X14 and Y12 the
//	tail's lane masks at 32 and 64 bits; Y13 +0; Y15 the bound.

// tailmask<>+(3-r)*4 holds r all-ones int32 lanes and then zeros.
DATA tailmask<>+0(SB)/4, $0xffffffff
DATA tailmask<>+4(SB)/4, $0xffffffff
DATA tailmask<>+8(SB)/4, $0xffffffff
DATA tailmask<>+12(SB)/4, $0
DATA tailmask<>+16(SB)/4, $0
DATA tailmask<>+20(SB)/4, $0
DATA tailmask<>+24(SB)/4, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $28

// tailmask8<>+(7-r)*4 holds r all-ones int32 lanes and then zeros.
DATA tailmask8<>+0(SB)/4, $0xffffffff
DATA tailmask8<>+4(SB)/4, $0xffffffff
DATA tailmask8<>+8(SB)/4, $0xffffffff
DATA tailmask8<>+12(SB)/4, $0xffffffff
DATA tailmask8<>+16(SB)/4, $0xffffffff
DATA tailmask8<>+20(SB)/4, $0xffffffff
DATA tailmask8<>+24(SB)/4, $0xffffffff
DATA tailmask8<>+28(SB)/4, $0
DATA tailmask8<>+32(SB)/4, $0
DATA tailmask8<>+36(SB)/4, $0
DATA tailmask8<>+40(SB)/4, $0
DATA tailmask8<>+44(SB)/4, $0
DATA tailmask8<>+48(SB)/4, $0
DATA tailmask8<>+52(SB)/4, $0
DATA tailmask8<>+56(SB)/4, $0
GLOBL tailmask8<>(SB), RODATA|NOPTR, $60

// One dimension of the squared distance into Y0 and Y1 (8 entries), Y0
// (4 entries) or Y0 under the tail mask, then the next column.
#define L2STEP8 \
	VBROADCASTSD (R14), Y2; \
	VCVTPS2PD    (R13), Y3; \
	VCVTPS2PD    16(R13), Y9; \
	VSUBPD       Y3, Y2, Y3; \
	VSUBPD       Y9, Y2, Y9; \
	VMULPD       Y3, Y3, Y3; \
	VMULPD       Y9, Y9, Y9; \
	VADDPD       Y3, Y0, Y0; \
	VADDPD       Y9, Y1, Y1; \
	ADDQ         R12, R13; \
	ADDQ         $8, R14

#define L2STEP4 \
	VBROADCASTSD (R14), Y2; \
	VCVTPS2PD    (R13), Y3; \
	VSUBPD       Y3, Y2, Y3; \
	VMULPD       Y3, Y3, Y3; \
	VADDPD       Y3, Y0, Y0; \
	ADDQ         R12, R13; \
	ADDQ         $8, R14

#define L2STEPTAIL \
	VBROADCASTSD (R14), Y2; \
	VMASKMOVPS   (R13), X14, X3; \
	VCVTPS2PD    X3, Y3; \
	VSUBPD       Y3, Y2, Y3; \
	VMULPD       Y3, Y3, Y3; \
	VADDPD       Y3, Y0, Y0; \
	ADDQ         R12, R13; \
	ADDQ         $8, R14

// One dimension of the squared MINDIST: d = max(max(lo-q, q-hi), +0),
// with +0 as VMAXPD's second source, so a query inside the interval adds
// +0 and leaves the sum as the branching kernel does.
#define MINSTEP8 \
	VBROADCASTSD (R14), Y2; \
	VCVTPS2PD    (R13), Y3; \
	VCVTPS2PD    (R13)(DX*1), Y4; \
	VCVTPS2PD    16(R13), Y9; \
	VCVTPS2PD    16(R13)(DX*1), Y10; \
	VSUBPD       Y2, Y3, Y3; \
	VSUBPD       Y4, Y2, Y4; \
	VSUBPD       Y2, Y9, Y9; \
	VSUBPD       Y10, Y2, Y10; \
	VMAXPD       Y4, Y3, Y3; \
	VMAXPD       Y10, Y9, Y9; \
	VMAXPD       Y13, Y3, Y3; \
	VMAXPD       Y13, Y9, Y9; \
	VMULPD       Y3, Y3, Y3; \
	VMULPD       Y9, Y9, Y9; \
	VADDPD       Y3, Y0, Y0; \
	VADDPD       Y9, Y1, Y1; \
	ADDQ         R12, R13; \
	ADDQ         $8, R14

#define MINSTEP4 \
	VBROADCASTSD (R14), Y2; \
	VCVTPS2PD    (R13), Y3; \
	VCVTPS2PD    (R13)(DX*1), Y4; \
	VSUBPD       Y2, Y3, Y3; \
	VSUBPD       Y4, Y2, Y4; \
	VMAXPD       Y4, Y3, Y3; \
	VMAXPD       Y13, Y3, Y3; \
	VMULPD       Y3, Y3, Y3; \
	VADDPD       Y3, Y0, Y0; \
	ADDQ         R12, R13; \
	ADDQ         $8, R14

#define MINSTEPTAIL \
	VBROADCASTSD (R14), Y2; \
	VMASKMOVPS   (R13), X14, X3; \
	VMASKMOVPS   (R13)(DX*1), X14, X4; \
	VCVTPS2PD    X3, Y3; \
	VCVTPS2PD    X4, Y4; \
	VSUBPD       Y2, Y3, Y3; \
	VSUBPD       Y4, Y2, Y4; \
	VMAXPD       Y4, Y3, Y3; \
	VMAXPD       Y13, Y3, Y3; \
	VMULPD       Y3, Y3, Y3; \
	VADDPD       Y3, Y0, Y0; \
	ADDQ         R12, R13; \
	ADDQ         $8, R14

// Loads the tail's lane masks for the R13 = n-i (1–3) entries left.
#define TAILMASK \
	LEAQ      tailmask<>(SB), R14; \
	NEGQ      R13; \
	VMOVDQU   12(R14)(R13*4), X14; \
	VPMOVSXDQ X14, Y12

// Appends BX+b to keep for every lane b of a block whose bit is set in
// the mask R13, ascending, without a branch: the index is always
// written at keep[AX], and AX advances by the bit. The written slot is
// never past BX+b, so a whole block stays inside keep.
#define KEEPLANE(b) \
	LEAQ b(BX), R14; \
	MOVL R14, (SI)(AX*4); \
	BTQ  $b, R13; \
	ADCQ $0, AX

#define KEEP8 \
	KEEPLANE(0); KEEPLANE(1); KEEPLANE(2); KEEPLANE(3); \
	KEEPLANE(4); KEEPLANE(5); KEEPLANE(6); KEEPLANE(7)

#define KEEP4 \
	KEEPLANE(0); KEEPLANE(1); KEEPLANE(2); KEEPLANE(3)

// KEEPLANE past the tail's last entry could write keep[n], so the tail
// appends BX plus every set bit of R13 (not zero) in a loop, ascending;
// lbl is its label.
#define KEEPTAIL(lbl) \
lbl:; \
	BSFQ R13, R14; \
	ADDQ BX, R14; \
	MOVL R14, (SI)(AX*4); \
	INCQ AX; \
	LEAQ -1(R13), R14; \
	ANDQ R14, R13; \
	JNZ  lbl

// Runs step over the query coordinates from R14 up to end.
#define DIMS(step, end, loop, test) \
	JMP test; \
loop:; \
	step; \
test:; \
	CMPQ R14, end; \
	JNE  loop

// The staged kernel over one 8-, 4- or tail block: stage one up to R10,
// the keep mask against the bound in Y5 (and Y6), and if a lane is kept,
// stage two up to R11, the blend that keeps the dropped lanes' partials,
// and the keep list.
#define STAGED8(step, s1, t1, s2, t2, store) \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	DIMS(step, R10, s1, t1); \
	VCMPPD    $2, Y15, Y0, Y5; \
	VCMPPD    $2, Y15, Y1, Y6; \
	VORPD     Y5, Y6, Y7; \
	VTESTPD   Y7, Y7; \
	JZ        store; \
	VMOVAPD   Y0, Y7; \
	VMOVAPD   Y1, Y8; \
	DIMS(step, R11, s2, t2); \
	VBLENDVPD Y5, Y0, Y7, Y0; \
	VBLENDVPD Y6, Y1, Y8, Y1; \
	VMOVMSKPD Y5, R13; \
	VMOVMSKPD Y6, R14; \
	SHLQ      $4, R14; \
	ORQ       R14, R13; \
	KEEP8; \
store:; \
	VMOVUPD   Y0, (DI)(BX*8); \
	VMOVUPD   Y1, 32(DI)(BX*8)

#define STAGED4(step, s1, t1, s2, t2, store) \
	VXORPD Y0, Y0, Y0; \
	DIMS(step, R10, s1, t1); \
	VCMPPD    $2, Y15, Y0, Y5; \
	VTESTPD   Y5, Y5; \
	JZ        store; \
	VMOVAPD   Y0, Y7; \
	DIMS(step, R11, s2, t2); \
	VBLENDVPD Y5, Y0, Y7, Y0; \
	VMOVMSKPD Y5, R13; \
	KEEP4; \
store:; \
	VMOVUPD   Y0, (DI)(BX*8)

#define STAGEDTAIL(step, s1, t1, s2, t2, keep, store) \
	VXORPD Y0, Y0, Y0; \
	DIMS(step, R10, s1, t1); \
	VCMPPD    $2, Y15, Y0, Y5; \
	VANDPD    Y12, Y5, Y5; \
	VTESTPD   Y5, Y5; \
	JZ        store; \
	VMOVAPD   Y0, Y7; \
	DIMS(step, R11, s2, t2); \
	VBLENDVPD Y5, Y0, Y7, Y0; \
	VMOVMSKPD Y5, R13; \
	KEEPTAIL(keep); \
store:; \
	VMASKMOVPD Y0, Y12, (DI)(BX*8)

// The dense kernel over one block: out's values plus the dimensions
// from R14 up to R11.
#define DENSE8(step, loop, test) \
	VMOVUPD (DI)(BX*8), Y0; \
	VMOVUPD 32(DI)(BX*8), Y1; \
	DIMS(step, R11, loop, test); \
	VMOVUPD Y0, (DI)(BX*8); \
	VMOVUPD Y1, 32(DI)(BX*8)

#define DENSE4(step, loop, test) \
	VMOVUPD (DI)(BX*8), Y0; \
	DIMS(step, R11, loop, test); \
	VMOVUPD Y0, (DI)(BX*8)

#define DENSETAIL(step, loop, test) \
	VMASKMOVPD (DI)(BX*8), Y12, Y0; \
	DIMS(step, R11, loop, test); \
	VMASKMOVPD Y0, Y12, (DI)(BX*8)

// The block loop shared by every kernel: 8-wide blocks while they fit,
// one 4-wide block, then the tail. Each block starts at column pointer
// R8 + 4*BX and query pointer R9.
#define BLOCKS(body8, body4, l8, l4, tail, done) \
	XORQ BX, BX; \
l8:; \
	LEAQ 8(BX), R13; \
	CMPQ R13, CX; \
	JGT  l4; \
	LEAQ (R8)(BX*4), R13; \
	MOVQ R9, R14; \
	body8; \
	ADDQ $8, BX; \
	JMP  l8; \
l4:; \
	LEAQ 4(BX), R13; \
	CMPQ R13, CX; \
	JGT  tail; \
	LEAQ (R8)(BX*4), R13; \
	MOVQ R9, R14; \
	body4; \
	ADDQ $4, BX; \
tail:; \
	MOVQ CX, R13; \
	SUBQ BX, R13; \
	JZ   done; \
	TAILMASK

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no

	// CPUID.1:ECX bit 23 POPCNT, bit 27 OSXSAVE, bit 28 AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18800000, CX
	CMPL CX, $0x18800000
	JNE  no

	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// CPUID.(7,0):EBX bit 5 AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func addDimsL2(out *float64, data *float32, q *float64, n, from, to int)
TEXT ·addDimsL2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ data+8(FP), R8
	MOVQ q+16(FP), R9
	MOVQ n+24(FP), CX
	MOVQ from+32(FP), R10
	MOVQ to+40(FP), R11
	MOVQ CX, R12
	SHLQ $2, R12
	MOVQ R10, R13
	IMULQ R12, R13
	ADDQ R13, R8
	LEAQ (R9)(R11*8), R11
	LEAQ (R9)(R10*8), R9
	BLOCKS(DENSE8(L2STEP8, d8loop, d8test), DENSE4(L2STEP4, d4loop, d4test), d8, d4, tail, done)
	LEAQ (R8)(BX*4), R13
	MOVQ R9, R14
	DENSETAIL(L2STEPTAIL, dtloop, dttest)

done:
	VZEROUPPER
	RET

// func distsWithinL2(out *float64, keep *int32, data *float32, q *float64, n, h, dim int, bound float64) int
TEXT ·distsWithinL2(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ keep+8(FP), SI
	MOVQ data+16(FP), R8
	MOVQ q+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ h+40(FP), R10
	MOVQ dim+48(FP), R11
	VBROADCASTSD bound+56(FP), Y15
	LEAQ (R9)(R10*8), R10
	LEAQ (R9)(R11*8), R11
	MOVQ CX, R12
	SHLQ $2, R12
	XORQ AX, AX
	BLOCKS(STAGED8(L2STEP8, s8a, t8a, s8b, t8b, st8), STAGED4(L2STEP4, s4a, t4a, s4b, t4b, st4), b8, b4, tail, done)
	LEAQ (R8)(BX*4), R13
	MOVQ R9, R14
	STAGEDTAIL(L2STEPTAIL, sta, tta, stb, ttb, kt, stt)

done:
	MOVQ AX, ret+64(FP)
	VZEROUPPER
	RET

// func addMinDimsL2(out *float64, lo, hi *float32, q *float64, n, from, to int)
TEXT ·addMinDimsL2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ lo+8(FP), R8
	MOVQ hi+16(FP), DX
	MOVQ q+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ from+40(FP), R10
	MOVQ to+48(FP), R11
	SUBQ R8, DX
	MOVQ CX, R12
	SHLQ $2, R12
	MOVQ R10, R13
	IMULQ R12, R13
	ADDQ R13, R8
	LEAQ (R9)(R11*8), R11
	LEAQ (R9)(R10*8), R9
	VXORPD Y13, Y13, Y13
	BLOCKS(DENSE8(MINSTEP8, d8loop, d8test), DENSE4(MINSTEP4, d4loop, d4test), d8, d4, tail, done)
	LEAQ (R8)(BX*4), R13
	MOVQ R9, R14
	DENSETAIL(MINSTEPTAIL, dtloop, dttest)

done:
	VZEROUPPER
	RET

// func minDistsWithinL2(out *float64, keep *int32, lo, hi *float32, q *float64, n, h, dim int, bound float64) int
TEXT ·minDistsWithinL2(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ keep+8(FP), SI
	MOVQ lo+16(FP), R8
	MOVQ hi+24(FP), DX
	MOVQ q+32(FP), R9
	MOVQ n+40(FP), CX
	MOVQ h+48(FP), R10
	MOVQ dim+56(FP), R11
	VBROADCASTSD bound+64(FP), Y15
	SUBQ R8, DX
	LEAQ (R9)(R10*8), R10
	LEAQ (R9)(R11*8), R11
	MOVQ CX, R12
	SHLQ $2, R12
	VXORPD Y13, Y13, Y13
	XORQ AX, AX
	BLOCKS(STAGED8(MINSTEP8, s8a, t8a, s8b, t8b, st8), STAGED4(MINSTEP4, s4a, t4a, s4b, t4b, st4), b8, b4, tail, done)
	LEAQ (R8)(BX*4), R13
	MOVQ R9, R14
	STAGEDTAIL(MINSTEPTAIL, sta, tta, stb, ttb, kt, stt)

done:
	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET

// Sets R11 from the bits of a float64 to those of the least float32 not
// below it (NaN stays NaN): the nearest float32, moved up one step when
// it widens to less than the float64. A step up adds 1 to the bits of a
// float32 with the sign clear and subtracts 1 from one with it set; a -0
// is never moved (it widens to a value no float64 rounding to it exceeds).
// Clobbers CX, DX and X2-X5.
#define CEIL32 \
	VMOVQ     R11, X2; \
	VCVTSD2SS X2, X2, X3; \
	VCVTSS2SD X3, X3, X4; \
	VCMPSD    $1, X2, X4, X5; \
	VMOVD     X3, R11; \
	VMOVQ     X5, CX; \
	MOVL      R11, DX; \
	SARL      $31, DX; \
	LEAL      1(DX)(DX*1), DX; \
	ANDL      CX, DX; \
	ADDL      DX, R11

// func insideAVX2(keep *int32, lower, upper *float32, min, max *float64, n, dim int) int
//
// The containment kernel, staged by dimension over blocks of 8 entries:
// one mask byte per block, its bit b set while entry 8·block+b is inside
// every bounded dimension scanned so far. The bytes sit at the end of
// keep, where the keep list written from its start never reaches a byte
// before it is read. A dimension bounded by -Inf and +Inf is skipped;
// any other compares the float32 columns with its bounds rounded inward
// (lo up, hi down: a float32 is below lo exactly when it is below lo's
// rounding, and likewise above hi), so the set is the float64
// comparison's. An entry is kept while !(lo > upper) and
// !(hi < lower), the unordered predicates NGT_US and NLT_US, so that a
// NaN bound keeps it as the Go loop's !(upper < lo) && !(lower > hi)
// does. The scan stops once every byte is zero. The keep list is then
// built from the bytes without a branch: laneTable[byte] holds the set
// lanes' positions, which are widened to int32, offset by the block's
// first index (Y1) and all stored at keep[AX]; AX advances by the
// byte's population count. A full block's store ends at keep[8·block+8]
// at most, which is before the next block's byte; the tail's is masked
// to its r lanes.
//
// Registers: DI keep, SI the upper column, R8 min and R9 max of its
// dimension, R10 the mask bytes, R12 column stride in bytes, R13 block
// pointer into the upper column and DX lower - upper in bytes, R14 full
// blocks, BX block index, AX the OR of the bytes and then the keep
// count, CX and R11 temporaries. Y14, Y15 the rounded bounds, Y11 the
// tail's lane mask.
TEXT ·insideAVX2(SB), NOSPLIT, $0-64
	MOVQ keep+0(FP), DI
	MOVQ upper+16(FP), SI
	MOVQ min+24(FP), R8
	MOVQ max+32(FP), R9
	MOVQ n+40(FP), R12
	MOVQ R12, R14
	SHRQ $3, R14
	LEAQ 7(R12), CX
	SHRQ $3, CX
	LEAQ (DI)(R12*4), R10
	SUBQ CX, R10
	SHLQ $2, R12

	// Every point of a full block starts kept, and the tail's r.
	XORQ BX, BX

fill:
	CMPQ BX, R14
	JGE  filltail
	MOVB $0xff, (R10)(BX*1)
	INCQ BX
	JMP  fill

filltail:
	MOVQ      n+40(FP), CX
	ANDQ      $7, CX
	JZ        dims
	LEAQ      tailmask8<>(SB), DX
	NEGQ      CX
	VMOVDQU   28(DX)(CX*4), Y11
	VMOVMSKPS Y11, CX
	MOVB      CX, (R10)(R14*1)

dims:
	MOVQ dim+48(FP), CX
	SHLQ $3, CX
	ADDQ min+24(FP), CX
	CMPQ R8, CX
	JEQ  compact
	MOVQ (R8), R11
	MOVQ $-0x10000000000000, CX
	CMPQ R11, CX
	JNE  bounded
	MOVQ (R9), DX
	MOVQ $0x7ff0000000000000, CX
	CMPQ DX, CX
	JEQ  next

bounded:
	CEIL32
	VMOVD        R11, X14
	VPBROADCASTD X14, Y14
	MOVQ         (R9), R11
	BTCQ         $63, R11
	CEIL32
	BTCL         $31, R11
	VMOVD        R11, X15
	VPBROADCASTD X15, Y15
	MOVQ         lower+8(FP), DX
	SUBQ         upper+16(FP), DX
	XORL         AX, AX
	MOVQ         SI, R13
	XORQ         BX, BX

block:
	CMPQ      BX, R14
	JGE       tail
	VCMPPS    $0x0a, (R13), Y14, Y3
	VCMPPS    $0x05, (R13)(DX*1), Y15, Y4
	VANDPS    Y3, Y4, Y3
	VMOVMSKPS Y3, CX
	MOVBLZX   (R10)(BX*1), R11
	ANDL      CX, R11
	MOVB      R11, (R10)(BX*1)
	ORL       R11, AX
	ADDQ      $32, R13
	INCQ      BX
	JMP       block

tail:
	MOVQ       n+40(FP), CX
	ANDQ       $7, CX
	JZ         scanned
	VMASKMOVPS (R13), Y11, Y2
	VMASKMOVPS (R13)(DX*1), Y11, Y5
	VCMPPS     $0x0a, Y2, Y14, Y3
	VCMPPS     $0x05, Y5, Y15, Y4
	VANDPS     Y3, Y4, Y3
	VMOVMSKPS  Y3, CX
	MOVBLZX    (R10)(BX*1), R11
	ANDL       CX, R11
	MOVB       R11, (R10)(BX*1)
	ORL        R11, AX

scanned:
	TESTL AX, AX
	JZ    none

next:
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ R12, SI
	JMP  dims

compact:
	LEAQ         ·laneTable(SB), R8
	XORQ         AX, AX
	XORQ         BX, BX
	VPXOR        Y1, Y1, Y1
	MOVL         $8, CX
	VMOVD        CX, X12
	VPBROADCASTD X12, Y12

cblock:
	CMPQ      BX, R14
	JGE       ctail
	MOVBLZX   (R10)(BX*1), CX
	VPMOVZXBD (R8)(CX*8), Y0
	VPADDD    Y1, Y0, Y0
	VMOVDQU   Y0, (DI)(AX*4)
	POPCNTL   CX, CX
	ADDQ      CX, AX
	VPADDD    Y12, Y1, Y1
	INCQ      BX
	JMP       cblock

ctail:
	MOVQ       n+40(FP), CX
	ANDQ       $7, CX
	JZ         done
	MOVBLZX    (R10)(BX*1), CX
	VPMOVZXBD  (R8)(CX*8), Y0
	VPADDD     Y1, Y0, Y0
	VPMASKMOVD Y0, Y11, (DI)(AX*4)
	POPCNTL    CX, CX
	ADDQ       CX, AX

done:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

none:
	MOVQ $0, ret+56(FP)
	VZEROUPPER
	RET
