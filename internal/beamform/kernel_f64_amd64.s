//go:build amd64 && !purego

#include "textflag.h"

// The AVX-512 tile-native body. It walks the 16-voxel snake tiles of §3.13
// over a resident block stored as delaycache.Native records, one 304-byte
// record per (tile, group) at R13 — bases, spans and pair-ordered offsets —
// in tile order, keeping one eight-lane sum per 8-voxel half of the tile:
// lane i is voxel i's own chain, ((0 + w₀e₀) + w₁e₁) + … over the active
// elements in activeIdx order as in the reference, a VMULPD then a VADDPD
// per step (fusing them would change the sum). Per element one masked load
// of the tile's window row[base … base + span] — two when the span is above
// 7 — serves both halves, each voxel's sample chosen by a VPERMI2PD by its
// offset. An element whose tile span is above 15, or whose largest delay is
// not below its len (unsigned, so a negative delay fails), takes its stub:
// per half, min and max by VPHMINPOSUW over its eight offsets, its own
// window when it spans at most 15 and stays below len, otherwise a masked
// gather whose lanes at or past len stay +0, as EchoBuffer.At returns. The
// body counts the element-halves that gathered.
//
// Frame: per element of the group in flight its window load mask
// (2 << span) − 1 at 0(SP) (word k), the group's accepted elements at
// 32(SP) and those of them whose span exceeds 7 at 34(SP), the
// element-halves gathered at 40(SP).
//
// Register plan. Per call: Z26 2, Z27 −1, Z28 15 and Z29 7 (words), X7 all
// ones. Per tile: Z22 and Z23 the halves' sums, BX the operand row of the
// next active element, R13 the record. Per group: AX its apodization
// mask, CX its lens. Per element: DX its row, R14 its window start, Z16
// and Z17 its window. X0–X4, Z18–Z20, K1 K2 K6, SI DI R9 scratch.

// The window load masks (2 << s) − 1 for spans s of 0 to 15.
DATA  f64masks<>+0(SB)/2, $0x1
DATA  f64masks<>+2(SB)/2, $0x3
DATA  f64masks<>+4(SB)/2, $0x7
DATA  f64masks<>+6(SB)/2, $0xf
DATA  f64masks<>+8(SB)/2, $0x1f
DATA  f64masks<>+10(SB)/2, $0x3f
DATA  f64masks<>+12(SB)/2, $0x7f
DATA  f64masks<>+14(SB)/2, $0xff
DATA  f64masks<>+16(SB)/2, $0x1ff
DATA  f64masks<>+18(SB)/2, $0x3ff
DATA  f64masks<>+20(SB)/2, $0x7ff
DATA  f64masks<>+22(SB)/2, $0xfff
DATA  f64masks<>+24(SB)/2, $0x1fff
DATA  f64masks<>+26(SB)/2, $0x3fff
DATA  f64masks<>+28(SB)/2, $0x7fff
DATA  f64masks<>+30(SB)/2, $0xffff
GLOBL f64masks<>(SB), RODATA|NOPTR, $32

// Element k of the group, if apodized (bit of AX): its row from the next
// operand row, then, when the tile's window serves it, the window and both
// halves' samples, products and adds; otherwise its stub.
#define F64N_ELEM(bit, k2, o0, o1, stub, wide, back, next, skip) \
	TESTL       $bit, AX; \
	JZ          skip; \
	MOVQ        0(BX), DX; \
	TESTW       $bit, 32(SP); \
	JZ          stub; \
	MOVWLZX     k2(R13), R14; \
	KMOVB       k2(SP), K1; \
	VMOVUPD.Z   (DX)(R14*8), K1, Z16; \
	TESTW       $bit, 34(SP); \
	JNZ         wide; \
back: \
	VPMOVZXBQ   o0(R13), Z18; \
	VPERMI2PD   Z17, Z16, Z18; \
	VMULPD.BCST 24(BX), Z18, Z18; \
	VADDPD      Z18, Z22, Z22; \
	VPMOVZXBQ   o1(R13), Z19; \
	VPERMI2PD   Z17, Z16, Z19; \
	VMULPD.BCST 24(BX), Z19, Z19; \
	VADDPD      Z19, Z23, Z23; \
next: \
	ADDQ        $32, BX; \
skip:

// A window whose span is 8 to 15: its samples past the first eight by a
// second masked load.
#define F64N_WIDE(k2, wide, back) \
wide: \
	KMOVB     k2+1(SP), K2; \
	VMOVUPD.Z 64(DX)(R14*8), K2, Z17; \
	JMP       back

// One half of an element the tile's window cannot serve, its eight offsets
// at o: lo and hi by VPHMINPOSUW (hi as the min of the complements). When
// base + hi is below len and hi − lo at most 15, the half's own window
// row[base + lo …] under the mask (2 << (hi − lo)) − 1 (f64masks) and a permute by
// offset − lo; otherwise a gather of the lanes whose delay base + offset
// is below len, the rest +0. Then the product and the add into acc.
#define F64N_HALF(k2, o, acc, gather, prod) \
	VPMOVZXBW    o(R13), X0; \
	VPHMINPOSUW  X0, X1; \
	VPXOR        X7, X0, X2; \
	VPHMINPOSUW  X2, X2; \
	VMOVD        X1, R14; \
	MOVWLZX      R14, R14; \
	VMOVD        X2, SI; \
	NOTL         SI; \
	MOVWLZX      SI, SI; \
	MOVWLZX      k2(R13), DI; \
	LEAL         (DI)(SI*1), R9; \
	CMPW         R9, k2(CX); \
	JCC          gather; \
	SUBL         R14, SI; \
	CMPL         SI, $15; \
	JHI          gather; \
	ADDL         R14, DI; \
	LEAQ         f64masks<>(SB), R9; \
	KMOVW        (R9)(SI*2), K1; \
	KSHIFTRW     $8, K1, K2; \
	VMOVUPD.Z    (DX)(DI*8), K1, Z16; \
	VMOVUPD.Z    64(DX)(DI*8), K2, Z17; \
	VPMOVZXBQ    o(R13), Z18; \
	VPBROADCASTQ R14, Z20; \
	VPSUBQ       Z20, Z18, Z18; \
	VPERMI2PD    Z17, Z16, Z18; \
	JMP          prod; \
gather: \
	VPBROADCASTW k2(R13), X3; \
	VPADDW       X0, X3, X3; \
	VPBROADCASTW k2(CX), X4; \
	VPCMPUW      $1, X4, X3, K1; \
	VPMOVZXWQ    X3, Z19; \
	VPXORQ       Z18, Z18, Z18; \
	VGATHERQPD   (DX)(Z19*8), K1, Z18; \
	INCQ         40(SP); \
prod: \
	VMULPD.BCST  24(BX), Z18, Z18; \
	VADDPD       Z18, acc, acc

// The stub of element k: its two halves, then on with the next element.
#define F64N_STUB(k2, o0, o1, stub, gathera, proda, gatherb, prodb, next) \
stub: \
	F64N_HALF(k2, o0, Z22, gathera, proda); \
	F64N_HALF(k2, o1, Z23, gatherb, prodb); \
	JMP next

// func tileMaddF64NativeAVX512(dst []float64, recs []byte, tiles []int32, tab []f64Row, grp []uint16, lens []uint16, add bool) (gathered int)
TEXT ·tileMaddF64NativeAVX512(SB), 0, $48-160
	MOVQ  recs_base+24(FP), R13
	MOVQ  tiles_base+48(FP), R8
	MOVQ  tiles_len+56(FP), R10
	SHRQ  $4, R10                // tiles left
	MOVL  $2, AX
	VPBROADCASTW AX, Z26
	VPTERNLOGD $0xFF, Z27, Z27, Z27
	MOVL  $15, AX
	VPBROADCASTW AX, Z28
	MOVL  $7, AX
	VPBROADCASTW AX, Z29
	VPCMPEQD X7, X7, X7
	MOVQ  $0, 40(SP)

	TESTQ R10, R10
	JZ    done

tile:
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	MOVQ   tab_base+72(FP), BX
	MOVQ   grp_base+96(FP), R11
	MOVQ   grp_len+104(FP), R12
	MOVQ   lens_base+120(FP), CX

group:
	MOVWLZX (R11), AX
	TESTL   AX, AX
	JZ      nextgroup

	// The tile's windows, per element: apodized, span ≤ 15 and
	// base + span < len, unsigned, so a negative delay fails; the load
	// masks (2 << span) − 1.
	VMOVDQU16 (R13), Y16
	VPMOVZXBW 32(R13), Y18
	VPADDW    Y18, Y16, Y17
	KMOVW     AX, K6
	VPCMPUW   $2, Y28, Y18, K6, K1
	VPCMPUW   $1, (CX), Y17, K1, K1
	KMOVW     K1, 32(SP)
	VPCMPUW   $6, Y29, Y18, K1, K2
	KMOVW     K2, 34(SP)
	VPSLLVW   Y18, Y26, Y19
	VPADDW    Y27, Y19, Y19
	VMOVDQU16 Y19, 0(SP)

	F64N_ELEM(0x1, 0, 48, 64, stub0, wide0, back0, next0, skip0)
	F64N_ELEM(0x2, 2, 80, 96, stub1, wide1, back1, next1, skip1)
	F64N_ELEM(0x4, 4, 112, 128, stub2, wide2, back2, next2, skip2)
	F64N_ELEM(0x8, 6, 144, 160, stub3, wide3, back3, next3, skip3)
	F64N_ELEM(0x10, 8, 176, 192, stub4, wide4, back4, next4, skip4)
	F64N_ELEM(0x20, 10, 208, 224, stub5, wide5, back5, next5, skip5)
	F64N_ELEM(0x40, 12, 240, 256, stub6, wide6, back6, next6, skip6)
	F64N_ELEM(0x80, 14, 272, 288, stub7, wide7, back7, next7, skip7)
	F64N_ELEM(0x100, 16, 56, 72, stub8, wide8, back8, next8, skip8)
	F64N_ELEM(0x200, 18, 88, 104, stub9, wide9, back9, next9, skip9)
	F64N_ELEM(0x400, 20, 120, 136, stub10, wide10, back10, next10, skip10)
	F64N_ELEM(0x800, 22, 152, 168, stub11, wide11, back11, next11, skip11)
	F64N_ELEM(0x1000, 24, 184, 200, stub12, wide12, back12, next12, skip12)
	F64N_ELEM(0x2000, 26, 216, 232, stub13, wide13, back13, next13, skip13)
	F64N_ELEM(0x4000, 28, 248, 264, stub14, wide14, back14, next14, skip14)
	F64N_ELEM(0x8000, 30, 280, 296, stub15, wide15, back15, next15, skip15)
	JMP nextgroup

	F64N_WIDE(0, wide0, back0)
	F64N_WIDE(2, wide1, back1)
	F64N_WIDE(4, wide2, back2)
	F64N_WIDE(6, wide3, back3)
	F64N_WIDE(8, wide4, back4)
	F64N_WIDE(10, wide5, back5)
	F64N_WIDE(12, wide6, back6)
	F64N_WIDE(14, wide7, back7)
	F64N_WIDE(16, wide8, back8)
	F64N_WIDE(18, wide9, back9)
	F64N_WIDE(20, wide10, back10)
	F64N_WIDE(22, wide11, back11)
	F64N_WIDE(24, wide12, back12)
	F64N_WIDE(26, wide13, back13)
	F64N_WIDE(28, wide14, back14)
	F64N_WIDE(30, wide15, back15)

	F64N_STUB(0, 48, 64, stub0, gather0a, prod0a, gather0b, prod0b, next0)
	F64N_STUB(2, 80, 96, stub1, gather1a, prod1a, gather1b, prod1b, next1)
	F64N_STUB(4, 112, 128, stub2, gather2a, prod2a, gather2b, prod2b, next2)
	F64N_STUB(6, 144, 160, stub3, gather3a, prod3a, gather3b, prod3b, next3)
	F64N_STUB(8, 176, 192, stub4, gather4a, prod4a, gather4b, prod4b, next4)
	F64N_STUB(10, 208, 224, stub5, gather5a, prod5a, gather5b, prod5b, next5)
	F64N_STUB(12, 240, 256, stub6, gather6a, prod6a, gather6b, prod6b, next6)
	F64N_STUB(14, 272, 288, stub7, gather7a, prod7a, gather7b, prod7b, next7)
	F64N_STUB(16, 56, 72, stub8, gather8a, prod8a, gather8b, prod8b, next8)
	F64N_STUB(18, 88, 104, stub9, gather9a, prod9a, gather9b, prod9b, next9)
	F64N_STUB(20, 120, 136, stub10, gather10a, prod10a, gather10b, prod10b, next10)
	F64N_STUB(22, 152, 168, stub11, gather11a, prod11a, gather11b, prod11b, next11)
	F64N_STUB(24, 184, 200, stub12, gather12a, prod12a, gather12b, prod12b, next12)
	F64N_STUB(26, 216, 232, stub13, gather13a, prod13a, gather13b, prod13b, next13)
	F64N_STUB(28, 248, 264, stub14, gather14a, prod14a, gather14b, prod14b, next14)
	F64N_STUB(30, 280, 296, stub15, gather15a, prod15a, gather15b, prod15b, next15)

nextgroup:
	ADDQ $2, R11
	ADDQ $32, CX
	ADDQ $304, R13
	DECQ R12
	JNZ  group

	// The halves' sums to their voxels: stored, or added to dst (dst as the
	// first operand, as the reference's +=). Both halves are read before
	// either is written, so a partial last tile's repeated voxel, whose
	// lanes all hold the same sum, is added once.
	MOVQ      dst_base+0(FP), DI
	VMOVDQU32 (R8), Y16
	VMOVDQU32 32(R8), Y17
	CMPB      add+144(FP), $0
	JEQ       store
	KXNORW    K1, K1, K1
	KXNORW    K2, K2, K2
	VGATHERDPD (DI)(Y16*8), K1, Z18
	VGATHERDPD (DI)(Y17*8), K2, Z19
	VADDPD    Z22, Z18, Z22
	VADDPD    Z23, Z19, Z23

store:
	KXNORW      K1, K1, K1
	KXNORW      K2, K2, K2
	VSCATTERDPD Z22, K1, (DI)(Y16*8)
	VSCATTERDPD Z23, K2, (DI)(Y17*8)
	ADDQ $64, R8
	DECQ R10
	JNZ  tile

done:
	MOVQ 40(SP), AX
	MOVQ AX, gathered+152(FP)
	VZEROUPPER
	RET

// The sample every out-of-window delay selects: +0, as EchoBuffer.At returns.
DATA  f64zero<>+0(SB)/8, $0
GLOBL f64zero<>(SB), RODATA|NOPTR, $8

// One voxel's step of the current element: sign-extend the voxel's delay,
// form the sample's address in the element's row (DX, CX samples long),
// replace it by the zero sample's when the delay is negative or ≥ CX — one
// unsigned compare, a negative delay sign-extends above any length — then
// load, multiply by the weight (X8), add to the voxel's chain. MULSD then
// ADDSD, two roundings: fusing them would change the sum.
#define LANE(delay, acc) \
	MOVWQSX delay, R14; \
	LEAQ    (DX)(R14*8), R8; \
	CMPQ    R14, CX; \
	CMOVQCC R13, R8; \
	MOVSD   (R8), X9; \
	MULSD   X8, X9; \
	ADDSD   X9, acc

// func sumRows8F64(dst []float64, blk []int16, tab []f64Row, nE int, add bool)
TEXT ·sumRows8F64(SB), NOSPLIT, $16-81
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), AX
	LEAQ (DI)(AX*8), AX
	MOVQ AX, end-8(SP)           // one past the last group's sums
	MOVQ blk_base+24(FP), SI     // delay row of the group's first voxel
	MOVQ tab_len+56(FP), AX
	SHLQ $5, AX
	ADDQ tab_base+48(FP), AX
	MOVQ AX, tabend-16(SP)       // table end (32 B a row)
	MOVQ nE+72(FP), R9
	SHLQ $1, R9                  // bytes between consecutive voxels' delay rows
	LEAQ (R9)(R9*2), R10         // three of them
	LEAQ f64zero<>(SB), R13

	CMPQ DI, end-8(SP)
	JGE  done

group:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ  tab_base+48(FP), BX
	LEAQ  (SI)(R9*8), R12        // the delay rows after this group's
	CMPQ  BX, tabend-16(SP)
	JGE   sums

element:
	// Eight delay rows 2·nE bytes apart are eight short streams, which the
	// hardware prefetcher does not follow as it does the reference's single
	// one; with a resident block arriving from DRAM that was a third of the
	// kernel's time. So each element step asks for one more line of the rows
	// ahead. A prefetch never faults, past the block's end included.
	PREFETCHT0 (R12)
	ADDQ  $64, R12
	MOVQ  0(BX), DX              // row pointer (never dereferenced when CX is 0)
	MOVQ  8(BX), CX              // row length
	MOVQ  16(BX), AX
	MOVSD 24(BX), X8             // weight
	ADDQ  SI, AX                 // the element's delay in voxel 0's row
	LEAQ  (AX)(R9*4), R11        // and in voxel 4's
	LANE((AX), X0)
	LANE((AX)(R9*1), X1)
	LANE((AX)(R9*2), X2)
	LANE((AX)(R10*1), X3)
	LANE((R11), X4)
	LANE((R11)(R9*1), X5)
	LANE((R11)(R9*2), X6)
	LANE((R11)(R10*1), X7)
	ADDQ  $32, BX
	CMPQ  BX, tabend-16(SP)
	JLT   element

sums:
	CMPB add+80(FP), $0
	JEQ  store
	ADDSD 0(DI), X0
	ADDSD 8(DI), X1
	ADDSD 16(DI), X2
	ADDSD 24(DI), X3
	ADDSD 32(DI), X4
	ADDSD 40(DI), X5
	ADDSD 48(DI), X6
	ADDSD 56(DI), X7

store:
	MOVSD X0, 0(DI)
	MOVSD X1, 8(DI)
	MOVSD X2, 16(DI)
	MOVSD X3, 24(DI)
	MOVSD X4, 32(DI)
	MOVSD X5, 40(DI)
	MOVSD X6, 48(DI)
	MOVSD X7, 56(DI)
	ADDQ  $64, DI
	LEAQ  (SI)(R9*8), SI
	CMPQ  DI, end-8(SP)
	JLT   group

done:
	RET
