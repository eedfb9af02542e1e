//go:build amd64 && !purego

#include "textflag.h"
#include "kernel_tile_amd64.h"

// One 8-element group at element offset AX of the current voxel, summed
// into accumulator acc: zero-extend eight delays, clamp to win (the guard
// slot), add the row offsets, gather the sample dwords, multiply the low
// words by the weights (the high weight word is 0, so the dragged-in
// neighbour sample vanishes), shift each product, accumulate. VPGATHERDD
// consumes its mask, hence the VPCMPEQD per gather.
#define GROUP(off2, off4, idx, mask, smp, acc) \
	VPMOVZXWD off2(SI)(AX*2), idx; \
	VPMINUD   Y15, idx, idx; \
	VPADDD    off4(DX)(AX*4), idx, idx; \
	VPCMPEQD  mask, mask, mask; \
	VPGATHERDD mask, (BX)(idx*2), smp; \
	VPMADDWD  off4(CX)(AX*4), smp, smp; \
	VPSRAD    X14, smp, smp; \
	VPADDD    smp, acc, acc

// func gatherMaddI16AVX2(acc []int32, blk []int16, plane []int16, ro []int32, wq []uint32, nE, nVec int, win, sh uint32)
TEXT ·gatherMaddI16AVX2(SB), NOSPLIT, $0-144
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), R8       // voxels left
	MOVQ blk_base+24(FP), SI
	MOVQ plane_base+48(FP), BX
	MOVQ ro_base+72(FP), DX
	MOVQ wq_base+96(FP), CX
	MOVQ nE+120(FP), R9
	MOVQ nVec+128(FP), R10      // elements in the vector range
	MOVL win+136(FP), AX
	VMOVD AX, X15
	VPBROADCASTD X15, Y15        // the clamp bound in every lane
	MOVL sh+140(FP), AX
	VMOVD AX, X14                // the per-product shift count

	TESTQ R8, R8
	JZ    done
	SHLQ $1, R9                  // bytes between consecutive voxels' delay rows
	MOVQ R10, R11
	ANDQ $-16, R11               // R11 = elements the 16-wide loop covers

voxel:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	XORQ  AX, AX
	CMPQ  AX, R11
	JGE   rem8

loop16:
	GROUP(0, 0, Y2, Y4, Y6, Y0)
	GROUP(16, 32, Y3, Y5, Y7, Y1)
	ADDQ $16, AX
	CMPQ AX, R11
	JLT  loop16

rem8:
	CMPQ AX, R10
	JGE  hsum
	GROUP(0, 0, Y2, Y4, Y6, Y0)

hsum:
	VPADDD       Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, (DI)
	ADDQ $4, DI
	ADDQ R9, SI
	DECQ R8
	JNZ  voxel

done:
	VZEROUPPER
	RET

// The AVX-512 tile body. Its front end — row addresses, delay-row loads,
// min/max, transpose, prefetch — is kernel_tile_amd64.h, shared with the
// float64 tile body. Frame: the current tile's sixteen delay-row addresses
// at 0(SP), the next tile's at 128(SP), per element of the group in flight
// its window start ro+min at 256(SP) and its 64-bit window load mask at
// 320(SP).
//
// Register plan. Per call: Z24 the delay-row stride and Z25 blk, Z26 2 and
// Z27 −1 (qwords; −1 serves every width), Z28 the product shift (dwords),
// Y29 the narrow pair bias (0 for elements 0–7, 32 for 8–15), Y30 63 and
// Y31 win (words), K5 lanes 1 and 3 (qwords 2, 3, 6, 7), K7 the last
// group's length mask. Per tile: Z22 Z23 the accumulators. Per group: Z0–Z7
// the delay rows, voxel i in the low half of Zi and i+8 in the high half,
// then Z8–Z15 the offsets of elements k and k+8 in Z(8+k); K6 the group's
// apodization mask (AX too), K3 its wide elements; Z16–Z21, K1 K2 K4
// scratch.

// Two of the next tile's delay rows into cache for the group at R13, then
// past the element pair unless either of its elements (bits of AX) is
// apodized.
#define TILE_NEXT(pa, pb, bits, skip) \
	TILE_PREFETCH(pa); \
	TILE_PREFETCH(pb); \
	TESTL      $bits, AX; \
	JZ         skip

// One element's window plane[ro+min … ro+max] of at most 32 words into w,
// under its mask: the load reads exactly the window, and nothing at all for
// an un-apodized element, whose mask is 0.
#define TILE_WINDOW32(base, m, w) \
	MOVL        base(SP), R14; \
	KMOVD       m(SP), K1; \
	VMOVDQU16.Z (BX)(R14*2), K1, w

// One element's window of at most 64 words as two masked halves (a half
// the mask leaves empty reads nothing), then its samples for the sixteen
// voxels by one two-table word permute by the offsets x, into w.
#define TILE_WINDOW64(base, m, x, w, t) \
	MOVL        base(SP), R14; \
	KMOVD       m(SP), K1; \
	KMOVD       m+4(SP), K2; \
	VMOVDQU16.Z (BX)(R14*2), K1, w; \
	VMOVDQU16.Z 64(BX)(R14*2), K2, t; \
	VPERMT2W    t, x, w

// Z16 holds an element pair's samples for the sixteen voxels: element k's
// in 128-bit lanes 0 and 2, element k+8's in lanes 1 and 3. Widen, multiply
// by the pair's weights at w(CX) (the high word of every weight dword is 0,
// so the duplicated word beside each sample vanishes), shift each product
// and accumulate: Z22 collects voxels 0–3 and 8–11, Z23 voxels 4–7 and
// 12–15.
#define TILE_MADD(w) \
	VPUNPCKLWD Z16, Z16, Z17; \
	VPUNPCKHWD Z16, Z16, Z16; \
	VPMADDWD   w(CX), Z17, Z17; \
	VPMADDWD   w(CX), Z16, Z16; \
	VPSRAVD    Z28, Z17, Z17; \
	VPSRAVD    Z28, Z16, Z16; \
	VPADDD     Z17, Z22, Z22; \
	VPADDD     Z16, Z23, Z23

// Element pair k, k+8 of a narrow group, whose offsets x index both windows
// as one 64-word table (element k+8's are biased by 32): one permute
// selects both elements' samples.
#define TILE_PAIR32(bits, pa, pb, ba, bb, ma, mb, w, x, skip) \
	TILE_NEXT(pa, pb, bits, skip); \
	TILE_WINDOW32(ba, ma, Z16); \
	TILE_WINDOW32(bb, mb, Z17); \
	VPERMT2W Z17, x, Z16; \
	TILE_MADD(w); \
skip:

// Element pair k, k+8 of a wide group: a permute per element over its own
// 64-word window, then one merge of element k+8's lanes.
#define TILE_PAIR64(bits, pa, pb, ba, bb, ma, mb, w, x, skip) \
	TILE_NEXT(pa, pb, bits, skip); \
	TILE_WINDOW64(ba, ma, x, Z16, Z17); \
	TILE_WINDOW64(bb, mb, x, Z18, Z19); \
	VMOVDQU64 Z18, K5, Z16; \
	TILE_MADD(w); \
skip:

// func tileMaddI16AVX512(row []int32, blk []int16, plane []int16, tiles []int32, ro []int32, wpair []uint32, grp []uint16, nE int, win, sh uint32, lastLen uint16) int
TEXT ·tileMaddI16AVX512(SB), 0, $448-200
	MOVQ  row_base+0(FP), DI
	MOVQ  plane_base+48(FP), BX
	MOVQ  tiles_base+72(FP), R8
	MOVQ  tiles_len+80(FP), R10
	SHRQ  $4, R10                // tiles left
	MOVQ  nE+168(FP), AX
	SHLQ  $1, AX
	VPBROADCASTQ AX, Z24         // bytes between consecutive voxels' delay rows
	MOVQ  blk_base+24(FP), AX
	VPBROADCASTQ AX, Z25
	MOVL  $2, AX
	VPBROADCASTQ AX, Z26
	VPTERNLOGD $0xFF, Z27, Z27, Z27
	MOVL  sh+180(FP), AX
	VPBROADCASTD AX, Z28
	MOVL  $32, AX
	VPBROADCASTW AX, X16
	VPXORD Y29, Y29, Y29
	VINSERTI32X4 $1, X16, Y29, Y29
	MOVL  $63, AX
	VPBROADCASTW AX, Y30
	MOVL  win+176(FP), AX
	VPBROADCASTW AX, Y31
	MOVL  $0xCC, AX
	KMOVW AX, K5
	MOVWLZX lastLen+184(FP), AX
	KMOVW AX, K7

	TESTQ R10, R10
	JZ    done

tile:
	TILE_ADDRS
	VPXORD    Z22, Z22, Z22
	VPXORD    Z23, Z23, Z23
	MOVQ      ro_base+96(FP), DX
	MOVQ      wpair_base+120(FP), CX
	MOVQ      grp_base+144(FP), R11
	MOVQ      grp_len+152(FP), R12
	XORQ      R13, R13

group:
	MOVWLZX (R11), AX
	TESTL   AX, AX
	JZ      nextgroup
	KMOVW   AX, K6
	TILE_LOAD_ROWS(full, short, loaded)

	// Each element's min (Y16) and max (Y17) over the tile's sixteen voxels.
	TILE_MINMAX
	VEXTRACTI64X4 $1, Z16, Y18
	VPMINUW       Y18, Y16, Y16
	VEXTRACTI64X4 $1, Z17, Y18
	VPMAXUW       Y18, Y17, Y17

	// Accept the tile only if every apodized element's delays span at
	// most 63 samples (its window holds at most 64) and none exceeds win (unsigned: a negative delay
	// fails); otherwise hand it back untouched.
	VPSUBW   Y16, Y17, Y18
	VPCMPUW  $6, Y30, Y18, K6, K1
	VPCMPUW  $6, Y31, Y17, K6, K2
	KORTESTW K1, K2
	JNE      done

	// A group is narrow when every apodized element's window fits 32
	// samples (K3 clear): one permute then serves an element pair.
	VPSRLW   $5, Y18, Y19
	VPTESTMW Y19, Y19, K6, K3

	// Window load masks (2 << span) − 1 as qwords, zero for un-apodized
	// elements, and window starts ro + min.
	VPMOVZXWQ     X18, Z20
	VEXTRACTI32X4 $1, Y18, X19
	VPMOVZXWQ     X19, Z21
	VPSLLVQ       Z20, Z26, Z20
	VPSLLVQ       Z21, Z26, Z21
	VPADDQ        Z27, Z20, Z20
	VPADDQ        Z27, Z21, Z21
	KSHIFTRW      $8, K6, K4
	VMOVDQU64.Z   Z20, K6, Z20
	VMOVDQU64.Z   Z21, K4, Z21
	VMOVDQU64     Z20, 320(SP)
	VMOVDQU64     Z21, 384(SP)
	VPMOVZXWD     Y16, Z19
	VPADDD        (DX), Z19, Z19
	VMOVDQU32     Z19, 256(SP)

	// Offsets into each element's window; in a narrow group elements 8–15
	// index the second table of their pair's permute.
	KORTESTW     K3, K3
	JNZ          wideoffsets
	VPSUBW       Y29, Y16, Y16

wideoffsets:
	VINSERTI64X4 $1, Y16, Z16, Z16
	VPSUBW       Z16, Z0, Z0
	VPSUBW       Z16, Z1, Z1
	VPSUBW       Z16, Z2, Z2
	VPSUBW       Z16, Z3, Z3
	VPSUBW       Z16, Z4, Z4
	VPSUBW       Z16, Z5, Z5
	VPSUBW       Z16, Z6, Z6
	VPSUBW       Z16, Z7, Z7

	// Transpose: Z(8+k) holds element k's offsets and element k+8's.
	TILE_TRANSPOSE

	KORTESTW K3, K3
	JNZ      wide
	TILE_PAIR32(0x0101, 128, 192, 256, 288, 320, 384, 0, Z8, narrow1)
	TILE_PAIR32(0x0202, 136, 200, 260, 292, 328, 392, 64, Z9, narrow2)
	TILE_PAIR32(0x0404, 144, 208, 264, 296, 336, 400, 128, Z10, narrow3)
	TILE_PAIR32(0x0808, 152, 216, 268, 300, 344, 408, 192, Z11, narrow4)
	TILE_PAIR32(0x1010, 160, 224, 272, 304, 352, 416, 256, Z12, narrow5)
	TILE_PAIR32(0x2020, 168, 232, 276, 308, 360, 424, 320, Z13, narrow6)
	TILE_PAIR32(0x4040, 176, 240, 280, 312, 368, 432, 384, Z14, narrow7)
	TILE_PAIR32(0x8080, 184, 248, 284, 316, 376, 440, 448, Z15, narrow8)
	JMP nextgroup

wide:
	TILE_PAIR64(0x0101, 128, 192, 256, 288, 320, 384, 0, Z8, wide1)
	TILE_PAIR64(0x0202, 136, 200, 260, 292, 328, 392, 64, Z9, wide2)
	TILE_PAIR64(0x0404, 144, 208, 264, 296, 336, 400, 128, Z10, wide3)
	TILE_PAIR64(0x0808, 152, 216, 268, 300, 344, 408, 192, Z11, wide4)
	TILE_PAIR64(0x1010, 160, 224, 272, 304, 352, 416, 256, Z12, wide5)
	TILE_PAIR64(0x2020, 168, 232, 276, 308, 360, 424, 320, Z13, wide6)
	TILE_PAIR64(0x4040, 176, 240, 280, 312, 368, 432, 384, Z14, wide7)
	TILE_PAIR64(0x8080, 184, 248, 284, 316, 376, 440, 448, Z15, wide8)

nextgroup:
	ADDQ $2, R11
	ADDQ $64, DX
	ADDQ $512, CX
	ADDQ $32, R13
	DECQ R12
	JNZ  group

	// Fold the two elements' lanes — [0–3 8–11] + [4–7 12–15] pairs — into
	// voxels 0–15 in tile order, and store them to the tile's row slots.
	VSHUFI64X2  $0x88, Z23, Z22, Z16
	VSHUFI64X2  $0xDD, Z23, Z22, Z17
	VPADDD      Z17, Z16, Z16
	VSHUFI64X2  $0xD8, Z16, Z16, Z16
	VMOVDQU32   (R8), Z17
	KXNORW      K1, K1, K1
	VPSCATTERDD Z16, K1, (DI)(Z17*4)
	ADDQ $64, R8
	DECQ R10
	JNZ  tile

done:
	MOVQ tiles_len+80(FP), AX
	SHRQ $4, AX
	SUBQ R10, AX
	MOVQ AX, ret+192(FP)
	VZEROUPPER
	RET
