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
// min/max, transpose, prefetch — and its fixed-point back end are
// kernel_tile_amd64.h, the back end shared with the fused steer body, the
// front end with the float64 tile body too. Frame: the current tile's
// sixteen delay-row addresses at 0(SP), the next tile's at 128(SP), per
// element of the group in flight its window start at 256(SP) and its
// window load mask at 320(SP). Per call beyond the header's plan: Z24 the
// delay-row stride and Z25 blk.

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
	MOVL  sh+180(FP), CX
	MOVL  win+176(FP), DX
	MOVWLZX lastLen+184(FP), R11
	TILE_I16_CONSTS

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
	TILE_I16_GROUP(done, nextgroup)

nextgroup:
	TILE_I16_NEXT_GROUP(2)
	JNZ  group

	TILE_I16_STORE
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

// The tile-native body: tileMaddI16AVX512 over a resident block stored as
// delaycache.Native records, one 304-byte record per (tile, group) at SI —
// bases, spans and pair-ordered offsets. Its front end is three loads per
// group where the computing one loads sixteen rows, takes their min/max
// tree, subtracts and transposes: the bases are the mins, base + span the
// maxes, and each pair's offsets are one zero-extending load. The accept
// rule, the windows and the pair steps are the computing body's
// (TILE_I16_WINDOWS, TILE_PAIR32_AT, TILE_PAIR64_AT); the records stream in
// order, so no row is prefetched. Frame: as the computing body's, of which
// only the window starts at 256(SP) and the load masks at 320(SP) are used.
// Z0 holds the narrow pair bias as the pair-ordered offsets need it: 32 in
// 128-bit lanes 1 and 3 (element k+8's), 0 in lanes 0 and 2.

// A pair step of a narrow group: the pair's offsets from the record at o,
// element k+8's biased into the second table.
#define NATIVE_PAIR32(bits, ba, bb, ma, mb, w, o, skip) \
	TESTL     $bits, AX; \
	JZ        skip; \
	VPMOVZXBW o(SI), Z8; \
	VPADDW    Z0, Z8, Z8; \
	TILE_PAIR32_AT(ba, bb, ma, mb, w, Z8); \
skip:

// A pair step of a wide group: each element's offsets index its own window.
#define NATIVE_PAIR64(bits, ba, bb, ma, mb, w, o, skip) \
	TESTL     $bits, AX; \
	JZ        skip; \
	VPMOVZXBW o(SI), Z8; \
	TILE_PAIR64_AT(ba, bb, ma, mb, w, Z8); \
skip:

// func tileMaddI16NativeAVX512(row []int32, recs []byte, plane []int16, tiles []int32, ro []int32, wpair []uint32, grp []uint16, win, sh uint32) int
TEXT ·tileMaddI16NativeAVX512(SB), 0, $448-184
	MOVQ  row_base+0(FP), DI
	MOVQ  recs_base+24(FP), SI
	MOVQ  plane_base+48(FP), BX
	MOVQ  tiles_base+72(FP), R8
	MOVQ  tiles_len+80(FP), R10
	SHRQ  $4, R10                // tiles left
	MOVL  sh+172(FP), CX
	MOVL  win+168(FP), DX
	MOVL  $0xFFFF, R11
	TILE_I16_CONSTS
	MOVL         $32, AX
	VPBROADCASTW AX, Z0
	VMOVDQU64.Z  Z0, K5, Z0

	TESTQ R10, R10
	JZ    done

tile:
	VPXORD    Z22, Z22, Z22
	VPXORD    Z23, Z23, Z23
	MOVQ      ro_base+96(FP), DX
	MOVQ      wpair_base+120(FP), CX
	MOVQ      grp_base+144(FP), R11
	MOVQ      grp_len+152(FP), R12

group:
	MOVWLZX (R11), AX
	TESTL   AX, AX
	JZ      nextgroup
	KMOVW   AX, K6
	VMOVDQU16 (SI), Y16          // bases: the mins
	VPMOVZXBW 32(SI), Y18        // spans
	VPADDW    Y18, Y16, Y17      // the maxes
	TILE_I16_WINDOWS(done)
	KORTESTW K3, K3
	JNZ      wide
	NATIVE_PAIR32(0x0101, 256, 288, 320, 384, 0, 48, narrow1)
	NATIVE_PAIR32(0x0202, 260, 292, 328, 392, 64, 80, narrow2)
	NATIVE_PAIR32(0x0404, 264, 296, 336, 400, 128, 112, narrow3)
	NATIVE_PAIR32(0x0808, 268, 300, 344, 408, 192, 144, narrow4)
	NATIVE_PAIR32(0x1010, 272, 304, 352, 416, 256, 176, narrow5)
	NATIVE_PAIR32(0x2020, 276, 308, 360, 424, 320, 208, narrow6)
	NATIVE_PAIR32(0x4040, 280, 312, 368, 432, 384, 240, narrow7)
	NATIVE_PAIR32(0x8080, 284, 316, 376, 440, 448, 272, narrow8)
	JMP nextgroup
wide:
	NATIVE_PAIR64(0x0101, 256, 288, 320, 384, 0, 48, wide1)
	NATIVE_PAIR64(0x0202, 260, 292, 328, 392, 64, 80, wide2)
	NATIVE_PAIR64(0x0404, 264, 296, 336, 400, 128, 112, wide3)
	NATIVE_PAIR64(0x0808, 268, 300, 344, 408, 192, 144, wide4)
	NATIVE_PAIR64(0x1010, 272, 304, 352, 416, 256, 176, wide5)
	NATIVE_PAIR64(0x2020, 276, 308, 360, 424, 320, 208, wide6)
	NATIVE_PAIR64(0x4040, 280, 312, 368, 432, 384, 240, wide7)
	NATIVE_PAIR64(0x8080, 284, 316, 376, 440, 448, 272, wide8)

nextgroup:
	ADDQ $64, DX
	ADDQ $512, CX
	ADDQ $304, SI
	ADDQ $2, R11
	DECQ R12
	JNZ  group

	TILE_I16_STORE
	ADDQ $64, R8
	DECQ R10
	JNZ  tile

done:
	MOVQ tiles_len+80(FP), AX
	SHRQ $4, AX
	SUBQ R10, AX
	MOVQ AX, ret+176(FP)
	VZEROUPPER
	RET
