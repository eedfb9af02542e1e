//go:build amd64 && !purego

#include "textflag.h"

// The tile-native converter's vector body. Its front end is the computing
// one of internal/beamform's AVX-512 tile bodies, copied verbatim from
// kernel_tile_amd64.h (TestConverterFrontEndMatchesKernels holds the
// copies equal): the tile's sixteen delay-row addresses at 0(SP) (and the
// next tile's at 128(SP), unread here), the group's rows into Z0–Z7 (voxel
// i in the low half of Zi, voxel i+8 in the high half), each element's
// min and max per half, and the [voxel][element] → [element][voxel]
// transpose into Z8–Z15 — which is the record's pair order. Register plan:
// Z24 the delay-row stride and Z25 blk (qwords), K7 the last group's
// length mask, R8 the tile's voxel indices, R10 the tiles left, R12 the
// groups left, R13 the group's byte offset in a delay row, DI the record,
// SI its flag, Y21 255 and Y22 math.MaxInt16 (words); AX, R14, Z16–Z20
// scratch.

#define TILE_ADDRS \
	LEAQ      64(R8), AX; \
	CMPQ      R10, $1; \
	CMOVQEQ   R8, AX; \
	VPMOVZXDQ (R8), Z16; \
	VPMOVZXDQ 32(R8), Z17; \
	VPMOVZXDQ (AX), Z18; \
	VPMOVZXDQ 32(AX), Z19; \
	VPMULUDQ  Z24, Z16, Z16; \
	VPMULUDQ  Z24, Z17, Z17; \
	VPMULUDQ  Z24, Z18, Z18; \
	VPMULUDQ  Z24, Z19, Z19; \
	VPADDQ    Z25, Z16, Z16; \
	VPADDQ    Z25, Z17, Z17; \
	VPADDQ    Z25, Z18, Z18; \
	VPADDQ    Z25, Z19, Z19; \
	VMOVDQU64 Z16, 0(SP); \
	VMOVDQU64 Z17, 64(SP); \
	VMOVDQU64 Z18, 128(SP); \
	VMOVDQU64 Z19, 192(SP)

#define TILE_ROWS(ra, rb, z, y) \
	MOVQ         ra(SP), R14; \
	VMOVDQU      (R14)(R13*1), y; \
	MOVQ         rb(SP), R14; \
	VINSERTI64X4 $1, (R14)(R13*1), z, z

#define TILE_ROWS_SHORT(ra, rb, z, y) \
	MOVQ         ra(SP), R14; \
	VMOVDQU16.Z  (R14)(R13*1), K7, y; \
	MOVQ         rb(SP), R14; \
	VMOVDQU16.Z  (R14)(R13*1), K7, Y16; \
	VINSERTI64X4 $1, Y16, z, z

#define TILE_LOAD_ROWS(full, short, loaded) \
	CMPQ     R12, $1; \
	JNE      full; \
	KORTESTW K7, K7; \
	JCC      short; \
full: \
	TILE_ROWS(0, 64, Z0, Y0); \
	TILE_ROWS(8, 72, Z1, Y1); \
	TILE_ROWS(16, 80, Z2, Y2); \
	TILE_ROWS(24, 88, Z3, Y3); \
	TILE_ROWS(32, 96, Z4, Y4); \
	TILE_ROWS(40, 104, Z5, Y5); \
	TILE_ROWS(48, 112, Z6, Y6); \
	TILE_ROWS(56, 120, Z7, Y7); \
	JMP loaded; \
short: \
	TILE_ROWS_SHORT(0, 64, Z0, Y0); \
	TILE_ROWS_SHORT(8, 72, Z1, Y1); \
	TILE_ROWS_SHORT(16, 80, Z2, Y2); \
	TILE_ROWS_SHORT(24, 88, Z3, Y3); \
	TILE_ROWS_SHORT(32, 96, Z4, Y4); \
	TILE_ROWS_SHORT(40, 104, Z5, Y5); \
	TILE_ROWS_SHORT(48, 112, Z6, Y6); \
	TILE_ROWS_SHORT(56, 120, Z7, Y7); \
loaded:

#define TILE_MINMAX \
	VPMINUW Z1, Z0, Z16; \
	VPMINUW Z3, Z2, Z17; \
	VPMINUW Z5, Z4, Z18; \
	VPMINUW Z7, Z6, Z19; \
	VPMINUW Z17, Z16, Z16; \
	VPMINUW Z19, Z18, Z18; \
	VPMINUW Z18, Z16, Z16; \
	VPMAXUW Z1, Z0, Z17; \
	VPMAXUW Z3, Z2, Z18; \
	VPMAXUW Z5, Z4, Z19; \
	VPMAXUW Z7, Z6, Z20; \
	VPMAXUW Z18, Z17, Z17; \
	VPMAXUW Z20, Z19, Z19; \
	VPMAXUW Z19, Z17, Z17

#define TILE_TRANSPOSE \
	VPUNPCKLWD  Z1, Z0, Z8; \
	VPUNPCKHWD  Z1, Z0, Z9; \
	VPUNPCKLWD  Z3, Z2, Z10; \
	VPUNPCKHWD  Z3, Z2, Z11; \
	VPUNPCKLWD  Z5, Z4, Z12; \
	VPUNPCKHWD  Z5, Z4, Z13; \
	VPUNPCKLWD  Z7, Z6, Z14; \
	VPUNPCKHWD  Z7, Z6, Z15; \
	VPUNPCKLDQ  Z10, Z8, Z0; \
	VPUNPCKHDQ  Z10, Z8, Z1; \
	VPUNPCKLDQ  Z11, Z9, Z2; \
	VPUNPCKHDQ  Z11, Z9, Z3; \
	VPUNPCKLDQ  Z14, Z12, Z4; \
	VPUNPCKHDQ  Z14, Z12, Z5; \
	VPUNPCKLDQ  Z15, Z13, Z6; \
	VPUNPCKHDQ  Z15, Z13, Z7; \
	VPUNPCKLQDQ Z4, Z0, Z8; \
	VPUNPCKHQDQ Z4, Z0, Z9; \
	VPUNPCKLQDQ Z5, Z1, Z10; \
	VPUNPCKHQDQ Z5, Z1, Z11; \
	VPUNPCKLQDQ Z6, Z2, Z12; \
	VPUNPCKHQDQ Z6, Z2, Z13; \
	VPUNPCKLQDQ Z7, Z3, Z14; \
	VPUNPCKHQDQ Z7, Z3, Z15

// func convertTilesAVX512(recs []byte, flags []uint8, blk []int16, tiles []int32, nE int, lastLen uint16)
TEXT ·convertTilesAVX512(SB), 0, $256-106
	MOVQ  recs_base+0(FP), DI
	MOVQ  flags_base+24(FP), SI
	MOVQ  tiles_base+72(FP), R8
	MOVQ  tiles_len+80(FP), R10
	SHRQ  $4, R10                // tiles left
	MOVQ  nE+96(FP), R9
	LEAQ  (R9)(R9*1), AX
	VPBROADCASTQ AX, Z24         // bytes between consecutive voxels' delay rows
	MOVQ  blk_base+48(FP), AX
	VPBROADCASTQ AX, Z25
	ADDQ  $15, R9
	SHRQ  $4, R9                 // groups per tile
	MOVWLZX lastLen+104(FP), AX
	KMOVW AX, K7
	MOVL  $255, AX
	VPBROADCASTW AX, Y21
	MOVL  $0x7FFF, AX
	VPBROADCASTW AX, Y22

	TESTQ R10, R10
	JZ    done

tile:
	TILE_ADDRS
	MOVQ R9, R12
	XORQ R13, R13

group:
	TILE_LOAD_ROWS(full, short, loaded)
	TILE_MINMAX
	VEXTRACTI64X4 $1, Z16, Y18
	VPMINUW       Y18, Y16, Y16  // the bases
	VEXTRACTI64X4 $1, Z17, Y18
	VPMAXUW       Y18, Y17, Y17
	VPSUBW        Y16, Y17, Y18  // the spans

	// The flag: 1 when some span exceeds 255, 2 when some element's
	// delays reach math.MaxInt16 from below (its min ≤ 32767 ≤ its max),
	// which the caller scans for exactly.
	XORL     AX, AX
	VPCMPUW  $6, Y21, Y18, K1
	KORTESTW K1, K1
	JZ       narrow
	ORL      $1, AX
narrow:
	VPCMPUW  $2, Y22, Y16, K2
	VPCMPUW  $5, Y22, Y17, K2, K2
	KORTESTW K2, K2
	JZ       nomax
	ORL      $2, AX
nomax:
	MOVB      AX, (SI)
	VMOVDQU16 Y16, (DI)
	VPMOVWB   Y18, 32(DI)

	// The offsets, transposed into pair order, one byte each.
	VINSERTI64X4 $1, Y16, Z16, Z16
	VPSUBW       Z16, Z0, Z0
	VPSUBW       Z16, Z1, Z1
	VPSUBW       Z16, Z2, Z2
	VPSUBW       Z16, Z3, Z3
	VPSUBW       Z16, Z4, Z4
	VPSUBW       Z16, Z5, Z5
	VPSUBW       Z16, Z6, Z6
	VPSUBW       Z16, Z7, Z7
	TILE_TRANSPOSE
	VPMOVWB      Z8, 48(DI)
	VPMOVWB      Z9, 80(DI)
	VPMOVWB      Z10, 112(DI)
	VPMOVWB      Z11, 144(DI)
	VPMOVWB      Z12, 176(DI)
	VPMOVWB      Z13, 208(DI)
	VPMOVWB      Z14, 240(DI)
	VPMOVWB      Z15, 272(DI)

	ADDQ $304, DI
	INCQ SI
	ADDQ $32, R13
	DECQ R12
	JNZ  group

	ADDQ $64, R8
	DECQ R10
	JNZ  tile

done:
	VZEROUPPER
	RET
