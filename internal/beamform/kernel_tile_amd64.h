// The 16-voxel snake-tile front end both AVX-512 tile bodies share
// (tileMaddI16AVX512 in kernel_i16_amd64.s, tileMaddF64AVX512 in
// kernel_f64_amd64.s): the tile's delay-row addresses, the masked loads of
// one 16-element group's delay rows, each element's min and max over the
// tile's two 8-voxel halves, the [voxel][element] → [element][voxel]
// transpose, and the next tile's prefetch.
//
// Register plan the macros assume. Per call: Z24 the delay-row stride and
// Z25 blk (qwords), K7 the last group's length mask. Per tile: R8 the
// tile's sixteen voxel indices, R10 the tiles left; the frame holds the
// tile's sixteen delay-row addresses at 0(SP) and the next tile's at
// 128(SP). Per group: R12 the groups left, R13 the group's byte offset in a
// delay row; Z0–Z7 the delay rows (voxel i in the low half of Zi, voxel
// i+8 in the high half), then Z8–Z15 the transposed offsets. Scratch: AX
// (TILE_ADDRS only), R14, Z16–Z20.

// The sixteen delay-row addresses of the tile at R8 into 0(SP) and of the
// next one into 128(SP); the last tile names its own, which keeps the
// look-ahead inside the tile list.
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

// Two delay rows of the group at byte offset R13: voxels whose row
// addresses sit at ra(SP) and rb(SP), into the low and high halves of z.
#define TILE_ROWS(ra, rb, z, y) \
	MOVQ         ra(SP), R14; \
	VMOVDQU      (R14)(R13*1), y; \
	MOVQ         rb(SP), R14; \
	VINSERTI64X4 $1, (R14)(R13*1), z, z

// TILE_ROWS for a last group shorter than 16 elements: the loads fault-
// suppress the lanes past the aperture and read them as 0.
#define TILE_ROWS_SHORT(ra, rb, z, y) \
	MOVQ         ra(SP), R14; \
	VMOVDQU16.Z  (R14)(R13*1), K7, y; \
	MOVQ         rb(SP), R14; \
	VMOVDQU16.Z  (R14)(R13*1), K7, Y16; \
	VINSERTI64X4 $1, Y16, z, z

// The group's sixteen delay rows into Z0–Z7, masked when it is the last
// group (R12 = 1) and that group is short (K7 not all ones).
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

// Each element's min (Z16) and max (Z17) over each 8-voxel half, unsigned
// so that a negative delay is ≥ 32768: element k of voxels 0–7 in word k,
// of voxels 8–15 in word 16+k.
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

// Transpose Z0–Z7 from [voxel][element] to [element][voxel] within 128-bit
// lanes: Z(8+k) holds element k's words for voxels 0–7 in lane 0 and 8–15
// in lane 2, element k+8's in lanes 1 and 3.
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

// One of the next tile's delay rows, whose address sits at p(SP), into
// cache at the group's offset R13. A prefetch never faults.
#define TILE_PREFETCH(p) \
	MOVQ       p(SP), R14; \
	PREFETCHT0 (R14)(R13*1)
