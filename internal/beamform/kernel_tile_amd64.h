// The 16-voxel snake-tile code the AVX-512 fixed-point tile bodies share
// (tileMaddI16AVX512 in kernel_i16_amd64.s, tileMaddSteerAVX512 in
// kernel_steer_amd64.s). The front end: the tile's delay-row addresses, the
// masked loads of one 16-element group's delay rows — or, on the fused
// steer body, the same rows computed from the steer operands — each
// element's min and max over the tile's two 8-voxel halves, the
// [voxel][element] → [element][voxel] transpose, and the next tile's
// prefetch. The back end: the accept rule, the window loads, the permutes,
// the multiply-adds and the tile's store. The float64 tile-native body
// reads stored records instead of delay rows and uses none of this.
//
// Register plan the macros assume. Per call: Z24 the delay-row stride and
// Z25 blk (qwords), K7 the last group's length mask. Per tile: R8 the
// tile's sixteen voxel indices, R10 the tiles left; the frame holds the
// tile's sixteen delay-row addresses at 0(SP) and the next tile's at
// 128(SP). Per group: R12 the groups left, R13 the group's byte offset in a
// delay row; Z0–Z7 the delay rows (voxel i in the low half of Zi, voxel
// i+8 in the high half), then Z8–Z15 the transposed offsets. Scratch: AX
// (TILE_ADDRS only), R14, Z16–Z20. The steer rows and the fixed-point back
// end state their departures from this plan where they are defined.

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

// The fused steer body's rows. Its frame holds the tile's sixteen ry row
// addresses where the delay-row addresses sit (0(SP)) and their XT row
// addresses at 448(SP); R13 is the group's byte offset in an int32 row (64
// per group), Z24 holds the rounding bias half and Z25 the rounding shift
// frac (dwords). One voxel's sixteen indices, (s + half + s>>31) >> frac
// for s = ry + XT, exactly as tablesteer's steerRow rounds them, packed to
// words in y. tablesteer.narrowProven keeps every index inside int16, so
// the truncating VPMOVDW is exact.
#define STEER_ROUND(y) \
	VPSRAD  $31, Z16, Z17; \
	VPADDD  Z24, Z16, Z16; \
	VPADDD  Z17, Z16, Z16; \
	VPSRAVD Z25, Z16, Z16; \
	VPMOVDW Z16, y

// The indices of two voxels whose ry rows sit at ra(SP) and rb(SP) and XT
// rows at xa(SP) and xb(SP): into the low and high halves of z, the layout
// TILE_ROWS loads.
#define STEER_ROWS(ra, rb, xa, xb, z, y) \
	MOVQ         ra(SP), R14; \
	VMOVDQU32    (R14)(R13*1), Z16; \
	MOVQ         xa(SP), R14; \
	VPADDD       (R14)(R13*1), Z16, Z16; \
	STEER_ROUND(y); \
	MOVQ         rb(SP), R14; \
	VMOVDQU32    (R14)(R13*1), Z16; \
	MOVQ         xb(SP), R14; \
	VPADDD       (R14)(R13*1), Z16, Z16; \
	STEER_ROUND(Y18); \
	VINSERTI64X4 $1, Y18, z, z

// STEER_ROWS for a last group shorter than 16 elements: the loads fault-
// suppress the lanes past the aperture, whose sums read 0 and round to 0.
#define STEER_ROWS_SHORT(ra, rb, xa, xb, z, y) \
	MOVQ         ra(SP), R14; \
	VMOVDQU32.Z  (R14)(R13*1), K7, Z16; \
	MOVQ         xa(SP), R14; \
	VPADDD       (R14)(R13*1), Z16, K7, Z16; \
	STEER_ROUND(y); \
	MOVQ         rb(SP), R14; \
	VMOVDQU32.Z  (R14)(R13*1), K7, Z16; \
	MOVQ         xb(SP), R14; \
	VPADDD       (R14)(R13*1), Z16, K7, Z16; \
	STEER_ROUND(Y18); \
	VINSERTI64X4 $1, Y18, z, z

// TILE_LOAD_ROWS for the fused steer body: the group's sixteen index rows
// computed into Z0–Z7.
#define STEER_LOAD_ROWS(full, short, loaded) \
	CMPQ     R12, $1; \
	JNE      full; \
	KORTESTW K7, K7; \
	JCC      short; \
full: \
	STEER_ROWS(0, 64, 448, 512, Z0, Y0); \
	STEER_ROWS(8, 72, 456, 520, Z1, Y1); \
	STEER_ROWS(16, 80, 464, 528, Z2, Y2); \
	STEER_ROWS(24, 88, 472, 536, Z3, Y3); \
	STEER_ROWS(32, 96, 480, 544, Z4, Y4); \
	STEER_ROWS(40, 104, 488, 552, Z5, Y5); \
	STEER_ROWS(48, 112, 496, 560, Z6, Y6); \
	STEER_ROWS(56, 120, 504, 568, Z7, Y7); \
	JMP loaded; \
short: \
	STEER_ROWS_SHORT(0, 64, 448, 512, Z0, Y0); \
	STEER_ROWS_SHORT(8, 72, 456, 520, Z1, Y1); \
	STEER_ROWS_SHORT(16, 80, 464, 528, Z2, Y2); \
	STEER_ROWS_SHORT(24, 88, 472, 536, Z3, Y3); \
	STEER_ROWS_SHORT(32, 96, 480, 544, Z4, Y4); \
	STEER_ROWS_SHORT(40, 104, 488, 552, Z5, Y5); \
	STEER_ROWS_SHORT(48, 112, 496, 560, Z6, Y6); \
	STEER_ROWS_SHORT(56, 120, 504, 568, Z7, Y7); \
loaded:

// The fused steer body's TILE_ADDRS. R9 walks the route's tile-ordered
// offsets beside R8's voxel indices, 32 per tile: sixteen ry row offsets
// φ·nE, then sixteen XT row offsets (elements); Z22 and Z23 hold the ry
// and XT bases (qwords) until the tile's accumulators take them. The
// tile's ry rows go to 0(SP) and its XT rows to 448(SP); the next tile's
// XT rows, the ones the group loop prefetches, to 128(SP). The last tile
// names its own.
#define STEER_ADDRS \
	LEAQ      128(R9), AX; \
	CMPQ      R10, $1; \
	CMOVQEQ   R9, AX; \
	VPMOVZXDQ (R9), Z16; \
	VPMOVZXDQ 32(R9), Z17; \
	VPMOVZXDQ 64(R9), Z18; \
	VPMOVZXDQ 96(R9), Z19; \
	VPMOVZXDQ 64(AX), Z20; \
	VPMOVZXDQ 96(AX), Z21; \
	VPSLLQ    $2, Z16, Z16; \
	VPSLLQ    $2, Z17, Z17; \
	VPSLLQ    $2, Z18, Z18; \
	VPSLLQ    $2, Z19, Z19; \
	VPSLLQ    $2, Z20, Z20; \
	VPSLLQ    $2, Z21, Z21; \
	VPADDQ    Z22, Z16, Z16; \
	VPADDQ    Z22, Z17, Z17; \
	VPADDQ    Z23, Z18, Z18; \
	VPADDQ    Z23, Z19, Z19; \
	VPADDQ    Z23, Z20, Z20; \
	VPADDQ    Z23, Z21, Z21; \
	VMOVDQU64 Z16, 0(SP); \
	VMOVDQU64 Z17, 64(SP); \
	VMOVDQU64 Z20, 128(SP); \
	VMOVDQU64 Z21, 192(SP); \
	VMOVDQU64 Z18, 448(SP); \
	VMOVDQU64 Z19, 512(SP)

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

// The fixed-point back end of the i16 and the fused steer tile bodies.
// Beyond the front end's plan: the frame holds, per element of the group
// in flight, its window start ro+min at 256(SP) and its 64-bit window load
// mask at 320(SP); the next tile's prefetch rows stay at 128(SP). Per call:
// Z26 2 and Z27 −1 (qwords; −1 serves every width), Z28 the product shift
// (dwords), Y29 the narrow pair bias (0 for elements 0–7, 32 for 8–15),
// Y30 63 and Y31 win (words), K5 lanes 1 and 3 (qwords 2, 3, 6, 7), DI
// the row, BX the plane. Per tile: Z22 Z23 the accumulators. Per group: DX
// the group's row offsets, CX its pair weights, R11 its mask word, K6 its
// apodization mask (AX too), K3 its wide elements; Z16–Z21, K1 K2 K4
// scratch.

// The per-call constants, from the product shift in CX, win in DX and the
// last group's length mask in R11.
#define TILE_I16_CONSTS \
	MOVL         $2, AX; \
	VPBROADCASTQ AX, Z26; \
	VPTERNLOGD   $0xFF, Z27, Z27, Z27; \
	VPBROADCASTD CX, Z28; \
	MOVL         $32, AX; \
	VPBROADCASTW AX, X16; \
	VPXORD       Y29, Y29, Y29; \
	VINSERTI32X4 $1, X16, Y29, Y29; \
	MOVL         $63, AX; \
	VPBROADCASTW AX, Y30; \
	VPBROADCASTW DX, Y31; \
	MOVL         $0xCC, AX; \
	KMOVW        AX, K5; \
	KMOVW        R11, K7

// Two of the next tile's rows into cache for the group at R13, then past
// the element pair unless either of its elements (bits of AX) is
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
#define TILE_PAIR32_AT(ba, bb, ma, mb, w, x) \
	TILE_WINDOW32(ba, ma, Z16); \
	TILE_WINDOW32(bb, mb, Z17); \
	VPERMT2W Z17, x, Z16; \
	TILE_MADD(w)

// Element pair k, k+8 of a wide group: a permute per element over its own
// 64-word window, then one merge of element k+8's lanes.
#define TILE_PAIR64_AT(ba, bb, ma, mb, w, x) \
	TILE_WINDOW64(ba, ma, x, Z16, Z17); \
	TILE_WINDOW64(bb, mb, x, Z18, Z19); \
	VMOVDQU64 Z18, K5, Z16; \
	TILE_MADD(w)

// The two pair steps with the next tile's rows prefetched first.
#define TILE_PAIR32(bits, pa, pb, ba, bb, ma, mb, w, x, skip) \
	TILE_NEXT(pa, pb, bits, skip); \
	TILE_PAIR32_AT(ba, bb, ma, mb, w, x); \
skip:

#define TILE_PAIR64(bits, pa, pb, ba, bb, ma, mb, w, x, skip) \
	TILE_NEXT(pa, pb, bits, skip); \
	TILE_PAIR64_AT(ba, bb, ma, mb, w, x); \
skip:

// The computing front end's last step for one group of a tile whose
// sixteen index rows sit in Z0–Z7: each element's min (Y16) and max (Y17)
// over the tile's sixteen voxels, and its span (Y18).
#define TILE_I16_MINMAX \
	TILE_MINMAX; \
	VEXTRACTI64X4 $1, Z16, Y18; \
	VPMINUW       Y18, Y16, Y16; \
	VEXTRACTI64X4 $1, Z17, Y18; \
	VPMAXUW       Y18, Y17, Y17; \
	VPSUBW   Y16, Y17, Y18

// The accept rule and the windows of a group whose elements' mins, maxes
// and spans sit in Y16, Y17 and Y18 and whose apodization mask is in K6.
// Accept the tile only if every apodized element's delays span at most 63
// samples (its window holds at most 64) and none exceeds win (unsigned: a
// negative delay fails); otherwise jump to handback with the tile
// untouched. A group is narrow when every apodized element's window fits
// 32 samples (K3 clear): one permute then serves an element pair. Window
// load masks (2 << span) − 1 as qwords, zero for un-apodized elements, and
// window starts ro + min go to the frame.
#define TILE_I16_WINDOWS(handback) \
	VPCMPUW  $6, Y30, Y18, K6, K1; \
	VPCMPUW  $6, Y31, Y17, K6, K2; \
	KORTESTW K1, K2; \
	JNE      handback; \
	VPSRLW   $5, Y18, Y19; \
	VPTESTMW Y19, Y19, K6, K3; \
	VPMOVZXWQ     X18, Z20; \
	VEXTRACTI32X4 $1, Y18, X19; \
	VPMOVZXWQ     X19, Z21; \
	VPSLLVQ       Z20, Z26, Z20; \
	VPSLLVQ       Z21, Z26, Z21; \
	VPADDQ        Z27, Z20, Z20; \
	VPADDQ        Z27, Z21, Z21; \
	KSHIFTRW      $8, K6, K4; \
	VMOVDQU64.Z   Z20, K6, Z20; \
	VMOVDQU64.Z   Z21, K4, Z21; \
	VMOVDQU64     Z20, 320(SP); \
	VMOVDQU64     Z21, 384(SP); \
	VPMOVZXWD     Y16, Z19; \
	VPADDD        (DX), Z19, Z19; \
	VMOVDQU32     Z19, 256(SP)

// The offsets into each element's window, computed from the rows in Z0–Z7
// (in a narrow group elements 8–15 index the second table of their pair's
// permute) and transposed so that Z(8+k) holds element k's and element
// k+8's.
#define TILE_I16_OFFSETS \
	KORTESTW     K3, K3; \
	JNZ          wideoffsets; \
	VPSUBW       Y29, Y16, Y16; \
wideoffsets: \
	VINSERTI64X4 $1, Y16, Z16, Z16; \
	VPSUBW       Z16, Z0, Z0; \
	VPSUBW       Z16, Z1, Z1; \
	VPSUBW       Z16, Z2, Z2; \
	VPSUBW       Z16, Z3, Z3; \
	VPSUBW       Z16, Z4, Z4; \
	VPSUBW       Z16, Z5, Z5; \
	VPSUBW       Z16, Z6, Z6; \
	VPSUBW       Z16, Z7, Z7; \
	TILE_TRANSPOSE

// The pair back end over the offsets in Z8–Z15: the eight pairs, narrow or
// wide, each prefetching two of the next tile's rows, and on to next.
#define TILE_I16_PAIRS(next) \
	KORTESTW K3, K3; \
	JNZ      wide; \
	TILE_PAIR32(0x0101, 128, 192, 256, 288, 320, 384, 0, Z8, narrow1); \
	TILE_PAIR32(0x0202, 136, 200, 260, 292, 328, 392, 64, Z9, narrow2); \
	TILE_PAIR32(0x0404, 144, 208, 264, 296, 336, 400, 128, Z10, narrow3); \
	TILE_PAIR32(0x0808, 152, 216, 268, 300, 344, 408, 192, Z11, narrow4); \
	TILE_PAIR32(0x1010, 160, 224, 272, 304, 352, 416, 256, Z12, narrow5); \
	TILE_PAIR32(0x2020, 168, 232, 276, 308, 360, 424, 320, Z13, narrow6); \
	TILE_PAIR32(0x4040, 176, 240, 280, 312, 368, 432, 384, Z14, narrow7); \
	TILE_PAIR32(0x8080, 184, 248, 284, 316, 376, 440, 448, Z15, narrow8); \
	JMP next; \
wide: \
	TILE_PAIR64(0x0101, 128, 192, 256, 288, 320, 384, 0, Z8, wide1); \
	TILE_PAIR64(0x0202, 136, 200, 260, 292, 328, 392, 64, Z9, wide2); \
	TILE_PAIR64(0x0404, 144, 208, 264, 296, 336, 400, 128, Z10, wide3); \
	TILE_PAIR64(0x0808, 152, 216, 268, 300, 344, 408, 192, Z11, wide4); \
	TILE_PAIR64(0x1010, 160, 224, 272, 304, 352, 416, 256, Z12, wide5); \
	TILE_PAIR64(0x2020, 168, 232, 276, 308, 360, 424, 320, Z13, wide6); \
	TILE_PAIR64(0x4040, 176, 240, 280, 312, 368, 432, 384, Z14, wide7); \
	TILE_PAIR64(0x8080, 184, 248, 284, 316, 376, 440, 448, Z15, wide8)

// One group of a tile whose sixteen index rows sit in Z0–Z7 and whose
// apodization mask is in K6 and AX: the computing front end (min, max,
// span, offsets, transpose) around the accept rule and the windows, then
// the pair back end.
#define TILE_I16_GROUP(handback, next) \
	TILE_I16_MINMAX; \
	TILE_I16_WINDOWS(handback); \
	TILE_I16_OFFSETS; \
	TILE_I16_PAIRS(next)

// The group's row-offset, pair-weight and mask pointers on to the next
// group, and R13 on by one group of a row of rowBytes-wide elements.
#define TILE_I16_NEXT_GROUP(rowBytes) \
	ADDQ $2, R11; \
	ADDQ $64, DX; \
	ADDQ $512, CX; \
	ADDQ $(16*rowBytes), R13; \
	DECQ R12

// Fold the two elements' lanes — [0–3 8–11] + [4–7 12–15] pairs — into
// voxels 0–15 in tile order, and store them to the tile's row slots.
#define TILE_I16_STORE \
	VSHUFI64X2  $0x88, Z23, Z22, Z16; \
	VSHUFI64X2  $0xDD, Z23, Z22, Z17; \
	VPADDD      Z17, Z16, Z16; \
	VSHUFI64X2  $0xD8, Z16, Z16, Z16; \
	VMOVDQU32   (R8), Z17; \
	KXNORW      K1, K1, K1; \
	VPSCATTERDD Z16, K1, (DI)(Z17*4)
