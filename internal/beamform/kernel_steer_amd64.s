//go:build amd64 && !purego

#include "textflag.h"
#include "kernel_tile_amd64.h"

// One 8-element group at element offset AX of the current voxel: the steered
// sums v = ry + xt, rounded to selection indices (v + half + v>>31) >> frac
// exactly as tablesteer's steerRow rounds them, then the i16 body's group —
// clamp to win (the guard slot; a negative index is ≥ 2^31 unsigned), add
// the row offsets, gather the sample dwords, multiply the low words by the
// weights, shift each product, accumulate. VPGATHERDD consumes its mask,
// hence the VPCMPEQD per gather.
#define SGROUP(off4, idx, sgn, mask, smp, acc) \
	VMOVDQU    off4(SI)(AX*4), idx; \
	VPADDD     off4(R14)(AX*4), idx, idx; \
	VPSRAD     $31, idx, sgn; \
	VPADDD     Y13, idx, idx; \
	VPADDD     sgn, idx, idx; \
	VPSRAD     X12, idx, idx; \
	VPMINUD    Y15, idx, idx; \
	VPADDD     off4(DX)(AX*4), idx, idx; \
	VPCMPEQD   mask, mask, mask; \
	VPGATHERDD mask, (BX)(idx*2), smp; \
	VPMADDWD   off4(CX)(AX*4), smp, smp; \
	VPSRAD     X14, smp, smp; \
	VPADDD     smp, acc, acc

// func gatherMaddSteerAVX2(acc []int32, ry, xt, xoff []int32, plane []int16, ro []int32, wq []uint32, nE, nVec int, win, sh uint32, half int32, frac uint32)
TEXT ·gatherMaddSteerAVX2(SB), NOSPLIT, $0-200
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), R8       // voxels left
	MOVQ ry_base+24(FP), SI      // this voxel's ry row
	MOVQ xt_base+48(FP), R12
	MOVQ xoff_base+72(FP), R13   // this voxel's x offset
	MOVQ plane_base+96(FP), BX
	MOVQ ro_base+120(FP), DX
	MOVQ wq_base+144(FP), CX
	MOVQ nE+168(FP), R9
	MOVQ nVec+176(FP), R10      // elements in the vector range
	MOVL win+184(FP), AX
	VMOVD AX, X15
	VPBROADCASTD X15, Y15        // the clamp bound in every lane
	MOVL sh+188(FP), AX
	VMOVD AX, X14                // the per-product shift count
	MOVL half+192(FP), AX
	VMOVD AX, X13
	VPBROADCASTD X13, Y13        // the rounding bias in every lane
	MOVL frac+196(FP), AX
	VMOVD AX, X12                // the rounding shift count

	TESTQ R8, R8
	JZ    done
	SHLQ $2, R9                  // bytes between consecutive voxels' ry rows
	MOVQ R10, R11
	ANDQ $-16, R11               // R11 = elements the 16-wide loop covers

voxel:
	MOVLQSX (R13), R14
	LEAQ    (R12)(R14*4), R14    // this voxel's tiled x row
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	XORQ  AX, AX
	CMPQ  AX, R11
	JGE   rem8

loop16:
	SGROUP(0, Y2, Y8, Y4, Y6, Y0)
	SGROUP(32, Y3, Y9, Y5, Y7, Y1)
	ADDQ $16, AX
	CMPQ AX, R11
	JLT  loop16

rem8:
	CMPQ AX, R10
	JGE  hsum
	SGROUP(0, Y2, Y8, Y4, Y6, Y0)

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
	ADDQ $4, R13
	ADDQ R9, SI
	DECQ R8
	JNZ  voxel

done:
	VZEROUPPER
	RET

// The fused AVX-512 tile body: tileMaddI16AVX512 with the delay-row loads
// replaced by rows computed from the steer operands (STEER_LOAD_ROWS), so
// the block never exists. Front end and fixed-point back end are
// kernel_tile_amd64.h. Frame: the tile's sixteen ry row addresses at
// 0(SP), the next tile's XT row addresses at 128(SP), the back end's window
// starts at 256(SP) and masks at 320(SP), the tile's XT row addresses at
// 448(SP). Per call beyond the header's plan: Z24 half and Z25 frac
// (dwords); per tile R9 the tile's row offsets.

// func tileMaddSteerAVX512(row []int32, ry, xt []int32, plane []int16, tiles, offs []int32, ro []int32, wpair []uint32, grp []uint16, win, sh uint32, lastLen uint16, half int32, frac uint32) int
TEXT ·tileMaddSteerAVX512(SB), 0, $576-248
	MOVQ  row_base+0(FP), DI
	MOVQ  plane_base+72(FP), BX
	MOVQ  tiles_base+96(FP), R8
	MOVQ  tiles_len+104(FP), R10
	SHRQ  $4, R10                // tiles left
	MOVQ  offs_base+120(FP), R9
	MOVL  half+228(FP), AX
	VPBROADCASTD AX, Z24
	MOVL  frac+232(FP), AX
	VPBROADCASTD AX, Z25
	MOVL  sh+220(FP), CX
	MOVL  win+216(FP), DX
	MOVWLZX lastLen+224(FP), R11
	TILE_I16_CONSTS

	TESTQ R10, R10
	JZ    done

tile:
	VPBROADCASTQ ry_base+24(FP), Z22
	VPBROADCASTQ xt_base+48(FP), Z23
	STEER_ADDRS
	VPXORD    Z22, Z22, Z22
	VPXORD    Z23, Z23, Z23
	MOVQ      ro_base+144(FP), DX
	MOVQ      wpair_base+168(FP), CX
	MOVQ      grp_base+192(FP), R11
	MOVQ      grp_len+200(FP), R12
	XORQ      R13, R13

group:
	MOVWLZX (R11), AX
	TESTL   AX, AX
	JZ      nextgroup
	KMOVW   AX, K6
	STEER_LOAD_ROWS(full, short, loaded)
	TILE_I16_GROUP(done, nextgroup)

nextgroup:
	TILE_I16_NEXT_GROUP(4)
	JNZ  group

	TILE_I16_STORE
	ADDQ $64, R8
	ADDQ $128, R9
	DECQ R10
	JNZ  tile

done:
	MOVQ tiles_len+104(FP), AX
	SHRQ $4, AX
	SUBQ R10, AX
	MOVQ AX, ret+240(FP)
	VZEROUPPER
	RET
