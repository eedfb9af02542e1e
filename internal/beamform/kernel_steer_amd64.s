//go:build amd64 && !purego

#include "textflag.h"

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
