//go:build amd64 && !purego

#include "textflag.h"

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
