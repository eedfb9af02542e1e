//go:build amd64 && !purego

#include "textflag.h"

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
