//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// sqrtapprox.SegOp field offsets and size (pinned by TestSegOpLayout): the
// body walks the datapath's own operand table, one broadcast per field.
#define SEG_LO    0
#define SEG_LORAW 16
#define SEG_C1    24
#define SEG_V0    32
#define SEG_SIZE  40

// Register plan. Per call: Y15 zz, Y13 0.5, Y12 1.0, Y11 prodHalf (qwords),
// Y10 2^ArgFrac, X8 prodShift, X7 outShift; txRaw and outHalf, used once
// per eight slots, sit broadcast in the frame (TX, OUTHALF). Per row: Y14
// yt2. Per four-column group: Y0 the arguments, Y1/Y2/Y3 each lane's
// LoRaw/C1/V0, Y4 Y5 scratch; Y6 parks a pair's first group until the
// second joins it for the eight-lane Index stage.
#define TX      0(SP)
#define OUTHALF 32(SP)

// GROUP leaves in Y4's qwords the raw receive results (Raw, OutFrac units)
// of the four columns at byte offset off past column AX; sel and round are
// the labels of this expansion. In order:
//
//   - α = (xt2 + yt2) + zz, DelaySamples' association order;
//   - segment select: every lane starts on the voxel's lowest segment (Y1–Y3
//     as the call set them; a voxel inside one segment — most are — skips
//     the rest), then each higher segment the voxel reaches replaces, from
//     a fresh broadcast of the lowest, the operands of the lanes at or past
//     its start: α ≥ Lo[j] (GE_OQ) and three blends;
//   - t = roundNonNeg(α·2^ArgFrac): floor, then +1.0 where the (exact)
//     discarded fraction reaches one half;
//   - Raw: t < 2^31 converts exactly; (t − LoRaw)·C1 is an unsigned 32×32
//     multiply of proven-non-negative operands, so the rounding shift is
//     logical; V0 is signed and the qword add carries it.
#define GROUP(off, sel, round) \
	VMOVUPD      off(SI)(AX*8), Y0; \
	VADDPD       Y14, Y0, Y0; \
	VADDPD       Y15, Y0, Y0; \
	TESTQ        R12, R12; \
	JZ           round; \
	VPBROADCASTQ SEG_LORAW(BX), Y1; \
	VPBROADCASTQ SEG_C1(BX), Y2; \
	VPBROADCASTQ SEG_V0(BX), Y3; \
	MOVQ         $SEG_SIZE, CX; \
sel: \
	VBROADCASTSD SEG_LO(BX)(CX*1), Y4; \
	VCMPPD       $0x1D, Y4, Y0, Y4; \
	VPBROADCASTQ SEG_LORAW(BX)(CX*1), Y5; \
	VBLENDVPD    Y4, Y5, Y1, Y1; \
	VPBROADCASTQ SEG_C1(BX)(CX*1), Y5; \
	VBLENDVPD    Y4, Y5, Y2, Y2; \
	VPBROADCASTQ SEG_V0(BX)(CX*1), Y5; \
	VBLENDVPD    Y4, Y5, Y3, Y3; \
	ADDQ         $SEG_SIZE, CX; \
	CMPQ         CX, R12; \
	JLE          sel; \
round: \
	VMULPD       Y10, Y0, Y0; \
	VROUNDPD     $1, Y0, Y4; \
	VSUBPD       Y4, Y0, Y0; \
	VCMPPD       $0x1D, Y13, Y0, Y0; \
	VANDPD       Y12, Y0, Y0; \
	VADDPD       Y0, Y4, Y4; \
	VCVTTPD2DQY  Y4, X4; \
	VPMOVZXDQ    X4, Y4; \
	VPSUBQ       Y1, Y4, Y4; \
	VPMULUDQ     Y2, Y4, Y4; \
	VPADDQ       Y11, Y4, Y4; \
	VPSRLQ       X8, Y4, Y4; \
	VPADDQ       Y3, Y4, Y4

// INDEX is the Index stage on the eight int32 lanes of Y0, laid out
// [g0 g1 h0 h1 | g2 g3 h2 h3]: add the transmit leg, round to a sample
// (+half, −1 for negatives, arithmetic shift), saturate to int16 and leave
// g0…g3 h0…h3 in X0. Clobbers Y5.
#define INDEX \
	VPADDD       TX, Y0, Y0; \
	VPSRAD       $31, Y0, Y5; \
	VPADDD       OUTHALF, Y0, Y0; \
	VPADDD       Y5, Y0, Y0; \
	VPSRAD       X7, Y0, Y0; \
	VPACKSSDW    Y0, Y0, Y0; \
	VEXTRACTI128 $1, Y0, X5; \
	VPUNPCKLDQ   X5, X0, X0

// func fillPlaneAVX2(a *planeArgs)
TEXT ·fillPlaneAVX2(SB), NOSPLIT, $64-8
	MOVQ a+0(FP), DI
	MOVQ planeArgs_dst(DI), R8       // current output row
	MOVQ planeArgs_xt2(DI), SI
	MOVQ planeArgs_yt2(DI), DX       // current row term
	MOVQ planeArgs_ops(DI), BX       // the voxel's lowest segment
	MOVQ planeArgs_nx(DI), R9
	SHLQ $1, R9                      // bytes per output row
	MOVQ planeArgs_nVec(DI), R10
	MOVQ R10, R13
	ANDQ $-8, R13                    // columns the paired loop covers
	MOVQ planeArgs_ny(DI), R11       // rows left
	MOVQ planeArgs_nExtra(DI), R12
	IMUL3Q $SEG_SIZE, R12, R12       // byte offset of the voxel's highest segment

	VBROADCASTSD planeArgs_zz(DI), Y15
	MOVQ $0x3FE0000000000000, AX     // 0.5
	VMOVQ AX, X13
	VBROADCASTSD X13, Y13
	MOVQ $0x3FF0000000000000, AX     // 1.0
	VMOVQ AX, X12
	VBROADCASTSD X12, Y12
	VPBROADCASTQ planeArgs_prodHalf(DI), Y11
	VBROADCASTSD planeArgs_argScale(DI), Y10
	VPBROADCASTD planeArgs_txRaw(DI), Y0     // low dword: |txRaw| < 2^30
	VMOVDQU Y0, TX
	VPBROADCASTD planeArgs_outHalf(DI), Y0   // low dword: outHalf < 2^30
	VMOVDQU Y0, OUTHALF
	VMOVQ planeArgs_prodShift(DI), X8
	VMOVQ planeArgs_outShift(DI), X7

	// Every lane starts on the voxel's lowest segment.
	VPBROADCASTQ SEG_LORAW(BX), Y1
	VPBROADCASTQ SEG_C1(BX), Y2
	VPBROADCASTQ SEG_V0(BX), Y3

row:
	VBROADCASTSD (DX), Y14
	XORQ AX, AX                      // column
	CMPQ AX, R13
	JGE  single

pair:
	GROUP(0, selA, roundA)
	VMOVDQA Y4, Y6
	GROUP(32, selB, roundB)
	// Low dwords of the two groups' qwords: [a0 a1 b0 b1 | a2 a3 b2 b3].
	VSHUFPS $0x88, Y4, Y6, Y0
	INDEX
	VMOVDQU X0, (R8)(AX*2)
	ADDQ $8, AX
	CMPQ AX, R13
	JLT  pair

single:
	CMPQ AX, R10
	JGE  rowdone
	// A last unpaired group joins itself; the low four results are its own.
	GROUP(0, selS, roundS)
	VSHUFPS $0x88, Y4, Y4, Y0
	INDEX
	VMOVQ X0, (R8)(AX*2)

rowdone:
	ADDQ $8, DX
	ADDQ R9, R8
	DECQ R11
	JNZ  row
	VZEROUPPER
	RET
