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

// func fillPlaneAVX2(a *planeArgs, xt2, yt2 *float64)
TEXT ·fillPlaneAVX2(SB), NOSPLIT, $64-24
	MOVQ a+0(FP), DI
	MOVQ planeArgs_dst(DI), R8       // current output row
	MOVQ xt2+8(FP), SI
	MOVQ yt2+16(FP), DX              // current row term
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

// Register plan of the eight-lane body. Per call: Z16 Z17 the column terms
// (columns 0–7, 8–15), Z18 Z19 the row terms (rows 0–7, 8–15), formed from
// the element coordinates and garbage past the plane's axes, where no
// permute index reaches; Z29 Z30 sx, sy while they are formed; Z20 zz,
// Z21 0.5, Z22 1.0, Z23 prodHalf and Z25 prodShift (qwords), Z24 2^ArgFrac,
// Y26 txRaw, Y27 outHalf and Y28 outShift (dwords); K3 the last group's
// store mask. The shifts take per-lane counts: one uop, where a count in
// an XMM register costs two. Per group: Z0 the arguments, Z1/Z2/Z3 each
// lane's LoRaw/C1/V0, Z4 Y5 scratch, K1 K2 the select and round masks.

// GROUP8 leaves in Y4 the eight int32 sample indices of the group at DX,
// before the saturating pack; sel and round are the labels of this
// expansion. The stages are GROUP's and INDEX's, with:
//
//   - the terms gathered by VPERMI2PD: the group's column (row) indices
//     pick from the two column (row) term registers, so α = (xt2 + yt2) +
//     zz keeps DelaySamples' order;
//   - segment select: α ≥ Lo[j] compares into K1 against an embedded
//     broadcast, and three masked broadcasts replace the lanes' operands;
//   - rounding: VRNDSCALEPD floor, +1.0 under the GE_OQ half mask, and a
//     direct float64 → int64 conversion;
//   - Index on the low dwords of the qword results (VPMOVQD), which the
//     lane proof keeps inside int32.
#define GROUP8(sel, round) \
	VMOVDQU64    0(DX), Z0; \
	VMOVDQU64    64(DX), Z4; \
	VPERMI2PD    Z17, Z16, Z0; \
	VPERMI2PD    Z19, Z18, Z4; \
	VADDPD       Z4, Z0, Z0; \
	VADDPD       Z20, Z0, Z0; \
	TESTQ        R12, R12; \
	JZ           round; \
	VPBROADCASTQ SEG_LORAW(BX), Z1; \
	VPBROADCASTQ SEG_C1(BX), Z2; \
	VPBROADCASTQ SEG_V0(BX), Z3; \
	MOVQ         $SEG_SIZE, CX; \
sel: \
	VCMPPD.BCST  $0x1D, SEG_LO(BX)(CX*1), Z0, K1; \
	VPBROADCASTQ SEG_LORAW(BX)(CX*1), K1, Z1; \
	VPBROADCASTQ SEG_C1(BX)(CX*1), K1, Z2; \
	VPBROADCASTQ SEG_V0(BX)(CX*1), K1, Z3; \
	ADDQ         $SEG_SIZE, CX; \
	CMPQ         CX, R12; \
	JLE          sel; \
round: \
	VMULPD       Z24, Z0, Z0; \
	VRNDSCALEPD  $1, Z0, Z4; \
	VSUBPD       Z4, Z0, Z0; \
	VCMPPD       $0x1D, Z21, Z0, K2; \
	VADDPD       Z22, Z4, K2, Z4; \
	VCVTTPD2QQ   Z4, Z4; \
	VPSUBQ       Z1, Z4, Z4; \
	VPMULUDQ     Z2, Z4, Z4; \
	VPADDQ       Z23, Z4, Z4; \
	VPSRLVQ      Z25, Z4, Z4; \
	VPADDQ       Z3, Z4, Z4; \
	VPMOVQD      Z4, Y4; \
	VPADDD       Y26, Y4, Y4; \
	VPSRAD       $31, Y4, Y5; \
	VPADDD       Y27, Y4, Y4; \
	VPADDD       Y5, Y4, Y4; \
	VPSRAVD      Y28, Y4, Y4

// func fillPlaneAVX512(a *planeArgs)
TEXT ·fillPlaneAVX512(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ planeArgs_dst(DI), R8       // the current group's first slot
	MOVQ planeArgs_groups(DI), DX    // the current group's permute indices
	MOVQ planeArgs_ops(DI), BX       // the voxel's lowest segment
	MOVQ planeArgs_full(DI), R10     // full groups left
	MOVQ planeArgs_nExtra(DI), R12
	IMUL3Q $SEG_SIZE, R12, R12       // byte offset of the voxel's highest segment

	// The terms (s − e)², planeTerms' two IEEE operations and no FMA, from
	// masked, zeroing loads of the element coordinates.
	MOVQ planeArgs_elemX(DI), SI
	VBROADCASTSD planeArgs_sx(DI), Z29
	KMOVW planeArgs_xMask(DI), K1
	VMOVUPD.Z (SI), K1, Z16
	KSHIFTRW $8, K1, K1
	VMOVUPD.Z 64(SI), K1, Z17
	VSUBPD Z16, Z29, Z16
	VSUBPD Z17, Z29, Z17
	VMULPD Z16, Z16, Z16
	VMULPD Z17, Z17, Z17
	MOVQ planeArgs_elemY(DI), SI
	VBROADCASTSD planeArgs_sy(DI), Z30
	KMOVW planeArgs_yMask(DI), K1
	VMOVUPD.Z (SI), K1, Z18
	KSHIFTRW $8, K1, K1
	VMOVUPD.Z 64(SI), K1, Z19
	VSUBPD Z18, Z30, Z18
	VSUBPD Z19, Z30, Z19
	VMULPD Z18, Z18, Z18
	VMULPD Z19, Z19, Z19
	KMOVW planeArgs_last(DI), K3

	VBROADCASTSD planeArgs_zz(DI), Z20
	MOVQ $0x3FE0000000000000, AX     // 0.5
	VPBROADCASTQ AX, Z21
	MOVQ $0x3FF0000000000000, AX     // 1.0
	VPBROADCASTQ AX, Z22
	VPBROADCASTQ planeArgs_prodHalf(DI), Z23
	VBROADCASTSD planeArgs_argScale(DI), Z24
	VPBROADCASTD planeArgs_txRaw(DI), Y26    // low dword: |txRaw| < 2^30
	VPBROADCASTD planeArgs_outHalf(DI), Y27  // low dword: outHalf < 2^30
	VPBROADCASTQ planeArgs_prodShift(DI), Z25
	VPBROADCASTD planeArgs_outShift(DI), Y28 // low dword: outHalf < 2^30, so outShift ≤ 31

	// Every lane starts on the voxel's lowest segment.
	VPBROADCASTQ SEG_LORAW(BX), Z1
	VPBROADCASTQ SEG_C1(BX), Z2
	VPBROADCASTQ SEG_V0(BX), Z3

	TESTQ R10, R10
	JZ    tail

full:
	GROUP8(selF, roundF)
	VPMOVSDW Y4, (R8)
	ADDQ $128, DX
	ADDQ $16, R8
	DECQ R10
	JNZ  full

tail:
	KORTESTW K3, K3
	JZ       done
	// The slots past the plane computed column 0 of row 0; K3 drops them.
	GROUP8(selT, roundT)
	VPMOVSDW Y4, K3, (R8)

done:
	VZEROUPPER
	RET
