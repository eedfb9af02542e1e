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

// Register plan. Per call: Y15 zz, Y13 0.5, Y12 txOut (dwords: the
// voxel's transmit leg plus the index rounding half), Y11 prodHalf
// (qwords), Y10 2^ArgFrac, X8 prodShift, X7 outShift. Per row: Y14 yt2.
// Per four-column group: Y0 the arguments, Y1/Y2/Y3 each lane's
// LoRaw/C1/V0, Y4 Y5 scratch; Y6 parks a pair's first group until the
// second joins it for the eight-lane Index stage.

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
//   - t = ⌊fl(α·2^ArgFrac + 0.5)⌋: the product is exact, the add rounds
//     once, and the guard's α ≥ Lanes.ArgMin makes the floor roundNonNeg;
//     the sum is at least 1, so the truncating conversion is the floor;
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
	VADDPD       Y13, Y0, Y0; \
	VCVTTPD2DQY  Y0, X4; \
	VPMOVZXDQ    X4, Y4; \
	VPSUBQ       Y1, Y4, Y4; \
	VPMULUDQ     Y2, Y4, Y4; \
	VPADDQ       Y11, Y4, Y4; \
	VPSRLQ       X8, Y4, Y4; \
	VPADDQ       Y3, Y4, Y4

// INDEX is the Index stage on the eight int32 lanes of Y0, laid out
// [g0 g1 h0 h1 | g2 g3 h2 h3]: add the transmit leg and the rounding half
// (txOut), shift — the lane proof's V0 ≥ 0 and the guard's tx ≥ 0 keep
// the sum non-negative, so the shift needs no sign fix — saturate to int16
// and leave g0…g3 h0…h3 in X0. Clobbers Y5.
#define INDEX \
	VPADDD       Y12, Y0, Y0; \
	VPSRLD       X7, Y0, Y0; \
	VPACKSSDW    Y0, Y0, Y0; \
	VEXTRACTI128 $1, Y0, X5; \
	VPUNPCKLDQ   X5, X0, X0

// func fillPlaneAVX2(a *planeArgs, xt2, yt2 *float64)
TEXT ·fillPlaneAVX2(SB), NOSPLIT, $0-24
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
	VPBROADCASTD planeArgs_txOut(DI), Y12    // low dword: 0 < txOut < 2^31
	VPBROADCASTQ planeArgs_prodHalf(DI), Y11
	VBROADCASTSD planeArgs_argScale(DI), Y10
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
// Z21 0.5, Z24 2^ArgFrac, and in qwords Z23 prodHalf, Z25 prodShift, Z26
// txOut (the voxel's transmit leg plus the index rounding half) and Z28
// outShift; K3 the last group's store mask. The shifts take per-lane
// counts: one uop, where a count in an XMM register costs two. Per group:
// Z0 the arguments, Z1/Z2/Z3 each lane's LoRaw/C1/V0, Z4 scratch, K1 the
// select mask.

// GROUP8 leaves in Z4 the eight int64 sample indices of the group at DX,
// before the saturating pack; sel and round are the labels of this
// expansion. The stages are GROUP's and INDEX's, with:
//
//   - the terms gathered by VPERMI2PD: the group's column (row) indices
//     pick from the two column (row) term registers, so α = (xt2 + yt2) +
//     zz keeps DelaySamples' order;
//   - segment select: α ≥ Lo[j] compares into K1 against an embedded
//     broadcast, and three masked broadcasts replace the lanes' operands;
//   - rounding: one fused multiply-add forms fl(α·2^ArgFrac + 0.5) — the
//     product is exact, so its one rounding is the add's — and a
//     round-down conversion (RD_SAE) takes its floor straight to int64;
//   - Index on the qword results: add txOut and shift right, logical on
//     the sum the guard keeps non-negative; the store saturates.
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
	VFMADD213PD      Z21, Z24, Z0; \
	VCVTPD2QQ.RD_SAE Z0, Z4; \
	VPSUBQ           Z1, Z4, Z4; \
	VPMULUDQ         Z2, Z4, Z4; \
	VPADDQ           Z23, Z4, Z4; \
	VPSRLVQ          Z25, Z4, Z4; \
	VPADDQ           Z3, Z4, Z4; \
	VPADDQ           Z26, Z4, Z4; \
	VPSRLVQ          Z28, Z4, Z4

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
	VPBROADCASTQ planeArgs_prodHalf(DI), Z23
	VBROADCASTSD planeArgs_argScale(DI), Z24
	VPBROADCASTQ planeArgs_prodShift(DI), Z25
	VPBROADCASTQ planeArgs_txOut(DI), Z26
	VPBROADCASTQ planeArgs_outShift(DI), Z28

	// Every lane starts on the voxel's lowest segment.
	VPBROADCASTQ SEG_LORAW(BX), Z1
	VPBROADCASTQ SEG_C1(BX), Z2
	VPBROADCASTQ SEG_V0(BX), Z3

	TESTQ R10, R10
	JZ    tail

full:
	GROUP8(selF, roundF)
	VPMOVSQW Z4, (R8)
	ADDQ $128, DX
	ADDQ $16, R8
	DECQ R10
	JNZ  full

tail:
	KORTESTW K3, K3
	JZ       done
	// The slots past the plane computed column 0 of row 0; K3 drops them.
	GROUP8(selT, roundT)
	VPMOVSQW Z4, K3, (R8)

done:
	VZEROUPPER
	RET
