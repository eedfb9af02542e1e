//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// sqrtapprox.SegOp field offsets and size (pinned by TestSegOpLayout): the
// body walks the datapath's own operand table, one broadcast per field.
#define SEG_LO    0
#define SEG_HI    8
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

// Register plan of the eight-lane body. Per call: Z22 Z27 the element
// columns (0–7, 8–15), Z29 Z30 the element rows, zero past the plane's
// axes; Z21 0.5, Z24 2^ArgFrac, and in qwords Z23 prodHalf, Z25 prodShift
// and Z28 outShift; Z31 all ones; X15 ArgMax; K4 K5 the column lanes
// (xMask), K6 K7 the row lanes (yMask), K3 the last group's store mask.
// The shifts take per-lane counts: one uop, where a count in an XMM
// register costs two. SI the voxel, BX its plane, CX its refusal bit, R13
// the carried segment cursor (a *SegOp), R11 the refusal mask, R9 the
// voxels left. Per voxel: Z16 Z17 the column terms, Z18 Z19 the row terms
// (garbage past the axes, where no permute index reaches and the extremes'
// masks drop them), Z5–Z14 the extremes' scratch, Z20 zz, Z26 txOut (the
// transmit leg plus the index rounding half), R12 the byte offset of the
// highest segment from the lowest. Per group: Z0 the arguments, Z1/Z2/Z3 each lane's LoRaw/C1/V0,
// Z4 scratch, K1 the select mask, DX the permute indices, R8 the slots.

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
	VPBROADCASTQ SEG_LORAW(R13), Z1; \
	VPBROADCASTQ SEG_C1(R13), Z2; \
	VPBROADCASTQ SEG_V0(R13), Z3; \
	MOVQ         $SEG_SIZE, AX; \
sel: \
	VCMPPD.BCST  $0x1D, SEG_LO(R13)(AX*1), Z0, K1; \
	VPBROADCASTQ SEG_LORAW(R13)(AX*1), K1, Z1; \
	VPBROADCASTQ SEG_C1(R13)(AX*1), K1, Z2; \
	VPBROADCASTQ SEG_V0(R13)(AX*1), K1, Z3; \
	ADDQ         $SEG_SIZE, AX; \
	CMPQ         AX, R12; \
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

// TERMS forms (s − e)², planeTerms' two IEEE operations and no FMA, from
// the coordinate at off(SI) and the element registers lo and hi into tlo
// and thi. Clobbers Z5.
#define TERMS(off, lo, hi, tlo, thi) \
	VBROADCASTSD off(SI), Z5; \
	VSUBPD       lo, Z5, tlo; \
	VSUBPD       hi, Z5, thi; \
	VMULPD       tlo, tlo, tlo; \
	VMULPD       thi, thi, thi

// REDUCE folds the eight qwords of x and of y with op (VPMINUQ or
// VPMAXUQ), leaving x's result in every qword of Zd's low half and y's in
// every qword of its high half. Clobbers Z14.
#define REDUCE(op, x, y, Zd) \
	VSHUFI64X2 $0x44, y, x, Zd; \
	VSHUFI64X2 $0xEE, y, x, Z14; \
	op         Z14, Zd, Zd; \
	VPERMQ     $0x4E, Zd, Z14; \
	op         Z14, Zd, Zd; \
	VPSHUFD    $0x4E, Zd, Z14; \
	op         Z14, Zd, Zd

// func fillVoxelsAVX512(a *planeArgs, vox *voxel, n int, refused uint64) uint64
TEXT ·fillVoxelsAVX512(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), DI
	MOVQ vox+8(FP), SI
	MOVQ n+16(FP), R9
	MOVQ refused+24(FP), R11
	MOVQ planeArgs_dst(DI), BX
	MOVQ planeArgs_ops(DI), R13
	MOVQ $1, CX

	// The element coordinates, from masked, zeroing loads.
	MOVQ planeArgs_elemX(DI), AX
	KMOVW planeArgs_xMask(DI), K4
	KSHIFTRW $8, K4, K5
	VMOVUPD.Z (AX), K4, Z22
	VMOVUPD.Z 64(AX), K5, Z27
	MOVQ planeArgs_elemY(DI), AX
	KMOVW planeArgs_yMask(DI), K6
	KSHIFTRW $8, K6, K7
	VMOVUPD.Z (AX), K6, Z29
	VMOVUPD.Z 64(AX), K7, Z30
	KMOVW planeArgs_last(DI), K3

	MOVQ $0x3FE0000000000000, AX     // 0.5
	VPBROADCASTQ AX, Z21
	VPBROADCASTQ planeArgs_prodHalf(DI), Z23
	VBROADCASTSD planeArgs_argScale(DI), Z24
	VPBROADCASTQ planeArgs_prodShift(DI), Z25
	VPBROADCASTQ planeArgs_outShift(DI), Z28
	VPTERNLOGQ $0xFF, Z31, Z31, Z31
	VMOVSD planeArgs_argMax(DI), X15

voxel:
	TESTQ CX, R11
	JNZ   next

	TERMS(voxel_sx, Z22, Z27, Z16, Z17)
	TERMS(voxel_sy, Z29, Z30, Z18, Z19)

	// The extremes over the plane's lanes: the unsigned min (max) of the
	// bit patterns, lanes past an axis replaced by all ones (zero).
	VPBLENDMQ   Z16, Z31, K4, Z6
	VPMINUQ     Z17, Z6, K5, Z6
	VPBLENDMQ   Z18, Z31, K6, Z8
	VPMINUQ     Z19, Z8, K7, Z8
	VMOVDQU64.Z Z16, K4, Z7
	VPMAXUQ     Z17, Z7, K5, Z7
	VMOVDQU64.Z Z18, K6, Z9
	VPMAXUQ     Z19, Z9, K7, Z9
	REDUCE(VPMINUQ, Z6, Z8, Z10)
	REDUCE(VPMAXUQ, Z7, Z9, Z12)

	// [xlo xhi | ylo yhi] → [amin amax], DelaySamples' association order.
	VUNPCKLPD     Z12, Z10, Z10
	VEXTRACTF64X4 $1, Z10, Y11
	VADDPD        X11, X10, X10
	VBROADCASTSD  voxel_zz(SI), Z20
	VADDPD        X20, X10, X10
	VPERMILPD     $1, X10, X11

	// The guard: amin ≥ ArgMin and ArgMax ≥ amax, each false on a NaN
	// (unordered sets CF).
	VUCOMISD planeArgs_argMin(DI), X10
	JCS      refuse
	VUCOMISD X11, X15
	JCS      refuse

	// Walk the cursor to amin's segment: up while amin ≥ Hi, down while
	// amin < Lo. amax ≥ amin ≥ that segment's Lo (at segment 0 by the lane
	// proof's Lo[0] ≤ 0 < ArgMin), so its segment is only ever above.
	MOVQ planeArgs_opsLast(DI), AX
up:
	CMPQ     R13, AX
	JEQ      down
	VUCOMISD SEG_HI(R13), X10
	JCS      down
	ADDQ     $SEG_SIZE, R13
	JMP      up
down:
	CMPQ     R13, planeArgs_opsBase(DI)
	JEQ      walked
	VUCOMISD SEG_LO(R13), X10
	JCC      walked
	SUBQ     $SEG_SIZE, R13
	JMP      down
walked:
	MOVQ R13, R12
highest:
	CMPQ     R12, AX
	JEQ      spanned
	VUCOMISD SEG_HI(R12), X11
	JCS      spanned
	ADDQ     $SEG_SIZE, R12
	JMP      highest
spanned:
	SUBQ R13, R12

	MOVQ voxel_txRaw(SI), AX
	ADDQ planeArgs_outHalf(DI), AX
	VPBROADCASTQ AX, Z26
	// Every lane starts on the voxel's lowest segment.
	VPBROADCASTQ SEG_LORAW(R13), Z1
	VPBROADCASTQ SEG_C1(R13), Z2
	VPBROADCASTQ SEG_V0(R13), Z3
	MOVQ planeArgs_groups(DI), DX
	MOVQ BX, R8
	MOVQ planeArgs_full(DI), R10
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
	JZ       next
	// The slots past the plane computed column 0 of row 0; K3 drops them.
	GROUP8(selT, roundT)
	VPMOVSQW Z4, K3, (R8)
	JMP      next

refuse:
	ORQ CX, R11

next:
	ADDQ planeArgs_stride(DI), BX
	ADDQ $voxel__size, SI
	SHLQ $1, CX
	DECQ R9
	JNZ  voxel

	MOVQ R13, planeArgs_ops(DI)
	MOVQ R11, ret+32(FP)
	VZEROUPPER
	RET
