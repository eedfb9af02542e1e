// The i16 fixed-point accumulate. The paper's §V-B hardware moves narrow
// words end to end — 14-bit delay indices select narrow echo samples that
// sum in 18-bit accumulator words. PrecisionInt16 does the same on machine
// registers: echo samples stay int16 (2 B/sample, the ADC-native width, a
// quarter of the golden kernel's echo traffic), the gather multiplies them
// by Q15 fixed-point apodization weights, and accumulation runs in one
// int32 register per lane.
//
// # Saturation analysis (vs the paper's 18-bit accumulator words)
//
// The paper sizes its accumulators at 18 bits for narrow ADC words summed
// over an aperture — the accumulator carries log2(elements) bits of growth
// above the sample width. The software form has the same shape with wider
// machine words:
//
//   - samples are int16: |s| ≤ 32767 < 2^15
//   - weights quantize to signed Q15 (|wq| ≤ 32767 against wqScale =
//     max|w|/32767), so every widened product |s·wq| < 2^30 fits int32
//     exactly — no product can overflow before the shift
//   - each product is arithmetically right-shifted by preShift before the
//     add, and preShift is the smallest shift for which the worst-case
//     magnitude sum Σ_j |wq_j|·32767 >> preShift stays within i16AccBound
//     (2^30, half the int32 range — one spare bit of headroom, mirroring
//     the hardware's guard bit)
//
// With that bound, no input whatsoever — every sample pinned at ±32767
// with signs aligned to the weights — can overflow the accumulator, so the
// kernel needs no per-add saturation logic: the analysis is done once per
// engine in initI16 instead of once per sample in silicon. For the Table I
// aperture (256 active elements, Hann-weighted) preShift lands around 7,
// which keeps ~23 significant bits through the sum — comfortably above the
// 60 dB PSNR gate, and the truncation the shift discards is bounded by
// active-elements·2^preShift against a ~2^30 full-scale sum (≈ −90 dB).
// Apertures whose worst case cannot fit even at preShift = 15 set
// i16OK = false and the session demotes those frames to the exact float64
// kernel, so correctness never depends on the aperture.
//
// A finished voxel leaves the integer domain once: float64(acc) · scale,
// where the caller's scale folds the frame's quantization step, wqScale
// and 2^preShift back together (Engine.i16VoxelScale). Because every
// operation before that point is integer arithmetic, the vector bodies and
// the scalar golden are bit-identical — not PSNR-close — which is the
// property the kernel_i16 tests assert.
//
// # The three bodies
//
// accumulateNappe16I16 has exactly three bodies, chosen by build tag plus
// the CPUID/XGETBV probes at init (no option selects between them):
//
//   - accumulateNappe16I16Ref (this file, always compiled) is the scalar
//     golden: the whole kernel on purego and non-amd64 builds
//     (kernel_i16_generic.go) and on amd64 hosts without AVX2
//   - gatherMaddI16AVX2 (kernel_i16_amd64.s, build amd64 && !purego) is the
//     AVX2 gather body: per voxel it walks the aperture eight elements per
//     instruction over the unchanged voxel-major Block16 layout —
//     VPMOVZXWD eight delays, VPMINUD clamp into the guard slot, VPADDD the
//     row-offset table, VPGATHERDD from the guarded plane, VPMADDWD against
//     the weight table, VPSRAD preShift per product exactly as the
//     reference, VPADDD — and leaves one int32 per voxel in a per-worker
//     row that the Go wrapper (kernel_i16_amd64.go) rescales in store or
//     add mode
//   - tileMaddI16AVX512 (same files, hosts with AVX-512 F, DQ, BW and VL)
//     is the gather-free tile body: it walks the nappe in 16-voxel tiles
//     along a snake (delay.Layout.SnakeTiles), and per element loads the
//     one short window of its echo row that the tile's delays select from
//     and picks each voxel's sample with a word permute. A tile whose
//     delays some apodized element's window cannot serve (a span above 63
//     samples, or an index past win) is handed back and runs through the
//     AVX2 body
//
// Memory safety lives in the Go wrapper, not the assembly: it checks
// block, plane, table, tile list and row lengths before the call. Each
// gather reads a dword — the sample plus the int16 after it — so the AVX2
// body stops short of the aperture's last element, whose guard slot is the
// last int16 of the plane; the wrapper sums the remaining ≤ 8 elements in
// scalar Go into the same int32. Zero-extending a delay maps negatives to
// ≥ 32768, which the unsigned clamp routes to the guard slot only while
// win ≤ delay.MaxEchoWindow — a precondition the wrapper checks. The tile
// body's window loads are masked to the samples between an element's
// smallest and largest delay, both at most win, so they never leave the
// element's row.
//
// The body this replaced was the reference hand-unrolled 8 wide in Go and
// documented as register-resident; its disassembly showed ≈30 scalar
// instructions per sample, three bounds-check branches and all four
// accumulators spilled to the stack (EXPERIMENTS B13).
//
// Native builds property-test both vector bodies against the same reference
// the purego build ships; CI runs the suite under both tag sets.
package beamform

import (
	"math"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/scan"
)

// i16AccBound is the accumulator headroom bound: the worst-case magnitude
// sum of shifted products must stay within 2^30, leaving one guard bit of
// the int32 below the overflow edge.
const i16AccBound = 1 << 30

// i16Gather packs one active element's operands for the scalar walk — its
// index into the per-voxel delay row, its row offset within a guarded
// plane, and its Q15 weight widened once — so the reference loop carries
// one base pointer instead of three parallel arrays.
type i16Gather struct {
	idx int32 // active element's index into a per-voxel delay row
	ro  int32 // element's row offset in the guarded plane: idx·(win+1)
	wq  int32 // Q15 apodization weight, widened once at table build
}

// i16Table is the fixed-point kernel's operand table for guarded planes of
// one window (row stride win+1). els is the active elements in ascending
// index order — the reference's whole walk. ro and wq are the same
// operands spread over the full aperture for the vector bodies, which load
// eight or sixteen consecutive elements per instruction: ro[d] = d·(win+1),
// and wq[d] = uint32(uint16(Q15 weight)) with zero for un-apodized elements.
// The high half of each weight dword is zero so that VPMADDWD's second
// product — the int16 a dword gather drags in after the sample — always
// contributes 0 and the lane is the exact int32 s·wq.
//
// The AVX2 body covers elements [0, nVec): whole 8-groups, never the
// aperture's last element (its gather would read past the plane).
// els[tail:] are the active elements at or beyond nVec, summed in scalar
// Go. (Also skipping the all-zero 8-groups a Hann border leaves at both
// ends of the range measured no win and was not kept — EXPERIMENTS B13.)
//
// The AVX-512 tile body walks 16-element groups. grp[g] has bit i set when
// element 16g+i is apodized; lastLen masks the elements of the last group
// that exist. ro's backing array runs to len(grp)·16 entries, zero past nE,
// so a group's sixteen row offsets are one load. wpair holds, per group g
// and element pair k (elements 16g+k and 16g+k+8, which share one permute),
// sixteen weight dwords in the lane order the body's products land in:
// wq[16g+k] in 128-bit lanes 0 and 2, wq[16g+k+8] in lanes 1 and 3.
type i16Table struct {
	win  int
	els  []i16Gather
	ro   []int32
	wq   []uint32
	nVec int
	tail int

	grp     []uint16
	lastLen uint16
	wpair   []uint32
}

// i16GatherTable builds the operand table for window win. Rebuilt only
// when the window changes; every kernel body consumes it read-only.
func (e *Engine) i16GatherTable(win int) *i16Table {
	nE := len(e.apod)
	nG := (nE + 15) / 16
	t := &i16Table{
		win:     win,
		els:     make([]i16Gather, len(e.activeIdx)),
		ro:      make([]int32, nE, nG*16),
		wq:      make([]uint32, nE),
		grp:     make([]uint16, nG),
		lastLen: lastLen(nE),
		wpair:   make([]uint32, nG*8*16),
	}
	for d := range t.ro {
		t.ro[d] = int32(d * (win + 1))
	}
	for j, d := range e.activeIdx {
		q := e.activeWQ[j]
		t.els[j] = i16Gather{idx: d, ro: t.ro[d], wq: int32(q)}
		t.wq[d] = uint32(uint16(q))
		t.grp[d/16] |= 1 << (d % 16)
		// Element i of a group belongs to pair i%8: its weight fills
		// 128-bit lanes 0 and 2 of the pair's dwords for i < 8, lanes 1
		// and 3 above.
		pair := t.wpair[(d/16*8+d%8)*16:][:16]
		for l := int(d%16/8) * 4; l < 16; l += 8 {
			for w := l; w < l+4; w++ {
				pair[w] = t.wq[d]
			}
		}
	}
	if nE > 0 {
		t.nVec = (nE - 1) / 8 * 8
	}
	for t.tail < len(t.els) && int(t.els[t.tail].idx) < t.nVec {
		t.tail++
	}
	return t
}

// lastLen masks the elements of an nE-element aperture's last 16-element
// group that exist, the group the fixed-point tile bodies load under a mask.
func lastLen(nE int) uint16 {
	if r := nE % 16; r != 0 {
		return 1<<r - 1
	}
	return 0xFFFF
}

// initI16 precomputes the fixed-point apodization tables: Q15 weight
// quantization and the per-product shift the saturation analysis above
// derives. Called once from New.
func (e *Engine) initI16() {
	maxW := 0.0
	for _, w := range e.activeW {
		if a := math.Abs(w); a > maxW {
			maxW = a
		}
	}
	if maxW == 0 {
		// No active elements: the kernel loop body never runs, any shift
		// satisfies the (empty) bound.
		e.wqScale = 1.0 / 32767
		e.i16Rescale = e.wqScale
		e.i16OK = true
		return
	}
	e.wqScale = maxW / 32767
	e.activeWQ = make([]int16, len(e.activeW))
	var sumAbs int64
	for j, w := range e.activeW {
		q := math.Round(w / e.wqScale)
		if q > 32767 {
			q = 32767
		} else if q < -32767 {
			q = -32767
		}
		e.activeWQ[j] = int16(q)
		if q < 0 {
			q = -q
		}
		sumAbs += int64(q)
	}
	worst := sumAbs * 32767
	e.preShift = 0
	for e.preShift < 15 && worst>>e.preShift > i16AccBound {
		e.preShift++
	}
	e.i16OK = worst>>e.preShift <= i16AccBound
	e.i16Rescale = e.wqScale * float64(int64(1)<<e.preShift)
}

// i16VoxelScale folds a frame's quantization step into the engine's fixed
// rescale: the factor that converts a finished int32 voxel accumulation to
// the physical Eq. 1 sum.
func (e *Engine) i16VoxelScale(frameScale float32) float64 {
	return float64(frameScale) * e.i16Rescale
}

// accumulateNappe16I16Ref is the scalar fixed-point kernel: int16 delays
// gathering int16 echo samples from a guarded plane (element d's win
// samples at stride win+1, guard slot at row position win kept zero,
// out-of-window indices — negative ones wrap to huge unsigned values —
// clamped into it by one unsigned min), each product widened to int32,
// shifted by preShift and
// accumulated in one int32. tab is the engine's operand table for the
// plane's window (i16GatherTable); scale is Engine.i16VoxelScale of the
// plane's quantization step. This body is the golden reference: the purego
// build's accumulateNappe16I16 is exactly this, and native builds are
// property-tested bit-identical against it. The element order is the
// shared activeIdx order, so add-mode compounding keeps the store-then-add
// contract of every other kernel.
func (e *Engine) accumulateNappe16I16Ref(blk delay.Block16, plane []int16, tab *i16Table, id int, out *Volume, scale float64, add bool) {
	els := tab.els
	uw := uint(tab.win)
	nE := len(e.apod)
	sh := e.preShift & 15 // provably in-range: one SAR, no oversized-shift guard
	k := 0
	for it := 0; it < e.Cfg.Vol.Theta.N; it++ {
		base := out.Vol.Linear(scan.Index{Theta: it, Phi: 0, Depth: id})
		for ip := 0; ip < e.Cfg.Vol.Phi.N; ip++ {
			voxel := blk[k : k+nE]
			var acc int32
			for j := range els {
				u := int(els[j].ro) + int(min(uint(int(voxel[els[j].idx])), uw))
				acc += int32(plane[u]) * els[j].wq >> sh
			}
			v := float64(acc) * scale
			if add {
				out.Data[base+ip] += v
			} else {
				out.Data[base+ip] = v
			}
			k += nE
		}
	}
}
