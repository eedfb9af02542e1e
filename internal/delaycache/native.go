package delaycache

import (
	"encoding/binary"
	"math"
	"slices"

	"ultrabeam/internal/delay"
)

// The tile-native record: one per (snake tile, 16-element group) of a
// nappe, tile-major, each NativeRecordBytes long.
//
//   - bytes [0, 32): the sixteen elements' bases, little-endian uint16: the
//     smallest of the tile's sixteen delays of element 16g+k, read as an
//     unsigned word (a negative delay is ≥ 32768, as the tile bodies read
//     it);
//   - bytes [32, 48): the sixteen spans, largest minus base, one byte each;
//   - bytes [48, 304): the 256 offsets delay − base, one byte each, in the
//     pair order the AVX-512 tile bodies' permutes read: the 32 bytes of
//     pair p (elements p and p+8) hold element p for voxel slots 0–7, then
//     element p+8 for slots 0–7, then element p for slots 8–15, then
//     element p+8 for slots 8–15.
//
// Elements past the aperture in a short last group read as delay 0.
const (
	NativeRecordBytes = 304
	nativeSpans       = 32
	nativeOffsets     = 48
	tileSlots         = 16
)

// nativeOffset is the byte of a record holding the offset of element k of
// the group for voxel slot s.
func nativeOffset(k, s int) int {
	return nativeOffsets + k%8*32 + s/8*16 + k/8*8 + s%8
}

// Native is one resident nappe block in the tile-native form: the records
// above for every (tile, group) of the nappe's snake tiles, about 1.19 B
// per delay against a Block16's 2. A group whose delays the form cannot
// hold — an element whose span exceeds 255, or math.MaxInt16 anywhere in
// the group — is kept raw: its record is zero, its index is in Spilled and
// its 256 delays are in Spill. The AVX-512 tile bodies read the records
// directly; every other consumer expands the block (Expand, ExpandTile).
//
// A store on a host without those bodies keeps each block unconverted, in
// Raw, and the records empty: every route there would expand a converted
// block on each hit, and the expansion takes about 2.5× the AVX2 kernel's
// time on the block (EXPERIMENTS B23).
type Native struct {
	Layout  delay.Layout
	Tiles   []int32 // Layout.SnakeTiles(), shared by every block of a store
	Recs    []byte
	Spilled []int32 // the raw groups' record indices, ascending
	Spill   []int16 // 256 delays per raw group, voxel slot-major, in Spilled order
	Raw     delay.Block16
	HasMax  bool // some delay of the block is math.MaxInt16
}

// newRawNative keeps blk unconverted.
func newRawNative(l delay.Layout, tiles []int32, blk delay.Block16) *Native {
	return &Native{Layout: l, Tiles: tiles, Raw: blk, HasMax: slices.Contains(blk, math.MaxInt16)}
}

// groups returns the number of 16-element groups per tile.
func (n *Native) groups() int { return (n.Layout.VoxelStride() + 15) / 16 }

// Bytes returns the storage the block holds.
func (n *Native) Bytes() int64 {
	return int64(len(n.Recs) + 4*len(n.Spilled) + 2*len(n.Spill) + 2*len(n.Raw))
}

// NewNative converts a filled Block16 of layout l into the tile-native form
// over tiles, which must be l.SnakeTiles(). It is the store's one converter
// and keeps every delay: Expand returns blk exactly. On AVX-512 hosts the
// vector body (native_amd64.s) writes the records and flags the groups the
// form may not hold, which are then checked here; elsewhere, and for those
// groups, this loop is the converter.
func NewNative(l delay.Layout, tiles []int32, blk delay.Block16) *Native {
	nE := l.VoxelStride()
	nG := (nE + 15) / 16
	nR := len(tiles) / tileSlots * nG
	n := &Native{Layout: l, Tiles: tiles, Recs: make([]byte, nR*NativeRecordBytes)}
	var flagStack [2048]uint8
	flags := flagStack[:0]
	if nR <= len(flagStack) {
		flags = flagStack[:nR]
	} else {
		flags = make([]uint8, nR)
	}
	vector := convertVector(n, flags, blk)
	var rows [tileSlots]int // the tile's voxel rows in blk
	for r := range nR {
		if vector && flags[r] == 0 {
			continue
		}
		ti, gi := r/nG, r%nG
		for s, v := range tiles[ti*tileSlots:][:tileSlots] {
			rows[s] = int(v) * nE
		}
		rec := n.Recs[r*NativeRecordBytes:][:NativeRecordBytes]
		if !n.record(rec, blk, rows[:], r, gi*16, min(16, nE-gi*16)) {
			clear(rec)
			n.spill(blk, rows[:], r, gi*16, min(16, nE-gi*16))
		}
	}
	return n
}

// record writes the record of the group at element e0 of the tile whose
// voxel rows are rows, or reports false when the form cannot hold it.
func (n *Native) record(rec []byte, blk delay.Block16, rows []int, r, e0, kn int) bool {
	lo, hi := [16]uint16{}, [16]uint16{}
	for k := range kn {
		lo[k] = 0xFFFF
	}
	for _, row := range rows {
		for k, d := range blk[row+e0:][:kn] {
			lo[k], hi[k] = min(lo[k], uint16(d)), max(hi[k], uint16(d))
		}
	}
	raw, scan := false, false
	for k := range kn {
		raw = raw || hi[k]-lo[k] > 255
		scan = scan || lo[k] <= math.MaxInt16 && hi[k] >= math.MaxInt16
	}
	if scan && n.scanMax(blk, rows, e0, kn) || raw {
		return false
	}
	for k := range kn {
		binary.LittleEndian.PutUint16(rec[2*k:], lo[k])
		rec[nativeSpans+k] = byte(hi[k] - lo[k])
		off := rec[nativeOffset(k, 0):][:24]
		for s, row := range rows {
			off[s/8*16+s%8] = byte(uint16(blk[row+e0+k]) - lo[k])
		}
	}
	return true
}

// scanMax reports whether the group at element e0 of the tile's rows
// holds math.MaxInt16, and records it in HasMax.
func (n *Native) scanMax(blk delay.Block16, rows []int, e0, kn int) bool {
	for _, row := range rows {
		for _, d := range blk[row+e0:][:kn] {
			if d == math.MaxInt16 {
				n.HasMax = true
				return true
			}
		}
	}
	return false
}

// spill keeps record r's group raw: its 256 delays, voxel slot-major,
// elements past the aperture 0.
func (n *Native) spill(blk delay.Block16, rows []int, r, e0, kn int) {
	n.Spilled = append(n.Spilled, int32(r))
	for _, row := range rows {
		g := [16]int16{}
		copy(g[:], blk[row+e0:][:kn])
		n.Spill = append(n.Spill, g[:]...)
	}
}

// ExpandTile writes the delays of tile i into dst, voxel slot s's delay row
// at dst[s·nE:]: the tile-native form's executable specification, which
// Expand and every tile a kernel hands back run through.
func (n *Native) ExpandTile(i int, dst []int16) {
	nE := n.Layout.VoxelStride()
	var rows [tileSlots][]int16
	for s := range rows {
		rows[s] = dst[s*nE:][:nE]
	}
	n.expandTile(i, &rows)
}

// Expand writes the whole block into dst (at least Layout.BlockLen()
// delays), exactly the Block16 it was converted from.
func (n *Native) Expand(dst delay.Block16) {
	if n.Raw != nil {
		copy(dst, n.Raw)
		return
	}
	nE := n.Layout.VoxelStride()
	var rows [tileSlots][]int16
	for i := range len(n.Tiles) / tileSlots {
		for s, v := range n.Tiles[i*tileSlots:][:tileSlots] {
			rows[s] = dst[int(v)*nE:][:nE]
		}
		n.expandTile(i, &rows)
	}
}

// expandTile writes tile i's delays into the delay rows of its voxel slots.
// Each group is built in a local array and copied out row by row.
func (n *Native) expandTile(i int, rows *[tileSlots][]int16) {
	nE := n.Layout.VoxelStride()
	nG := (nE + 15) / 16
	if n.Raw != nil {
		for s, v := range n.Tiles[i*tileSlots:][:tileSlots] {
			copy(rows[s], n.Raw[int(v)*nE:][:nE])
		}
		return
	}
	for gi := range nG {
		r, e0 := i*nG+gi, gi*16
		kn := min(16, nE-e0)
		var g [tileSlots * 16]int16 // [voxel slot][element]
		if j, raw := slices.BinarySearch(n.Spilled, int32(r)); raw {
			copy(g[:], n.Spill[j*256:][:256])
		} else {
			var rec [NativeRecordBytes]byte
			copy(rec[:], n.Recs[r*NativeRecordBytes:])
			for k := range kn {
				base := binary.LittleEndian.Uint16(rec[2*k:])
				off := rec[nativeOffset(k, 0):][:24]
				for j := range 8 { // slots j and j+8
					g[j*16+k] = int16(base + uint16(off[j]))
					g[(j+8)*16+k] = int16(base + uint16(off[16+j]))
				}
			}
		}
		for s := range rows {
			copy(rows[s][e0:e0+kn], g[s*16:][:kn])
		}
	}
}

// NextRawTile returns the first tile at or after i that holds a raw group
// whose mask in grp (one per group) is not zero — a tile a tile body must
// hand back, since its record holds no delays — or the tile count.
func (n *Native) NextRawTile(i int, grp []uint16) int {
	nG := n.groups()
	j, _ := slices.BinarySearch(n.Spilled, int32(i*nG))
	for ; j < len(n.Spilled); j++ {
		if r := int(n.Spilled[j]); grp[r%nG] != 0 {
			return r / nG
		}
	}
	return len(n.Tiles) / tileSlots
}
