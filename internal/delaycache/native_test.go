package delaycache

import (
	"encoding/binary"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"ultrabeam/internal/delay"
)

// TestNativeRecordLayout pins the record the AVX-512 tile bodies read, on a
// 2×9-voxel plane (two tiles, the second padded) of 17 elements (a whole
// group and a one-element one): element k of slot s holds 100k + s%16,
// except that the second tile's element 3 spans 256 (kept raw) and its
// element 16 holds math.MaxInt16 once (kept raw too, in its own group).
// Word j of pair p's 32 bytes is element p + 8·(j/8 mod 2) of slot
// 8·(j/16) + j mod 8, the VPERMT2W lane order.
func TestNativeRecordLayout(t *testing.T) {
	l := delay.Layout{NTheta: 2, NPhi: 9, NX: 17, NY: 1}
	tiles := l.SnakeTiles()
	nE := l.VoxelStride()
	blk := make(delay.Block16, l.BlockLen())
	for i, v := range tiles {
		for k := range nE {
			blk[int(v)*nE+k] = int16(100*k + i%16)
		}
	}
	second := tiles[16:32]
	blk[int(second[0])*nE+3] = int16(315 + 256) // the padding slots hold 315
	blk[int(second[0])*nE+16] = math.MaxInt16
	n := NewNative(l, tiles, blk)
	if n.groups() != 2 || len(n.Recs) != 4*NativeRecordBytes {
		t.Fatalf("%d groups, %d record bytes", n.groups(), len(n.Recs))
	}
	if len(n.Spilled) != 2 || n.Spilled[0] != 2 || n.Spilled[1] != 3 || len(n.Spill) != 2*256 || !n.HasMax {
		t.Fatalf("raw groups %v (%d delays), HasMax %t: want records 2 and 3", n.Spilled, len(n.Spill), n.HasMax)
	}
	if want := int64(len(n.Recs) + 2*4 + 2*256*2); n.Bytes() != want {
		t.Errorf("Bytes = %d, want %d", n.Bytes(), want)
	}
	for r, kn := range []int{16, 1} {
		rec := n.Recs[r*NativeRecordBytes:][:NativeRecordBytes]
		for k := range 16 {
			base, span := uint16(0), byte(0)
			if k < kn {
				base, span = uint16(100*(16*r+k)), 15
			}
			if got := binary.LittleEndian.Uint16(rec[2*k:]); got != base || rec[32+k] != span {
				t.Errorf("record %d element %d: base %d span %d, want %d %d", r, k, got, rec[32+k], base, span)
			}
		}
		for p := range 8 {
			for j := range 32 {
				k, s := p+8*(j/8%2), 8*(j/16)+j%8
				want := byte(0)
				if k < kn {
					want = byte(s)
				}
				if got := rec[48+32*p+j]; got != want {
					t.Errorf("record %d pair %d byte %d: %d, want element %d slot %d's offset %d", r, p, j, got, k, s, want)
				}
			}
		}
	}
	got := make(delay.Block16, len(blk))
	n.Expand(got)
	for i := range blk {
		if got[i] != blk[i] {
			t.Fatalf("delay %d expands to %d, not %d", i, got[i], blk[i])
		}
	}
}

// TestNativeRoundTrip holds Expand(NewNative(b)) == b, and the raw rule, on
// every span around the record's byte, negative indices and the int16
// extremes, over planes with and without a padded last tile and apertures
// with and without a short last group; and the vector converter to the
// loop, field for field.
func TestNativeRoundTrip(t *testing.T) {
	convert := func(l delay.Layout, blk delay.Block16) (out map[string]*Native) {
		out = map[string]*Native{}
		for name, route := range converters() {
			route(func() { out[name] = NewNative(l, l.SnakeTiles(), blk) })
		}
		return out
	}
	for _, l := range []delay.Layout{{NTheta: 1, NPhi: 1, NX: 3, NY: 1}, {NTheta: 7, NPhi: 5, NX: 4, NY: 5}, {NTheta: 1, NPhi: 32, NX: 16, NY: 1}, {NTheta: 3, NPhi: 3, NX: 17, NY: 2}} {
		tiles, nE := l.SnakeTiles(), l.VoxelStride()
		for _, hi := range []int{0, 1, 255, 256, 1000} {
			for _, lo := range []int{0, -1, -40, math.MinInt16, math.MaxInt16 - 1000} {
				blk := make(delay.Block16, l.BlockLen())
				for i := range blk {
					blk[i] = int16(min(lo+(i*7919)%(hi+1), math.MaxInt16))
				}
				ns := convert(l, blk)
				n := ns["loop"]
				for name, m := range ns {
					if !reflect.DeepEqual(m, n) {
						t.Fatalf("%v span ≤ %d from %d: the %s converter's block differs from the loop's", l, hi, lo, name)
					}
				}
				got := make(delay.Block16, len(blk))
				n.Expand(got)
				for i := range blk {
					if got[i] != blk[i] {
						t.Fatalf("%v span ≤ %d from %d: delay %d expands to %d, not %d", l, hi, lo, i, got[i], blk[i])
					}
				}
				wantRaw := false
				for i := 0; i < len(tiles); i += 16 {
					for k := range nE {
						a, b := uint16(0xFFFF), uint16(0)
						for _, v := range tiles[i : i+16] {
							u := uint16(blk[int(v)*nE+k])
							a, b = min(a, u), max(b, u)
							wantRaw = wantRaw || u == math.MaxInt16
						}
						wantRaw = wantRaw || b-a > 255
					}
				}
				if (len(n.Spilled) > 0) != wantRaw {
					t.Errorf("%v span ≤ %d from %d: %d raw groups, want some %t", l, hi, lo, len(n.Spilled), wantRaw)
				}
			}
		}
	}
}

// TestConverterFrontEndMatchesKernels holds the vector converter's front-end
// macros (native_amd64.s) to the tile bodies' own (internal/beamform's
// kernel_tile_amd64.h), text for text, so the records the converter writes
// are what those bodies would compute.
func TestConverterFrontEndMatchesKernels(t *testing.T) {
	conv, err := os.ReadFile("native_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	kern, err := os.ReadFile("../beamform/kernel_tile_amd64.h")
	if err != nil {
		t.Fatal(err)
	}
	macro := func(src []byte, name string) string {
		text := string(src)
		i := strings.Index(text, "#define "+name)
		if i < 0 {
			return ""
		}
		end := i
		for _, line := range strings.SplitAfter(text[i:], "\n") {
			end += len(line)
			if !strings.HasSuffix(strings.TrimRight(line, "\n"), "\\") {
				break
			}
		}
		return text[i:end]
	}
	for _, name := range []string{"TILE_ADDRS", "TILE_ROWS(", "TILE_ROWS_SHORT(", "TILE_LOAD_ROWS(", "TILE_MINMAX", "TILE_TRANSPOSE"} {
		if c, k := macro(conv, name), macro(kern, name); c == "" || c != k {
			t.Errorf("%s: the converter's copy differs from the kernels'", name)
		}
	}
}
