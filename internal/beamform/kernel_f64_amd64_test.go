//go:build amd64 && !purego

package beamform

import (
	"testing"

	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/xdcr"
)

// f64HostBodies lists the f64 accumulate bodies this host can run, whatever
// the probe currently selects: the AVX-512 tile body (counting the
// element-halves it gathers), the SSE2 body, and the reference.
func f64HostBodies(e *Engine) []f64Body {
	var bodies []f64Body
	if cpufeat.AVX512 {
		bodies = append(bodies, f64Body{"avx512", func(blk delay.Block16, bufs []rf.EchoBuffer, id int, out *Volume, add bool) int {
			return e.nappeF64(blk, bufs, id, out, add, true)
		}})
	}
	bodies = append(bodies, f64Body{"sse2", func(blk delay.Block16, bufs []rf.EchoBuffer, id int, out *Volume, add bool) int {
		return e.nappeF64(blk, bufs, id, out, add, false)
	}})
	return append(bodies, f64RefBody(e))
}

// TestF64NoAVX512Route clears the AVX-512 probe — the route an amd64 host
// without it takes — and holds a whole compound session on the SSE2 body to
// the reference.
func TestF64NoAVX512Route(t *testing.T) {
	if !cpufeat.AVX512 {
		t.Skip("host has no AVX-512: the SSE2 body is already the route")
	}
	defer func() { cpufeat.AVX512 = true }()
	cpufeat.AVX512 = false
	if body := f64KernelBody(); body != "sse2" {
		t.Fatalf("body = %q with the AVX-512 probe cleared", body)
	}
	f64SessionMatchesRef(t)
}

// f64GatherModel counts the element-halves of nappe blk the tile body must
// gather, by the accept rule stated plainly: per tile, 8-voxel half and
// apodized element d, the half's delays span at most 15 and the largest is
// below min(len(bufs[d]), 32768), both compared as unsigned words.
func f64GatherModel(e *Engine, blk delay.Block16, bufs []rf.EchoBuffer) int {
	nE, n := len(e.apod), 0
	for t := 0; t < len(e.tiles); t += 8 {
		for _, d := range e.activeIdx {
			lo, hi := uint16(0xFFFF), uint16(0)
			for _, v := range e.tiles[t : t+8] {
				u := uint16(blk[int(v)*nE+int(d)])
				lo, hi = min(lo, u), max(hi, u)
			}
			if hi-lo > 15 || int(hi) >= min(len(bufs[d].Samples), 1<<15) {
				n++
			}
		}
	}
	return n
}

// TestF64TileAcceptRule walks the tile body's accept rule across its
// boundaries, per element and half, on the first and the partial last tile
// of a 7×5 plane: spans of 7 (one window load), 8 (two) and 15 taken, 16
// gathered, in both halves or only the second; max = n−1 taken and n
// gathered, for the uniform window and for one element's shorter row; a
// negative delay gathered; out-of-range delays on an un-apodized element
// ignored; and an empty row, gathered on every tile with all lanes +0. Each
// case's count must match the rule as f64GatherModel states it, the first
// tile's the hand count too, and every body must come out == the reference.
func TestF64TileAcceptRule(t *testing.T) {
	if !cpufeat.AVX512 {
		t.Skip("host has no AVX-512: no tile body")
	}
	const win, short = 100, 37
	apertures := []struct {
		nx, ny int
		window xdcr.Window
	}{{3, 3, xdcr.Rect}, {4, 4, xdcr.Hann}, {17, 1, xdcr.Rect}, {12, 12, xdcr.Hann}, {16, 16, xdcr.Hann}}
	for _, ap := range apertures {
		h := newF64Harness(ap.nx, ap.ny, 7, 5, ap.window)
		nE, tiles := len(h.eng.apod), h.eng.tiles
		apod, unapod := -1, -1
		for d := nE - 1; d >= 0; d-- {
			if h.eng.apod[d] != 0 {
				apod = d
			} else {
				unapod = d
			}
		}
		cases := []struct {
			name  string
			d     int
			n     int             // the element's row length
			delay func(i int) int // delay of the tile's i-th voxel
			first int             // element-halves gathered when the first tile is the one changed
		}{
			{"span-7", apod, win, func(i int) int { return 20 + 7*(i%2) }, 0},
			{"span-8", apod, win, func(i int) int { return 20 + 8*(i%2) }, 0},
			{"span-15", apod, win, func(i int) int { return 20 + 15*(i%2) }, 0},
			{"span-16", apod, win, func(i int) int { return 20 + 16*(i%2) }, 2},
			{"span-16-second-half", apod, win, func(i int) int { return 20 + 16*(i%2)*(i/8) }, 1},
			{"max-n-1", apod, win, func(i int) int { return win - 1 - 3*(i%2) }, 0},
			{"max-n", apod, win, func(i int) int { return win - 3*(i%2) }, 2},
			{"ragged-max-n-1", apod, short, func(i int) int { return short - 1 - 3*(i%2) }, 0},
			{"ragged-max-n", apod, short, func(i int) int { return short - 3*(i%2) }, 2},
			{"negative", apod, win, func(i int) int { return -(i % 2) }, 2},
			{"unapodized-out-of-range", unapod, win, func(i int) int { return [2]int{-32768, 32767}[i%2] }, 0},
			{"empty-row", apod, 0, func(i int) int { return 5 }, 2},
		}
		for _, tc := range cases {
			if tc.d < 0 {
				continue // Rect: every element is apodized
			}
			for _, first := range []int{0, len(tiles) - 16} {
				h.fillRows(win, func(d int) int {
					if d == tc.d {
						return tc.n
					}
					return win
				})
				for k := range h.blk {
					h.blk[k] = int16(10 + k%nE%50)
				}
				for i, v := range tiles[first : first+16] {
					h.blk[int(v)*nE+tc.d] = int16(tc.delay(i))
				}
				out := &Volume{Vol: h.eng.Cfg.Vol, Data: make([]float64, h.eng.Cfg.Vol.Points())}
				got := h.eng.nappeF64(h.blk, h.bufs, 0, out, false, true)
				want, hand := f64GatherModel(h.eng, h.blk, h.bufs), tc.first
				if tc.n == 0 {
					hand = 2 * len(tiles) / 16 // both halves of every tile
				}
				if first == 0 && want != hand {
					t.Fatalf("nE=%d %s: the model gathers %d element-halves, the hand count %d", nE, tc.name, want, hand)
				}
				if got != want {
					t.Fatalf("nE=%d %s on tile %d: %d element-halves gathered, want %d", nE, tc.name, first/16, got, want)
				}
				h.run(t, tc.name)
			}
		}
	}
}
