package beamform

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
)

// shifted adds extra samples to element (ei, ej)'s delays. It offers only
// the scalar interface, so sessions fill its blocks through
// delay.ScalarAdapter.
type shifted struct {
	delay.Provider
	ei, ej int
	extra  float64
}

func (s shifted) DelaySamples(it, ip, id, ei, ej int) float64 {
	d := s.Provider.DelaySamples(it, ip, id, ei, ej)
	if ei == s.ei && ej == s.ej {
		d += s.extra
	}
	return d
}

// TestLongEchoWindowMatchesScalar: a window beyond delay.MaxEchoWindow
// takes the same int16 blocks as every other frame — filled, or resident in
// a full-budget cache — through the float64 kernel, at either precision,
// for a single transmit and a compound. On the "saturated" geometry one
// element's delays sit 40 000 samples out, still inside the window: every
// nappe holds the saturated index math.MaxInt16 and must be beamformed from
// the scalar law, because reading sample 32767 of the noise echoes instead
// of the true delay would show. Every case must equal the transmit-ordered
// sum of BeamformScalar volumes bit for bit, and a cached case reads the
// store once per (transmit, nappe): the first frame misses every block,
// the second hits every one. TestHugeEchoWindowFallsBackWide is its
// uncached single-transmit rows (Engine.Beamform's one session),
// TestWideFallbackCountsEveryBlockAMiss its cached compound rows.
func TestLongEchoWindowMatchesScalar(t *testing.T) { longWindowRows(t, "") }

func TestHugeEchoWindowFallsBackWide(t *testing.T) { longWindowRows(t, "in-range/1tx/uncached") }

func TestWideFallbackCountsEveryBlockAMiss(t *testing.T) { longWindowRows(t, "in-range/2tx/cached") }

// longWindowRows runs the cases whose name holds match.
func longWindowRows(t *testing.T, match string) {
	cfg, _, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(30), 0, 0.03, 5, 1, 12)
	cfg.Arr.NX, cfg.Arr.NY = 4, 4
	const win = 42000
	rng := rand.New(rand.NewSource(38))
	txs := delay.SteeredTransmits(2, 0.004, 0.004)
	txBufs := make([][]rf.EchoBuffer, len(txs))
	for ti := range txBufs {
		txBufs[ti] = make([]rf.EchoBuffer, cfg.Arr.Elements())
		for d := range txBufs[ti] {
			row := make([]float64, win)
			for i := range row {
				row[i] = rng.NormFloat64()
			}
			txBufs[ti][d].Samples = row
		}
	}
	inRange, err := delay.ForTransmits(exactProvider(cfg), txs)
	if err != nil {
		t.Fatal(err)
	}
	saturated := make([]delay.Provider, len(inRange))
	for ti, p := range inRange {
		saturated[ti] = shifted{Provider: p, ei: 1, ej: 2, extra: 40000}
	}
	if New(cfg).apod[cfg.Arr.Index(1, 2)] == 0 {
		t.Fatal("the shifted element must carry weight")
	}
	layout := New(cfg).layout()
	blk := make(delay.Block16, layout.BlockLen())
	ran := 0
	for _, g := range []struct {
		name  string
		provs []delay.Provider
	}{{"in-range", inRange}, {"saturated", saturated}} {
		for ti, p := range g.provs {
			for id := 0; id < cfg.Vol.Depth.N; id++ {
				delay.AsBlock(p, layout).FillNappe16(id, blk)
				if slices.Contains(blk, math.MaxInt16) != (g.name == "saturated") {
					t.Fatalf("%s transmit %d nappe %d: saturation is not what the case needs", g.name, ti, id)
				}
			}
		}
		for _, nTx := range []int{1, 2} {
			ref := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
			for ti, p := range g.provs[:nTx] {
				vol, err := New(cfg).BeamformScalar(p, txBufs[ti])
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range vol.Data {
					ref.Data[i] += v
				}
			}
			gens := make([]delay.BlockProvider, nTx)
			for ti, p := range g.provs[:nTx] {
				gens[ti] = delay.AsBlock(p, layout)
			}
			perFrame := int64(nTx * cfg.Vol.Depth.N)
			for _, cached := range []bool{false, true} {
				for _, prec := range []Precision{PrecisionFloat64, PrecisionInt16} {
					name := fmt.Sprintf("%s/%dtx/%s/%v", g.name, nTx, map[bool]string{false: "uncached", true: "cached"}[cached], prec)
					if !strings.Contains(name, match) {
						continue
					}
					ran++
					var cache *delaycache.Cache
					if cached {
						store, err := delaycache.NewShared(delaycache.Config{Providers: gens, Depths: cfg.Vol.Depth.N, BudgetBytes: -1})
						if err != nil {
							t.Fatal(err)
						}
						cache = store.Attach()
					}
					c := cfg
					c.Precision = prec
					sess, err := New(c).NewSession(gens, cache)
					if err != nil {
						t.Fatal(err)
					}
					for frame := int64(0); frame < 2; frame++ {
						var before delaycache.Stats
						if cached {
							before = cache.Stats()
						}
						vol := runFrame(t, sess, txBufs[:nTx]...)
						for i := range ref.Data {
							if math.Float64bits(vol.Data[i]) != math.Float64bits(ref.Data[i]) {
								t.Fatalf("%s frame %d: voxel %d = %v, scalar %v", name, frame, i, vol.Data[i], ref.Data[i])
							}
						}
						if !cached {
							continue
						}
						after := cache.Stats()
						if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != perFrame*(1-frame) || hits != perFrame*frame ||
							cache.Shared().Stats().Misses != after.Misses {
							t.Errorf("%s frame %d: stats %+v → %+v, want exactly %d more misses and %d more hits",
								name, frame, before, after, perFrame*(1-frame), perFrame*frame)
						}
					}
					sess.Close()
				}
			}
		}
	}
	if ran == 0 {
		t.Fatalf("no case matches %q", match)
	}
}

// TestNonUniformWindowsDemoteI16: the i16 plane needs one stride; ragged
// buffer lengths must demote that frame to the float64 echo kernel (still
// exact) rather than misindex.
func TestNonUniformWindowsDemoteI16(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(30), 0, 0.03, 5, 1, 12)
	// Truncate one buffer: lengths are no longer uniform.
	ragged := make([]rf.EchoBuffer, len(bufs))
	copy(ragged, bufs)
	ragged[3] = rf.EchoBuffer{Samples: bufs[3].Samples[:len(bufs[3].Samples)-7]}
	c := cfg
	c.Precision = PrecisionInt16
	eng := New(c)
	ref, err := eng.BeamformScalar(exactProvider(c), ragged)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := eng.Beamform(exactProvider(c), ragged)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Data {
		if ref.Data[i] != vol.Data[i] {
			t.Fatalf("ragged frame differs at %d: %v vs %v", i, vol.Data[i], ref.Data[i])
		}
	}
}

// TestNarrowKernelMasksOutOfWindow drives delays far outside the echo
// window through the i16 kernel: saturated and clamped indices must read
// exact silence, like EchoBuffer.At.
func TestNarrowKernelMasksOutOfWindow(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(30), 0, 0.03, 5, 1, 8)
	c := cfg
	c.Precision = PrecisionInt16
	eng := New(c)
	// An origin displaced 10 m away pushes every delay beyond any buffer.
	far := delay.NewExact(c.Vol, c.Arr, geom.Vec3{Z: -10}, c.Conv)
	vol, err := eng.Beamform(far, bufs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vol.Data {
		if v != 0 {
			t.Fatalf("out-of-window voxel %d = %v, want exact silence", i, v)
		}
	}
}

// TestParsePrecision covers the CLI parser and the String round trip.
func TestParsePrecision(t *testing.T) {
	cases := map[string]Precision{
		"float64": PrecisionFloat64, "f64": PrecisionFloat64,
		"i16": PrecisionInt16, "int16": PrecisionInt16,
	}
	for name, want := range cases {
		got, err := ParsePrecision(name)
		if err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v", name, got, err)
		}
	}
	// float32, wide and narrow named kernels that were removed; they are
	// rejected, not silently mapped onto a surviving precision.
	for _, name := range []string{"float16", "float32", "f32", "wide", "narrow"} {
		if _, err := ParsePrecision(name); err == nil {
			t.Errorf("ParsePrecision(%q) must fail", name)
		}
	}
	for _, p := range []Precision{PrecisionFloat64, PrecisionInt16} {
		if p.String() == "" {
			t.Errorf("Precision(%d).String empty", p)
		}
	}
	if (Precision(99)).String() == "" {
		t.Error("unknown precision String empty")
	}
}
