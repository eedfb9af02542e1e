package tablesteer

import (
	"math"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/fixed"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
)

func TestCorrTablesPaperCount(t *testing.T) {
	// §V-B: "a total of 100×64×128 + 100×128 = 832×10³ values (note that
	// cosφ is symmetrical around 0)".
	c := BuildCorrTables(paperConfig())
	if c.Entries() != 832_000 {
		t.Errorf("correction entries = %d, want 832000", c.Entries())
	}
	if c.PhiFolded != 64 {
		t.Errorf("folded φ axis = %d, want 64", c.PhiFolded)
	}
	if c.SatCount != 0 {
		t.Errorf("%d corrections saturated s13.4", c.SatCount)
	}
	mb := float64(c.StorageBits()) / 1e6
	// 832e3 × 18 = 14.976 Mb decimal (the paper's "14.3 Mb" uses binary Mb).
	if mb < 14.2 || mb > 15.1 {
		t.Errorf("correction storage = %.2f Mb", mb)
	}
}

func TestCorrValuesMatchFormula(t *testing.T) {
	cfg := smallConfig()
	c := BuildCorrTables(cfg)
	toS := conv.Fs / conv.C
	for _, tc := range [][3]int{{0, 0, 0}, {5, 9, 3}, {15, 16, 16}} {
		ei, it, ip := tc[0], tc[1], tc[2]
		xd := cfg.Arr.ElementX(ei) * toS
		want := -xd * math.Cos(cfg.Vol.Phi.At(ip)) * math.Sin(cfg.Vol.Theta.At(it))
		if got := c.X(ei, it, ip); math.Abs(got-want) > 1e-9 {
			t.Errorf("X(%d,%d,%d) = %v, want %v", ei, it, ip, got, want)
		}
	}
	for _, tc := range [][2]int{{0, 0}, {7, 8}, {15, 16}} {
		ej, ip := tc[0], tc[1]
		yd := cfg.Arr.ElementY(ej) * toS
		want := -yd * math.Sin(cfg.Vol.Phi.At(ip))
		if got := c.Y(ej, ip); math.Abs(got-want) > 1e-9 {
			t.Errorf("Y(%d,%d) = %v, want %v", ej, ip, got, want)
		}
	}
}

func TestCorrPhiFoldSymmetry(t *testing.T) {
	// cosφ is even: the x correction must be identical at ±φ.
	cfg := smallConfig()
	c := BuildCorrTables(cfg)
	n := cfg.Vol.Phi.N
	for ip := 0; ip < n/2; ip++ {
		if c.X(4, 3, ip) != c.X(4, 3, n-1-ip) {
			t.Fatalf("x correction not φ-symmetric at ip=%d", ip)
		}
		if c.XRaw(4, 3, ip) != c.XRaw(4, 3, n-1-ip) {
			t.Fatalf("raw x correction not φ-symmetric at ip=%d", ip)
		}
	}
	// sinφ is odd: the y correction flips sign at ±φ.
	for ip := 0; ip < n/2; ip++ {
		if math.Abs(c.Y(2, ip)+c.Y(2, n-1-ip)) > 1e-12 {
			t.Fatalf("y correction not antisymmetric at ip=%d", ip)
		}
	}
}

func TestProviderUnsteeredMatchesExact(t *testing.T) {
	// On the unsteered line of sight the correction vanishes and the
	// reference entry is the exact delay (no Taylor error).
	cfg := smallConfig()
	p := New(cfg)
	e := delay.NewExact(cfg.Vol, cfg.Arr, geom.Vec3{}, conv)
	itC, ipC := cfg.Vol.Theta.N/2, cfg.Vol.Phi.N/2
	for _, el := range [][2]int{{0, 0}, {8, 8}, {15, 3}} {
		for _, id := range []int{0, 20, 39} {
			got := p.DelaySamples(itC, ipC, id, el[0], el[1])
			want := e.DelaySamples(itC, ipC, id, el[0], el[1])
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("unsteered delay at %v,%d: %v vs %v", el, id, got, want)
			}
		}
	}
}

func TestProviderSteeredWithinTaylorBound(t *testing.T) {
	// Steered delays err only by the Taylor residual, bounded by the §V-A
	// analysis at ≈214 samples and in practice far smaller at depth.
	cfg := smallConfig()
	p := New(cfg)
	st := p.Compare(3)
	if st.MaxAbs > 215 {
		t.Errorf("max steering error %v samples exceeds the theoretical bound", st.MaxAbs)
	}
	if st.MeanAbs > 10 {
		t.Errorf("mean steering error %v samples implausibly large", st.MeanAbs)
	}
}

func TestProviderFixedCloseToFloat18(t *testing.T) {
	cfg := smallConfig()
	pf := New(cfg)
	px := New(cfg)
	px.UseFixed = true
	// Max representation error: ref LSB/2 + 2 × corr LSB/2 = 2^-6 + 2^-5.
	budget := cfg.RefFmt.Resolution()/2 + cfg.CorrFmt.Resolution() + 1e-12
	worst := 0.0
	cfg.Vol.Walk(scan.NappeOrder, func(ix scan.Index) {
		if (ix.Depth+ix.Theta+ix.Phi)%7 != 0 {
			return
		}
		for ej := 0; ej < cfg.Arr.NY; ej += 5 {
			for ei := 0; ei < cfg.Arr.NX; ei += 5 {
				d := math.Abs(pf.DelaySamples(ix.Theta, ix.Phi, ix.Depth, ei, ej) -
					px.DelaySamples(ix.Theta, ix.Phi, ix.Depth, ei, ej))
				if d > worst {
					worst = d
				}
			}
		}
	})
	if worst > budget {
		t.Errorf("fixed vs float diverges by %v samples, budget %v", worst, budget)
	}
}

func TestProviderFixed14CoarserThan18(t *testing.T) {
	cfg := smallConfig()
	p18 := New(cfg)
	p18.UseFixed = true
	cfg14 := cfg
	cfg14.RefFmt, cfg14.CorrFmt = Bits14Config()
	p14 := New(cfg14)
	p14.UseFixed = true
	float := New(cfg)
	var err18, err14 float64
	n := 0
	cfg.Vol.Walk(scan.NappeOrder, func(ix scan.Index) {
		if (ix.Depth*31+ix.Theta*7+ix.Phi)%11 != 0 {
			return
		}
		for ej := 0; ej < cfg.Arr.NY; ej += 4 {
			for ei := 0; ei < cfg.Arr.NX; ei += 4 {
				f := float.DelaySamples(ix.Theta, ix.Phi, ix.Depth, ei, ej)
				err18 += math.Abs(p18.DelaySamples(ix.Theta, ix.Phi, ix.Depth, ei, ej) - f)
				err14 += math.Abs(p14.DelaySamples(ix.Theta, ix.Phi, ix.Depth, ei, ej) - f)
				n++
			}
		}
	})
	if n == 0 {
		t.Fatal("no samples")
	}
	if err14 <= err18 {
		t.Errorf("14-bit mean quantization error (%v) should exceed 18-bit (%v)",
			err14/float64(n), err18/float64(n))
	}
}

func TestProviderNames(t *testing.T) {
	p := New(smallConfig())
	if p.Name() != "tablesteer" {
		t.Errorf("Name = %q", p.Name())
	}
	p.UseFixed = true
	if p.Name() != "tablesteer-18b" {
		t.Errorf("fixed Name = %q", p.Name())
	}
	cfg := smallConfig()
	cfg.RefFmt, cfg.CorrFmt = Bits14Config()
	p14 := New(cfg)
	p14.UseFixed = true
	if p14.Name() != "tablesteer-14b" {
		t.Errorf("14-bit Name = %q", p14.Name())
	}
}

func TestNewDefaultsTo18Bit(t *testing.T) {
	cfg := smallConfig()
	cfg.RefFmt = fixed.Format{}
	cfg.CorrFmt = fixed.Format{}
	p := New(cfg)
	if p.Cfg.RefFmt.Bits() != 18 || p.Cfg.CorrFmt.Bits() != 18 {
		t.Error("zero formats should default to the 18-bit design point")
	}
}

func TestSteeredSliceMatchesDelaySamples(t *testing.T) {
	cfg := smallConfig()
	p := New(cfg)
	it, ip, id := 2, 14, 30
	slice := p.SteeredSlice(it, ip, id)
	if len(slice) != p.Ref.QX*p.Ref.QY {
		t.Fatalf("slice len = %d", len(slice))
	}
	for jy := 0; jy < p.Ref.QY; jy++ {
		for jx := 0; jx < p.Ref.QX; jx++ {
			ei, ej := foldSource(jx, cfg.Arr.NX), foldSource(jy, cfg.Arr.NY)
			want := p.DelaySamples(it, ip, id, ei, ej)
			if slice[jy*p.Ref.QX+jx] != want {
				t.Fatalf("slice mismatch at (%d,%d)", jx, jy)
			}
		}
	}
}

func TestCorrectionPlaneIsPlane(t *testing.T) {
	// Fig. 3(c): the correction over the aperture is a tilted plane — the
	// second finite difference along each axis must vanish.
	cfg := smallConfig()
	p := New(cfg)
	plane := p.CorrectionPlane(3, 12)
	nx := cfg.Arr.NX
	for ej := 0; ej < cfg.Arr.NY; ej++ {
		for ei := 2; ei < nx; ei++ {
			d2 := plane[ej*nx+ei] - 2*plane[ej*nx+ei-1] + plane[ej*nx+ei-2]
			if math.Abs(d2) > 1e-18 {
				t.Fatalf("x second difference %v at (%d,%d)", d2, ei, ej)
			}
		}
	}
	for ei := 0; ei < nx; ei++ {
		for ej := 2; ej < cfg.Arr.NY; ej++ {
			d2 := plane[ej*nx+ei] - 2*plane[(ej-1)*nx+ei] + plane[(ej-2)*nx+ei]
			if math.Abs(d2) > 1e-18 {
				t.Fatalf("y second difference %v at (%d,%d)", d2, ei, ej)
			}
		}
	}
	// Unsteered: the plane is identically zero.
	flat := p.CorrectionPlane(cfg.Vol.Theta.N/2, cfg.Vol.Phi.N/2)
	for i, v := range flat {
		if v != 0 {
			t.Fatalf("unsteered correction %v at %d", v, i)
		}
	}
}
