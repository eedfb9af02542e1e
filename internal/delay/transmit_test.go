package delay

import (
	"math"
	"testing"

	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

func transmitTestExact() *Exact {
	vol := scan.NewVolume(geom.Radians(40), geom.Radians(20), 0.05, 5, 3, 8)
	arr := xdcr.NewArray(4, 4, 0.2e-3)
	return NewExact(vol, arr, geom.Vec3{}, Converter{C: 1540, Fs: 32e6})
}

func TestExactWithTransmitMatchesDirectConstruction(t *testing.T) {
	e := transmitTestExact()
	tx := Transmit{Origin: geom.Vec3{X: 1e-3, Z: -5e-3}}
	q, err := e.WithTransmit(tx)
	if err != nil {
		t.Fatal(err)
	}
	want := NewExact(e.Vol, e.Arr, tx.Origin, e.Conv)
	for it := 0; it < e.Vol.Theta.N; it++ {
		for id := 0; id < e.Vol.Depth.N; id++ {
			if got, w := q.DelaySamples(it, 1, id, 2, 3), want.DelaySamples(it, 1, id, 2, 3); got != w {
				t.Fatalf("(%d,%d): %v != %v", it, id, got, w)
			}
		}
	}
	// The receiver is untouched: zero-origin law unchanged.
	if e.Origin != (geom.Vec3{}) {
		t.Error("WithTransmit mutated the receiver")
	}
	// The derived provider keeps the block/scalar bit-identity contract.
	bp, ok := q.(BlockProvider)
	if !ok {
		t.Fatal("derived exact provider must stay a BlockProvider")
	}
	ids := make([]int, e.Vol.Depth.N)
	for id := range ids {
		ids[id] = id
	}
	checkFill16(t, bp, ids)
}

func TestForTransmitsDerivesAndRejects(t *testing.T) {
	e := transmitTestExact()
	txs := SteeredTransmits(3, 5e-3, 4e-3)
	provs, err := ForTransmits(e, txs)
	if err != nil {
		t.Fatal(err)
	}
	if len(provs) != 3 {
		t.Fatalf("got %d providers", len(provs))
	}
	// Distinct origins → distinct transmit legs at an off-axis probe point
	// (an on-axis point is equidistant from the ±x sources by symmetry).
	d0 := provs[0].DelaySamples(4, 1, 4, 1, 1)
	d2 := provs[2].DelaySamples(4, 1, 4, 1, 1)
	if d0 == d2 {
		t.Error("steered transmits produced identical delays")
	}
	// Empty set: the provider itself, unwrapped.
	same, err := ForTransmits(e, nil)
	if err != nil || len(same) != 1 || same[0] != Provider(e) {
		t.Errorf("empty transmit set must return the provider itself: %v %v", same, err)
	}
	// A provider without transmit support is rejected with a clear error.
	plain := struct{ Provider }{e}
	if _, err := ForTransmit(plain, Transmit{}); err == nil {
		t.Error("non-TransmitProvider must be rejected")
	}
}

func TestSteeredTransmitsGeometry(t *testing.T) {
	txs := SteeredTransmits(4, 5e-3, 8e-3)
	if len(txs) != 4 {
		t.Fatalf("got %d transmits", len(txs))
	}
	for i, tx := range txs {
		if tx.Origin.Z != -5e-3 {
			t.Errorf("transmit %d: virtual source must sit behind the aperture, z = %v", i, tx.Origin.Z)
		}
	}
	if txs[0].Origin.X != -4e-3 || txs[3].Origin.X != 4e-3 {
		t.Errorf("lateral span endpoints wrong: %v .. %v", txs[0].Origin.X, txs[3].Origin.X)
	}
	// Symmetric set: offsets sum to zero.
	sum := 0.0
	for _, tx := range txs {
		sum += tx.Origin.X
	}
	if math.Abs(sum) > 1e-15 {
		t.Errorf("lateral offsets must be symmetric, sum %v", sum)
	}
	// Degenerate counts collapse to the centered default.
	if one := SteeredTransmits(1, 5e-3, 8e-3); one[0].Origin.X != 0 {
		t.Errorf("single transmit must be centered: %v", one[0])
	}
	if zero := SteeredTransmits(0, 5e-3, 8e-3); len(zero) != 1 || zero[0] != (Transmit{}) {
		t.Errorf("n ≤ 0 must yield the zero transmit: %v", zero)
	}
}

func TestAxialTransmitsGeometry(t *testing.T) {
	txs := AxialTransmits(3, -6e-3, -2e-3)
	if len(txs) != 3 {
		t.Fatalf("got %d transmits", len(txs))
	}
	for i, tx := range txs {
		if tx.Origin.X != 0 || tx.Origin.Y != 0 {
			t.Errorf("transmit %d off axis: %v", i, tx.Origin)
		}
	}
	if txs[0].Origin.Z != -6e-3 || txs[1].Origin.Z != -4e-3 || txs[2].Origin.Z != -2e-3 {
		t.Errorf("axial spacing wrong: %v", txs)
	}
}
