package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestQuantizeI16(t *testing.T) {
	t.Run("saturation_and_nonfinite", func(t *testing.T) {
		src := []float64{0, 1, -1, 0.5, math.Inf(1), math.Inf(-1), math.NaN()}
		q, scale := QuantizeI16(src)
		if scale != float32(1.0/32767) {
			t.Fatalf("scale = %v, want %v", scale, float32(1.0/32767))
		}
		want := []int16{0, 32767, -32767, 16384, 32767, -32767, 0}
		for i, v := range q {
			if v != want[i] {
				t.Fatalf("q[%d] = %d, want %d (src %v)", i, v, want[i], src[i])
			}
		}
	})
	t.Run("all_zero", func(t *testing.T) {
		q, scale := QuantizeI16(make([]float64, 4))
		if scale != 1 {
			t.Fatalf("all-zero scale = %v, want 1", scale)
		}
		for _, v := range q {
			if v != 0 {
				t.Fatalf("all-zero frame quantized to %v", q)
			}
		}
	})
	t.Run("snr", func(t *testing.T) {
		src := testSamples(4096)
		q, scale := QuantizeI16(src)
		var sig, noise float64
		for i, v := range src {
			d := v - float64(q[i])*float64(scale)
			sig += v * v
			noise += d * d
		}
		snr := 10 * math.Log10(sig/noise)
		if snr < 60 {
			t.Fatalf("i16 quantization SNR = %.1f dB, want ≥ 60", snr)
		}
	})
}

func TestVolumeMessageRoundTrip(t *testing.T) {
	data := make([]float64, 3*4*5)
	for i := range data {
		data[i] = float64(i) * 0.25
	}
	for _, enc := range []Encoding{EncodingF64, EncodingF32} {
		t.Run(enc.String(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteVolume(&buf, enc, 3, 4, 5, data); err != nil {
				t.Fatalf("WriteVolume: %v", err)
			}
			vol, err := ReadVolume(&buf, 0)
			if err != nil {
				t.Fatalf("ReadVolume: %v", err)
			}
			if vol.Theta != 3 || vol.Phi != 4 || vol.Depth != 5 {
				t.Fatalf("dims = %d×%d×%d", vol.Theta, vol.Phi, vol.Depth)
			}
			for i, v := range vol.Data {
				want := data[i]
				if enc == EncodingF32 {
					want = float64(float32(want))
				}
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("%s voxel %d: %v != %v", enc, i, v, want)
				}
			}
		})
	}
	t.Run("error_status", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteVolumeError(&buf, 7, "queue full"); err != nil {
			t.Fatalf("WriteVolumeError: %v", err)
		}
		_, err := ReadVolume(&buf, 0)
		if err == nil || !strings.Contains(err.Error(), "queue full") {
			t.Fatalf("error status round trip: %v", err)
		}
		var re *RemoteError
		if !asRemoteError(err, &re) || re.Status != 7 {
			t.Fatalf("want RemoteError status 7, got %v", err)
		}
	})
}

func asRemoteError(err error, target **RemoteError) bool {
	re, ok := err.(*RemoteError)
	if ok {
		*target = re
	}
	return ok
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	q := "spec=b5&precision=float32&out=scanline&theta=12&phi=12"
	if err := WriteHello(&buf, q); err != nil {
		t.Fatalf("WriteHello: %v", err)
	}
	got, err := ReadHello(&buf)
	if err != nil {
		t.Fatalf("ReadHello: %v", err)
	}
	if got != q {
		t.Fatalf("hello query %q != %q", got, q)
	}
	if _, err := ReadHello(strings.NewReader("XXXX\x00\x00")); err == nil {
		t.Fatal("bad hello magic accepted")
	}
}
