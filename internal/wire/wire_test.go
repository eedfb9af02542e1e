package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// testSamples builds a deterministic echo-like signal with a wide dynamic
// range — the shape the quantizer has to survive.
func testSamples(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 0.75 * math.Sin(float64(i)*0.37) * math.Exp(-float64(i%97)/40)
	}
	return s
}

func header(enc Encoding, elems, win int, scale float32) Header {
	return Header{Encoding: enc, Elements: elems, Window: win, TxCount: 1, Scale: scale}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Encoding: EncodingI16, Lane: 1, Elements: 144, Window: 8512, TxIndex: 2, TxCount: 5, Scale: 0.0125}
	var raw [HeaderBytes]byte
	h.marshal(raw[:])
	got, err := ReadHeader(bytes.NewReader(raw[:]))
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	if got != h {
		t.Fatalf("header round trip: got %+v want %+v", got, h)
	}
}

func TestFrameRoundTripAllEncodings(t *testing.T) {
	const elems, win = 7, 53
	src := testSamples(elems * win)

	for _, chunk := range []int{0, 64, 1 << 20} {
		t.Run("f64", func(t *testing.T) {
			f := &Frame{Header: header(EncodingF64, elems, win, 0), F64: append([]float64(nil), src...)}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, f, chunk); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			if got, want := int64(buf.Len()), FrameWireBytes(f.Header, chunk); got != want {
				t.Fatalf("wire bytes = %d, FrameWireBytes = %d", got, want)
			}
			rt, err := ReadFrame(bytes.NewReader(buf.Bytes()), 0)
			if err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			for i, v := range rt.F64 {
				if math.Float64bits(v) != math.Float64bits(src[i]) {
					t.Fatalf("f64 sample %d: %v != %v (not bit-exact)", i, v, src[i])
				}
			}
		})
		t.Run("f32", func(t *testing.T) {
			f32 := make([]float32, len(src))
			for i, v := range src {
				f32[i] = float32(v)
			}
			f := &Frame{Header: header(EncodingF32, elems, win, 0), F32: f32}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, f, chunk); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			rt, err := ReadFrame(bytes.NewReader(buf.Bytes()), 0)
			if err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			for i, v := range rt.F32 {
				if math.Float32bits(v) != math.Float32bits(f32[i]) {
					t.Fatalf("f32 sample %d: %v != %v (not bit-exact)", i, v, f32[i])
				}
			}
		})
		t.Run("i16", func(t *testing.T) {
			q, scale := QuantizeI16(src)
			f := &Frame{Header: header(EncodingI16, elems, win, scale), I16: q}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, f, chunk); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			rt, err := ReadFrame(bytes.NewReader(buf.Bytes()), 0)
			if err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			if rt.Scale != scale {
				t.Fatalf("scale %v != %v", rt.Scale, scale)
			}
			for i, v := range rt.I16 {
				if v != q[i] {
					t.Fatalf("i16 sample %d: %d != %d", i, v, q[i])
				}
			}
		})
	}
}

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

func TestDecodePlane(t *testing.T) {
	const elems, win, stride = 5, 37, 38
	src := testSamples(elems * win)

	for _, enc := range []Encoding{EncodingF64, EncodingF32, EncodingI16} {
		t.Run(enc.String(), func(t *testing.T) {
			f := &Frame{Header: header(enc, elems, win, 0)}
			switch enc {
			case EncodingF64:
				f.F64 = src
			case EncodingF32:
				f.F32 = make([]float32, len(src))
				for i, v := range src {
					f.F32[i] = float32(v)
				}
			case EncodingI16:
				f.I16, f.Scale = QuantizeI16(src)
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, f, 96); err != nil { // force many small chunks
				t.Fatalf("WriteFrame: %v", err)
			}
			h, err := ReadHeader(&buf)
			if err != nil {
				t.Fatalf("ReadHeader: %v", err)
			}
			plane := make([]float32, elems*stride)
			for i := range plane {
				plane[i] = -999 // poison: guard slots must stay untouched... by decode
			}
			if err := DecodePlane(&buf, h, plane, stride); err != nil {
				t.Fatalf("DecodePlane: %v", err)
			}
			for d := 0; d < elems; d++ {
				for j := 0; j < win; j++ {
					var want float32
					switch enc {
					case EncodingF64:
						want = float32(src[d*win+j])
					case EncodingF32:
						want = float32(src[d*win+j])
					case EncodingI16:
						want = float32(f.I16[d*win+j]) * f.Scale
					}
					if got := plane[d*stride+j]; math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%s plane[%d,%d] = %v, want %v", enc, d, j, got, want)
					}
				}
				if plane[d*stride+win] != -999 {
					t.Fatalf("guard slot of element %d overwritten: %v", d, plane[d*stride+win])
				}
			}
		})
	}
}

func TestDecodeF64MatchesSource(t *testing.T) {
	const elems, win = 4, 61
	src := testSamples(elems * win)
	f := &Frame{Header: header(EncodingF64, elems, win, 0), F64: src}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f, 128); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	h, err := ReadHeader(&buf)
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	dst := make([]float64, elems*win)
	if err := DecodeF64(&buf, h, dst); err != nil {
		t.Fatalf("DecodeF64: %v", err)
	}
	for i, v := range dst {
		if math.Float64bits(v) != math.Float64bits(src[i]) {
			t.Fatalf("sample %d not bit-exact: %v != %v", i, v, src[i])
		}
	}
}

func TestDecodePlaneRejectsBadGeometry(t *testing.T) {
	h := header(EncodingF32, 4, 16, 0)
	if err := DecodePlane(strings.NewReader(""), h, make([]float32, 4*16), 16); err == nil {
		t.Fatal("stride == window (no guard slot) accepted")
	}
	if err := DecodePlane(strings.NewReader(""), h, make([]float32, 10), 17); err == nil {
		t.Fatal("short plane accepted")
	}
}

func TestReadHeaderRejectsMalformed(t *testing.T) {
	valid := func() []byte {
		var raw [HeaderBytes]byte
		header(EncodingF32, 8, 64, 0).marshal(raw[:])
		return raw[:]
	}
	cases := []struct {
		name    string
		mutate  func([]byte)
		errPart string
	}{
		{"magic", func(b []byte) { b[0] = 'X' }, "magic"},
		{"version", func(b []byte) { b[4] = 9 }, "version"},
		{"encoding", func(b []byte) { b[5] = 7 }, "encoding"},
		{"flags", func(b []byte) { b[7] = 1 }, "flag"},
		{"zero_elements", func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 0) }, "elements"},
		{"huge_elements", func(b []byte) { binary.LittleEndian.PutUint32(b[8:], MaxElements+1) }, "elements"},
		{"zero_window", func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 0) }, "window"},
		{"huge_window", func(b []byte) { binary.LittleEndian.PutUint32(b[12:], MaxWindow+1) }, "window"},
		{"tx_index", func(b []byte) { binary.LittleEndian.PutUint16(b[16:], 3) }, "transmit"},
		{"zero_txcount", func(b []byte) { binary.LittleEndian.PutUint16(b[18:], 0) }, "transmit"},
		{"f32_scale", func(b []byte) { binary.LittleEndian.PutUint32(b[20:], math.Float32bits(2)) }, "scale"},
		{"payload_mismatch", func(b []byte) { binary.LittleEndian.PutUint64(b[24:], 12345) }, "payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := valid()
			tc.mutate(raw)
			_, err := ReadHeader(bytes.NewReader(raw))
			if err == nil {
				t.Fatal("malformed header accepted")
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}
	t.Run("i16_needs_scale", func(t *testing.T) {
		var raw [HeaderBytes]byte
		h := header(EncodingI16, 8, 64, 0) // scale 0 is invalid for i16
		h.marshal(raw[:])
		if _, err := ReadHeader(bytes.NewReader(raw[:])); err == nil {
			t.Fatal("i16 header with zero scale accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := ReadHeader(bytes.NewReader(valid()[:10])); err == nil {
			t.Fatal("truncated header accepted")
		}
	})
}

func TestChunkFramingRejectsMalformed(t *testing.T) {
	h := header(EncodingF32, 2, 8, 0) // payload 64 bytes
	frame := func(chunks ...[]byte) *bytes.Reader {
		var buf bytes.Buffer
		var raw [HeaderBytes]byte
		h.marshal(raw[:])
		buf.Write(raw[:])
		for _, c := range chunks {
			var pre [4]byte
			binary.LittleEndian.PutUint32(pre[:], uint32(len(c)))
			buf.Write(pre[:])
			buf.Write(c)
		}
		return bytes.NewReader(buf.Bytes())
	}
	t.Run("zero_chunk", func(t *testing.T) {
		r := frame(nil, make([]byte, 64))
		hh, err := ReadHeader(r)
		if err != nil {
			t.Fatalf("ReadHeader: %v", err)
		}
		if err := DecodePlane(r, hh, make([]float32, 2*9), 9); err == nil {
			t.Fatal("zero-length chunk accepted")
		}
	})
	t.Run("overrun_chunk", func(t *testing.T) {
		r := frame(make([]byte, 100))
		hh, err := ReadHeader(r)
		if err != nil {
			t.Fatalf("ReadHeader: %v", err)
		}
		if err := DecodePlane(r, hh, make([]float32, 2*9), 9); err == nil {
			t.Fatal("chunk overrunning the payload accepted")
		}
	})
	t.Run("truncated_payload", func(t *testing.T) {
		r := frame(make([]byte, 32)) // only half the payload, then EOF
		hh, err := ReadHeader(r)
		if err != nil {
			t.Fatalf("ReadHeader: %v", err)
		}
		if err := DecodePlane(r, hh, make([]float32, 2*9), 9); err == nil {
			t.Fatal("truncated payload accepted")
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

// TestDecodePlaneI16 pins the ADC-native ingest fast path: an i16 frame
// streams bit-exactly into a guarded int16 plane (near-memcpy — the int16
// words land untouched), guard slots stay untouched, and the scale rides
// in the header unchanged.
func TestDecodePlaneI16(t *testing.T) {
	const elems, win, stride = 5, 37, 38
	src := testSamples(elems * win)
	q, scale := QuantizeI16(src)
	f := &Frame{Header: header(EncodingI16, elems, win, scale), I16: q}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f, 96); err != nil { // force many small chunks
		t.Fatalf("WriteFrame: %v", err)
	}
	h, err := ReadHeader(&buf)
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	if h.Scale != scale {
		t.Fatalf("header scale %v != %v", h.Scale, scale)
	}
	plane := make([]int16, elems*stride)
	for i := range plane {
		plane[i] = -999 // poison: guard slots must stay untouched by decode
	}
	if err := DecodePlaneI16(&buf, h, plane, stride); err != nil {
		t.Fatalf("DecodePlaneI16: %v", err)
	}
	for d := 0; d < elems; d++ {
		for j := 0; j < win; j++ {
			if got := plane[d*stride+j]; got != q[d*win+j] {
				t.Fatalf("plane[%d,%d] = %d, want %d (not bit-exact)", d, j, got, q[d*win+j])
			}
		}
		if plane[d*stride+win] != -999 {
			t.Fatalf("guard slot of element %d overwritten: %v", d, plane[d*stride+win])
		}
	}
}

// TestDecodePlaneI16Rejects pins the fast path's refusal surface: only
// EncodingI16 frames qualify, and the guarded-plane geometry checks match
// DecodePlane's.
func TestDecodePlaneI16Rejects(t *testing.T) {
	const elems, win = 4, 16
	for _, enc := range []Encoding{EncodingF32, EncodingF64} {
		h := header(enc, elems, win, 0)
		if err := DecodePlaneI16(strings.NewReader(""), h, make([]int16, elems*(win+1)), win+1); err == nil {
			t.Fatalf("%s frame accepted by the i16-only decoder", enc)
		}
	}
	h := header(EncodingI16, elems, win, 0.01)
	if err := DecodePlaneI16(strings.NewReader(""), h, make([]int16, elems*win), win); err == nil {
		t.Fatal("stride == window (no guard slot) accepted")
	}
	if err := DecodePlaneI16(strings.NewReader(""), h, make([]int16, 10), win+1); err == nil {
		t.Fatal("short plane accepted")
	}
	// Truncated payload: the streaming read must surface the torn frame.
	src := testSamples(elems * win)
	q, scale := QuantizeI16(src)
	f := &Frame{Header: header(EncodingI16, elems, win, scale), I16: q}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:HeaderBytes+40]
	rh, err := ReadHeader(bytes.NewReader(raw[:HeaderBytes]))
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodePlaneI16(bytes.NewReader(raw[HeaderBytes:]), rh, make([]int16, elems*(win+1)), win+1); err == nil {
		t.Fatal("truncated i16 payload decoded without error")
	}
}

// TestDecodeF64ZeroCopyMatchesPortable is the differential test of the two
// f64 ingest routes: on a little-endian host DecodeF64 reads an f64 payload
// straight into dst's bytes, and it must be indistinguishable from the
// portable scratch-and-convert loop — same sample bits (random bit patterns,
// so NaN payloads and signed zeros are in the data), same error text for a
// stream cut at every byte of the chunk stream (chunk boundaries, inside a
// prefix, mid-sample) or carrying an oversize chunk, and dst beyond
// h.Samples() untouched on every outcome.
func TestDecodeF64ZeroCopyMatchesPortable(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: the portable loop is the only route")
	}
	const sentinel = 0x5e11_7e1d_dead_beef
	rng := uint64(0xdec0de)
	decode := func(stream []byte, h Header, portable bool) ([]float64, error) {
		dst := make([]float64, h.Samples()+5)
		for i := range dst {
			dst[i] = math.Float64frombits(sentinel)
		}
		var err error
		if r := bytes.NewReader(stream); portable {
			err = decodeF64Portable(newChunkReader(r, h), h, dst)
		} else {
			err = DecodeF64(r, h, dst)
		}
		for i, v := range dst[h.Samples():] {
			if math.Float64bits(v) != sentinel {
				t.Fatalf("portable=%t: dst[Samples()+%d] overwritten with %#x", portable, i, math.Float64bits(v))
			}
		}
		return dst[:h.Samples()], err
	}
	// 3×37 samples in sample-sized, sample-splitting, multi-sample and single
	// chunks; 3×9000 samples (216 kB) crosses the portable loop's 64 kB
	// scratch in DefaultChunk-sized and in odd 10 007-byte chunks.
	for _, c := range []struct{ elems, win, chunk int }{
		{3, 37, 8}, {3, 37, 13}, {3, 37, 100}, {3, 37, 0}, {3, 9000, 0}, {3, 9000, 10007},
	} {
		src := make([]float64, c.elems*c.win)
		for i := range src {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			src[i] = math.Float64frombits(rng)
		}
		h := header(EncodingF64, c.elems, c.win, 0)
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Frame{Header: h, F64: src}, c.chunk); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		stream := buf.Bytes()[HeaderBytes:]

		fast, errFast := decode(stream, h, false)
		slow, errSlow := decode(stream, h, true)
		if errFast != nil || errSlow != nil {
			t.Fatalf("chunk %d: complete frame rejected: zero-copy %v, portable %v", c.chunk, errFast, errSlow)
		}
		for i := range src {
			if math.Float64bits(fast[i]) != math.Float64bits(src[i]) || math.Float64bits(slow[i]) != math.Float64bits(src[i]) {
				t.Fatalf("chunk %d sample %d: zero-copy %#x, portable %#x, source %#x", c.chunk, i,
					math.Float64bits(fast[i]), math.Float64bits(slow[i]), math.Float64bits(src[i]))
			}
		}

		step := 1
		if len(stream) > 4096 {
			step = 997 // the large frames: a sample of cut points, all residues mod 8
		}
		for cut := 0; cut < len(stream); cut += step {
			_, errFast := decode(stream[:cut], h, false)
			_, errSlow := decode(stream[:cut], h, true)
			if errFast == nil || errSlow == nil || errFast.Error() != errSlow.Error() {
				t.Fatalf("chunk %d cut at %d of %d: zero-copy %v, portable %v", c.chunk, cut, len(stream), errFast, errSlow)
			}
		}

		// Oversize: the first chunk's prefix claims one byte more than the
		// whole payload.
		over := bytes.Clone(stream)
		binary.LittleEndian.PutUint32(over, uint32(h.PayloadBytes()+1))
		_, errFast = decode(over, h, false)
		_, errSlow = decode(over, h, true)
		if errFast == nil || errSlow == nil || errFast.Error() != errSlow.Error() {
			t.Fatalf("chunk %d oversize prefix: zero-copy %v, portable %v", c.chunk, errFast, errSlow)
		}
	}
}
