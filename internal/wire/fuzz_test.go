package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the full frame decode path —
// header validation, chunk de-framing, and both streaming decoders — and
// asserts the only outcomes are a clean error or a frame whose header
// passed Validate. The seed corpus covers every valid encoding plus the
// malformed-header families TestReadHeaderRejectsMalformed enumerates.
func FuzzDecodeFrame(f *testing.F) {
	seed := func(mutate func([]byte)) []byte {
		src := testSamples(3 * 11)
		q, scale := QuantizeI16(src)
		fr := &Frame{Header: header(EncodingI16, 3, 11, scale), I16: q}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr, 16); err != nil {
			f.Fatalf("seed frame: %v", err)
		}
		b := buf.Bytes()
		if mutate != nil {
			mutate(b)
		}
		return b
	}
	// Valid frames, one per encoding.
	f.Add(seed(nil))
	for _, enc := range []Encoding{EncodingF64, EncodingF32} {
		src := testSamples(2 * 9)
		fr := &Frame{Header: header(enc, 2, 9, 0)}
		if enc == EncodingF64 {
			fr.F64 = src
		} else {
			fr.F32 = make([]float32, len(src))
			for i, v := range src {
				fr.F32[i] = float32(v)
			}
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr, 0); err != nil {
			f.Fatalf("seed frame: %v", err)
		}
		f.Add(buf.Bytes())
	}
	// Malformed-header corpus: every rejection family gets a seed.
	f.Add(seed(func(b []byte) { copy(b, "NOPE") }))                                             // magic
	f.Add(seed(func(b []byte) { b[4] = 2 }))                                                    // version
	f.Add(seed(func(b []byte) { b[5] = 200 }))                                                  // encoding
	f.Add(seed(func(b []byte) { b[7] = 0xff }))                                                 // flags
	f.Add(seed(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 0) }))                     // zero elements
	f.Add(seed(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], math.MaxUint32) }))        // huge elements
	f.Add(seed(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], math.MaxUint32) }))       // huge window
	f.Add(seed(func(b []byte) { binary.LittleEndian.PutUint16(b[16:], 9) }))                    // tx index ≥ count
	f.Add(seed(func(b []byte) { binary.LittleEndian.PutUint32(b[20:], math.Float32bits(-1)) })) // negative scale
	f.Add(seed(func(b []byte) { binary.LittleEndian.PutUint64(b[24:], 1) }))                    // payload mismatch
	f.Add(seed(func(b []byte) { binary.LittleEndian.PutUint32(b[HeaderBytes:], 0) }))           // zero chunk
	f.Add(seed(func(b []byte) { binary.LittleEndian.PutUint32(b[HeaderBytes:], MaxChunk+1) }))  // giant chunk
	f.Add(seed(nil)[:HeaderBytes+7])                                                            // truncated payload
	f.Add(seed(nil)[:13])                                                                       // truncated header
	f.Add([]byte{})
	// Torn-frame corpus: the cine stream reconnects after a client dies
	// mid-upload, so every structurally distinct truncation point a torn
	// TCP stream can produce gets a seed — the decoders must report all of
	// them as clean errors, never short-read garbage or a hang.
	full := seed(nil)
	f.Add(full[:HeaderBytes])        // header complete, no chunk prefix
	f.Add(full[:HeaderBytes+2])      // torn inside a chunk length prefix
	f.Add(full[:HeaderBytes+4])      // chunk prefix complete, zero payload bytes
	f.Add(full[:HeaderBytes+4+9])    // torn mid-sample (odd byte of an i16)
	f.Add(full[:HeaderBytes+4+16])   // cut exactly at a chunk boundary
	f.Add(full[:HeaderBytes+4+16+2]) // torn inside the second chunk prefix
	f.Add(full[:len(full)-1])        // one byte short of a complete frame
	{
		src := testSamples(2 * 9)
		fr := &Frame{Header: header(EncodingF64, 2, 9, 0), F64: src}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr, 0); err != nil {
			f.Fatalf("seed frame: %v", err)
		}
		b := buf.Bytes()
		f.Add(b[:HeaderBytes+4+11]) // torn mid-sample (f64 lane)
	}
	// The f64 lane again in 24-byte chunks — DecodeF64's in-place route
	// crosses a chunk prefix every three samples — torn and oversized.
	{
		fr := &Frame{Header: header(EncodingF64, 2, 9, 0), F64: testSamples(2 * 9)}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr, 24); err != nil {
			f.Fatalf("seed frame: %v", err)
		}
		b := buf.Bytes()
		f.Add(bytes.Clone(b))                                             // complete, six chunks
		f.Add(b[:HeaderBytes+(4+24)*2])                                   // cut at the second chunk boundary
		f.Add(b[:HeaderBytes+(4+24)*2+4+13])                              // torn mid-sample in the third chunk
		f.Add(b[:len(b)-1])                                               // one byte short
		f.Add(append(bytes.Clone(b), b[HeaderBytes:HeaderBytes+4+24]...)) // a seventh chunk after the payload
		over := bytes.Clone(b)
		binary.LittleEndian.PutUint32(over[HeaderBytes+(4+24)*5:], 25) // last chunk overruns the payload by one
		f.Add(append(over, 0))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		h, err := ReadHeader(r)
		if err != nil {
			return // rejected before any payload byte — the contract
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("ReadHeader returned an invalid header %+v: %v", h, err)
		}
		// Cap what a fuzz input may make us allocate; real frames are far
		// larger, but the decoders must stay correct at any accepted size.
		if h.PayloadBytes() > 1<<20 {
			return
		}
		planeR := bytes.NewReader(data[len(data)-r.Len():])
		stride := h.Window + 1
		plane := make([]float32, h.Elements*stride)
		errPlane := DecodePlane(planeR, h, plane, stride)

		f64R := bytes.NewReader(data[len(data)-r.Len():])
		dst := make([]float64, h.Samples())
		errF64 := DecodeF64(f64R, h, dst)

		// Both decoders walk the same chunk stream: they must agree on
		// whether the payload is well-formed.
		if (errPlane == nil) != (errF64 == nil) {
			t.Fatalf("decoder disagreement: DecodePlane err=%v, DecodeF64 err=%v", errPlane, errF64)
		}
		// The in-place f64 route and the portable loop are one decoder.
		if h.Encoding == EncodingF64 {
			slow := make([]float64, h.Samples())
			errSlow := decodeF64Portable(newChunkReader(bytes.NewReader(data[len(data)-r.Len():]), h), h, slow)
			if (errSlow == nil) != (errF64 == nil) || (errSlow != nil && errSlow.Error() != errF64.Error()) {
				t.Fatalf("f64 routes disagree: DecodeF64 err=%v, portable err=%v", errF64, errSlow)
			}
			for i := range slow {
				if errSlow == nil && math.Float64bits(slow[i]) != math.Float64bits(dst[i]) {
					t.Fatalf("sample %d: DecodeF64 %#x, portable %#x", i, math.Float64bits(dst[i]), math.Float64bits(slow[i]))
				}
			}
		}
		if errPlane != nil {
			return
		}
		// And on the sample values (modulo the float32 narrowing DecodeF64
		// does not perform for f64 payloads).
		for d := 0; d < h.Elements; d++ {
			for j := 0; j < h.Window; j++ {
				want := float32(dst[d*h.Window+j])
				got := plane[d*stride+j]
				if math.Float32bits(got) != math.Float32bits(want) && !(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
					t.Fatalf("sample (%d,%d): plane %v vs f64 %v", d, j, got, want)
				}
			}
		}
	})
}
