package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the full frame decode path —
// header validation, chunk de-framing, and both streaming decoders (the
// i16 plane decoder on i16 frames, DecodeF64 on every frame) — and
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
		f64R := bytes.NewReader(data[len(data)-r.Len():])
		dst := make([]float64, h.Samples())
		errF64 := DecodeF64(f64R, h, dst)

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
		if h.Encoding != EncodingI16 {
			return
		}
		// An i16 frame also decodes into a guarded int16 plane. Both decoders
		// walk the same chunk stream: they must agree on whether the payload
		// is well-formed, and int16·scale must be exactly DecodeF64's sample.
		stride := h.Window + 1
		plane := make([]int16, h.Elements*stride)
		errPlane := DecodePlaneI16(bytes.NewReader(data[len(data)-r.Len():]), h, plane, stride)
		if (errPlane == nil) != (errF64 == nil) {
			t.Fatalf("decoder disagreement: DecodePlaneI16 err=%v, DecodeF64 err=%v", errPlane, errF64)
		}
		if errPlane != nil {
			return
		}
		for d := 0; d < h.Elements; d++ {
			for j := 0; j < h.Window; j++ {
				got := float64(plane[d*stride+j]) * float64(h.Scale)
				if want := dst[d*h.Window+j]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("sample (%d,%d): plane %v vs f64 %v", d, j, got, want)
				}
			}
			if plane[d*stride+h.Window] != 0 {
				t.Fatalf("guard slot of element %d written", d)
			}
		}
	})
}

// FuzzReadHello throws arbitrary bytes at the hello parser — the first
// thing a server or the cluster relay reads from an untrusted client. A
// hello that parses must be exactly what WriteHello emits for its query,
// and nothing past it may be consumed. Seeds: testdata/fuzz/FuzzReadHello
// (a valid hello, an empty query, a bad magic, a truncated query, a length
// past the input).
func FuzzReadHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		q, err := ReadHello(r)
		if err != nil {
			return
		}
		var want bytes.Buffer
		if err := WriteHello(&want, q); err != nil {
			t.Fatalf("parsed query %q does not re-encode: %v", q, err)
		}
		if used := data[:len(data)-r.Len()]; !bytes.Equal(used, want.Bytes()) {
			t.Fatalf("consumed %q, re-encodes as %q", used, want.Bytes())
		}
	})
}

// FuzzCopyVolume throws arbitrary bytes at the relay's volume copier — the
// one parser of backend bytes on the cluster's stream path. The contract:
// a failed copy writes nothing toward the client; a GOAWAY is consumed and
// writes nothing; any other message crosses verbatim and alone; and every
// message ReadVolume accepts (or reports as a remote error) relays. Seeds:
// testdata/fuzz/FuzzCopyVolume (OK, error and GOAWAY statuses, a truncated
// payload, a bad magic, non-zero reserved bytes, an oversized length).
func FuzzCopyVolume(f *testing.F) {
	const maxPayload = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		var dst bytes.Buffer
		r := bytes.NewReader(data)
		status, err := CopyVolume(&dst, r, maxPayload)
		_, rerr := ReadVolume(bytes.NewReader(data), maxPayload)
		var re *RemoteError
		if (rerr == nil || errors.As(rerr, &re)) && err != nil {
			t.Fatalf("ReadVolume accepts the message (%v), CopyVolume fails: %v", rerr, err)
		}
		if err != nil {
			if dst.Len() != 0 {
				t.Fatalf("failed copy leaked %d bytes toward the client", dst.Len())
			}
			return
		}
		used := data[:len(data)-r.Len()]
		if status != used[4] || (re != nil && re.Status != status) {
			t.Fatalf("status %d for a message whose status byte is %d", status, used[4])
		}
		if status == StatusGoAway {
			if dst.Len() != 0 {
				t.Fatalf("GOAWAY leaked %d bytes toward the client", dst.Len())
			}
			return
		}
		if !bytes.Equal(dst.Bytes(), used) {
			t.Fatalf("relayed %d bytes, consumed %d: not verbatim", dst.Len(), len(used))
		}
	})
}

// FuzzCopyFrame throws arbitrary bytes at the relay's frame copier — the
// cluster router's one parser of client payload bytes on the stream path —
// with ReadFrame, the whole-frame decoder, as its differential. The
// contract: the copier accepts exactly the frames ReadFrame accepts,
// consumes exactly the same bytes, relays them verbatim (header re-marshaled
// byte for byte, chunk prefixes included), and the relayed bytes decode to
// the same samples. Seeds: testdata/fuzz/FuzzCopyFrame (one valid frame per
// encoding, chunked and whole, one followed by the next frame; zero,
// oversized and overrunning chunk prefixes; torn headers, prefixes and
// payloads; a bad magic).
func FuzzCopyFrame(f *testing.F) {
	const maxPayload = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		h, err := ReadHeader(r)
		if err != nil || h.PayloadBytes() > maxPayload {
			return // the relay copies only headers it has read and checked
		}
		var dst bytes.Buffer
		errCopy := CopyFrame(&dst, r, h)
		ref := bytes.NewReader(data)
		want, errRead := ReadFrame(ref, maxPayload)
		if (errCopy == nil) != (errRead == nil) {
			t.Fatalf("CopyFrame err=%v, ReadFrame err=%v", errCopy, errRead)
		}
		if errCopy != nil {
			return
		}
		used := data[:len(data)-r.Len()]
		if ref.Len() != r.Len() {
			t.Fatalf("CopyFrame consumed %d bytes, ReadFrame %d", len(used), len(data)-ref.Len())
		}
		if !bytes.Equal(dst.Bytes(), used) {
			t.Fatalf("relayed %d bytes, consumed %d: not verbatim", dst.Len(), len(used))
		}
		got, err := ReadFrame(bytes.NewReader(dst.Bytes()), maxPayload)
		if err != nil {
			t.Fatalf("relayed frame does not decode: %v", err)
		}
		if got.Header != want.Header || !slices.Equal(got.I16, want.I16) ||
			!slices.EqualFunc(got.F32, want.F32, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) ||
			!slices.EqualFunc(got.F64, want.F64, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatal("relayed frame decodes to different samples")
		}
	})
}

// FuzzReadHelloReply throws arbitrary bytes at the handshake reply parser —
// what the SDK and the cluster relay read first from a backend. A reply
// that parses, accepted or refused, must be exactly what WriteHelloReply
// emits for its status and message, and nothing past it may be consumed;
// the only other outcome is a short read. Seeds:
// testdata/fuzz/FuzzReadHelloReply (ok with and without a message, error
// and overloaded refusals, a torn prefix, a torn message, a length past
// the input, an ok followed by a volume).
func FuzzReadHelloReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		err := ReadHelloReply(r)
		var re *RemoteError
		var status uint8
		var msg string
		switch {
		case err == nil:
			msg = string(data[3 : len(data)-r.Len()])
		case errors.As(err, &re):
			if re.Status == 0 {
				t.Fatalf("refusal with status 0: %v", err)
			}
			status, msg = re.Status, re.Msg
		default:
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("not a short read: %v", err)
			}
			return
		}
		var want bytes.Buffer
		if err := WriteHelloReply(&want, status, msg); err != nil {
			t.Fatal(err)
		}
		if used := data[:len(data)-r.Len()]; !bytes.Equal(used, want.Bytes()) {
			t.Fatalf("consumed %q, re-encodes as %q", used, want.Bytes())
		}
	})
}
