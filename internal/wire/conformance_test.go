// The wire decode matrix. Every frame a reader decodes goes through one of
// two routes per decoder: DecodeF64 reads an f64 payload straight into its
// destination's bytes on a little-endian host, and DecodePlaneI16 reads an
// i16 payload straight into the plane's rows; decodeF64Portable and the
// portable decodePlaneI16 are the scratch-and-convert twins a big-endian
// host runs. One case generator (wcase) names the frame — encoding,
// elements × window, chunk size, guard slots, source — and every case is
// written, read back with ReadFrame, and decoded through both routes of
// each decoder its encoding takes, which must agree bit for bit on the
// samples and word for word on the error of every cut and of an oversize
// chunk. The Test* functions are the matrix's rows and its refusal table;
// FuzzDecodeFrame is its fuzz target, seeded from both.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
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

// wcase is one frame of the matrix: enc samples, elems × win, in chunks of
// chunk payload bytes (0: DefaultChunk), decoded into a plane of extra
// guard slots per row. The source is testSamples, or with random set every
// bit pattern: NaN payloads and signed zeros in f64, both rails in i16.
type wcase struct {
	enc                      Encoding
	elems, win, chunk, extra int
	random                   bool
}

func (c wcase) String() string {
	return fmt.Sprintf("%s %d×%d chunk %d", c.enc, c.elems, c.win, c.chunk)
}

// frame is c's source frame, its lane and transmit fields varying with
// the shape.
func (c wcase) frame() *Frame {
	f := &Frame{Header: header(c.enc, c.elems, c.win, 0)}
	rng := uint64(c.elems*c.win + c.chunk)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	switch {
	case !c.random:
		var err error
		if f, err = NewFrame(c.enc, c.elems, c.win, 0, 1, testSamples(c.elems*c.win)); err != nil {
			panic(err)
		}
	case c.enc == EncodingF64:
		f.F64 = make([]float64, c.elems*c.win)
		for i := range f.F64 {
			f.F64[i] = math.Float64frombits(next())
		}
	case c.enc == EncodingI16:
		f.I16, f.Scale = make([]int16, c.elems*c.win), 0.5
		for i := range f.I16 {
			f.I16[i] = int16(next())
		}
		f.I16[0], f.I16[len(f.I16)-1] = math.MinInt16, math.MaxInt16
	default:
		panic("random sources are f64 or i16")
	}
	f.Lane, f.TxIndex, f.TxCount = uint8(c.win%3), c.elems%3, 3
	return f
}

// widened is f's samples as every float64 decode must produce them.
func widened(f *Frame) []float64 {
	out := make([]float64, f.Samples())
	for i := range out {
		switch f.Encoding {
		case EncodingF64:
			out[i] = f.F64[i]
		case EncodingF32:
			out[i] = float64(f.F32[i])
		case EncodingI16:
			out[i] = float64(f.I16[i]) * float64(f.Scale)
		}
	}
	return out
}

// sameBits reports the first index where a and b differ bitwise, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// sameErr holds two routes to one outcome: both nil, or the same text.
func sameErr(t testing.TB, what string, fast, slow error) {
	t.Helper()
	if (fast == nil) != (slow == nil) || (fast != nil && fast.Error() != slow.Error()) {
		t.Fatalf("%s: the routes disagree: %v against the portable %v", what, fast, slow)
	}
}

const sentinel, poison = 0x5e11_7e1d_dead_beef, -999

// decodeBoth decodes payload, the chunk stream behind header h, through
// DecodeF64 and decodeF64Portable and, for an i16 frame, through
// DecodePlaneI16 and the portable decodePlaneI16 into a plane of extra
// guard slots per row. Each pair must agree on the error and, decoded, on
// every sample; no route may write past its samples or into a guard slot,
// and the plane times the scale must be the float64 decode. It returns the
// float64 samples, the plane (nil but for i16) and the error.
func decodeBoth(t testing.TB, what string, h Header, payload []byte, extra int) ([]float64, []int16, error) {
	t.Helper()
	f64 := func(portable bool) ([]float64, error) {
		dst := make([]float64, h.Samples()+5)
		for i := range dst {
			dst[i] = math.Float64frombits(sentinel)
		}
		var err error
		if r := bytes.NewReader(payload); portable {
			err = decodeF64Portable(newChunkReader(r, h), h, dst)
		} else {
			err = DecodeF64(r, h, dst)
		}
		for i, v := range dst[h.Samples():] {
			if math.Float64bits(v) != sentinel {
				t.Fatalf("%s portable=%t: dst[Samples()+%d] overwritten with %#x", what, portable, i, math.Float64bits(v))
			}
		}
		return dst[:h.Samples()], err
	}
	got, err := f64(false)
	slow, errSlow := f64(true)
	sameErr(t, what+" DecodeF64", err, errSlow)
	if i := sameBits(got, slow); err == nil && i >= 0 {
		t.Fatalf("%s sample %d: DecodeF64 %#x, portable %#x", what, i, math.Float64bits(got[i]), math.Float64bits(slow[i]))
	}
	if h.Encoding != EncodingI16 {
		return got, nil, err
	}
	stride := h.Window + extra
	plane := func(portable bool) ([]int16, error) {
		p := make([]int16, h.Elements*stride+4)
		for i := range p {
			p[i] = poison
		}
		var err error
		if r := bytes.NewReader(payload); portable {
			err = decodePlaneI16(newChunkReader(r, h), h, p, stride, false)
		} else {
			err = DecodePlaneI16(r, h, p, stride)
		}
		for d := 0; d < h.Elements; d++ {
			for _, g := range p[d*stride+h.Window : (d+1)*stride] {
				if g != poison {
					t.Fatalf("%s portable=%t: guard slot of element %d overwritten with %d", what, portable, d, g)
				}
			}
		}
		for i, v := range p[h.Elements*stride:] {
			if v != poison {
				t.Fatalf("%s portable=%t: slot %d past the plane overwritten with %d", what, portable, i, v)
			}
		}
		return p, err
	}
	fast, errPlane := plane(false)
	pslow, errPSlow := plane(true)
	sameErr(t, what+" DecodePlaneI16", errPlane, errPSlow)
	if (errPlane == nil) != (err == nil) {
		t.Fatalf("%s: DecodePlaneI16 %v, DecodeF64 %v", what, errPlane, err)
	}
	if errPlane != nil {
		return got, fast, err
	}
	for d := 0; d < h.Elements; d++ {
		for j := 0; j < h.Window; j++ {
			k := d*stride + j
			if fast[k] != pslow[k] {
				t.Fatalf("%s element %d sample %d: direct %d, portable %d", what, d, j, fast[k], pslow[k])
			}
			if w := float64(fast[k]) * float64(h.Scale); math.Float64bits(w) != math.Float64bits(got[d*h.Window+j]) {
				t.Fatalf("%s element %d sample %d: plane %v, DecodeF64 %v", what, d, j, w, got[d*h.Window+j])
			}
		}
	}
	return got, fast, nil
}

// stream is c's frame as WriteFrame emits it.
func (c wcase) stream() (*Frame, []byte) {
	f := c.frame()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f, c.chunk); err != nil {
		panic(err)
	}
	return f, buf.Bytes()
}

// check runs c through the matrix: ReadFrame and ReadHeader give back the
// frame, CopyFrame relays it byte for byte, both routes of each decoder
// give back its samples, and every cut of the chunk stream (about 256 past
// 1 kB) fails the relay and both routes, with one error, as an oversize
// first chunk fails both routes.
func (c wcase) check(t *testing.T) {
	f, stream := c.stream()
	rt, err := ReadFrame(bytes.NewReader(stream), 0)
	if err != nil {
		t.Fatalf("%v: ReadFrame: %v", c, err)
	}
	if i := sameBits(widened(rt), widened(f)); rt.Header != f.Header || i >= 0 {
		t.Fatalf("%v: ReadFrame gave %+v, sample %d differs; want %+v", c, rt.Header, i, f.Header)
	}
	src := bytes.NewReader(stream)
	h, err := ReadHeader(src)
	if err != nil || h != f.Header {
		t.Fatalf("%v: ReadHeader %+v, %v; want %+v", c, h, err, f.Header)
	}
	var relayed bytes.Buffer
	if err := CopyFrame(&relayed, src, h); err != nil || src.Len() != 0 || !bytes.Equal(relayed.Bytes(), stream) {
		t.Fatalf("%v: CopyFrame relayed %d of %d bytes, %d left unread: %v", c, relayed.Len(), len(stream), src.Len(), err)
	}
	payload := stream[HeaderBytes:]
	got, plane, err := decodeBoth(t, c.String(), h, payload, c.extra)
	if err != nil {
		t.Fatalf("%v: complete frame refused: %v", c, err)
	}
	if i := sameBits(got, widened(f)); i >= 0 {
		t.Fatalf("%v sample %d: decoded %v, want %v", c, i, got[i], widened(f)[i])
	}
	for i, q := range f.I16 {
		if d, j := i/c.win, i%c.win; plane[d*(c.win+c.extra)+j] != q {
			t.Fatalf("%v element %d sample %d: plane %d, want %d", c, d, j, plane[d*(c.win+c.extra)+j], q)
		}
	}
	step := 1
	if len(payload) > 1024 {
		step = len(payload)/256 | 1 // odd: every residue mod 8 still comes up
	}
	for cut := 0; cut < len(payload); cut += step {
		_, _, err := decodeBoth(t, fmt.Sprintf("%v cut at %d", c, cut), h, payload[:cut], c.extra)
		if err == nil || CopyFrame(io.Discard, bytes.NewReader(payload[:cut]), h) == nil {
			t.Fatalf("%v cut at %d of %d: decoded or relayed", c, cut, len(payload))
		}
	}
	over := bytes.Clone(payload)
	binary.LittleEndian.PutUint32(over, uint32(h.PayloadBytes()+1))
	if _, _, err := decodeBoth(t, c.String()+" oversize chunk", h, over, c.extra); err == nil {
		t.Fatalf("%v: an oversize chunk decoded", c)
	}
}

var encodings = []Encoding{EncodingF64, EncodingF32, EncodingI16}

// TestFrameRoundTripAllEncodings is the matrix over every encoding in
// DefaultChunk, 64-byte and 1 MiB chunks.
func TestFrameRoundTripAllEncodings(t *testing.T) {
	for _, chunk := range []int{0, 64, 1 << 20} {
		for _, enc := range encodings {
			t.Run(enc.String(), wcase{enc: enc, elems: 7, win: 53, chunk: chunk, extra: 1}.check)
		}
	}
}

// TestDecodeF64Widens is the matrix over every encoding in 96-byte chunks:
// f32 and i16 widen exactly, as every float32 and int16·scale is a float64.
func TestDecodeF64Widens(t *testing.T) {
	for _, enc := range encodings {
		t.Run(enc.String(), wcase{enc: enc, elems: 5, win: 37, chunk: 96, extra: 1}.check)
	}
}

// TestHeaderRoundTrip is the matrix on an i16 frame on lane 2, transmit 2
// of 3: every header field survives marshal and ReadHeader.
func TestHeaderRoundTrip(t *testing.T) {
	wcase{enc: EncodingI16, elems: 5, win: 8, chunk: 3, extra: 2}.check(t)
}

// TestCopyFrameVerbatim is the matrix over the relay's framings — whole,
// multi-chunk and ragged-tail — of every encoding: an i16 frame's samples
// and scale cross untouched, as a decode and re-encode would not keep them.
func TestCopyFrameVerbatim(t *testing.T) {
	for _, chunk := range []int{0, 512, 1000} {
		for _, enc := range encodings {
			t.Run(enc.String(), wcase{enc: enc, elems: 4, win: 300, chunk: chunk, extra: 1}.check)
		}
	}
}

func TestDecodeF64MatchesSource(t *testing.T) {
	wcase{enc: EncodingF64, elems: 4, win: 61, chunk: 128}.check(t)
}

func TestDecodePlaneI16(t *testing.T) {
	wcase{enc: EncodingI16, elems: 5, win: 37, chunk: 96, extra: 1}.check(t)
}

// TestDecodeF64ZeroCopyMatchesPortable is the matrix over random f64 bits
// in sample-sized, sample-splitting, multi-sample and single chunks, and
// over 3×9000 samples, which cross the portable loop's 64 kB scratch.
func TestDecodeF64ZeroCopyMatchesPortable(t *testing.T) {
	for _, c := range [][3]int{{37, 8}, {37, 13}, {37, 100}, {37, 0}, {9000, 0}, {9000, 10007}} {
		wcase{enc: EncodingF64, elems: 3, win: c[0], chunk: c[1], random: true}.check(t)
	}
}

// TestDecodePlaneI16DirectMatchesPortable is the matrix over random int16s
// in chunks that split a sample (odd sizes) and whole ones, with one to
// three guard slots, up to a 40000-sample row.
func TestDecodePlaneI16DirectMatchesPortable(t *testing.T) {
	for _, c := range [][4]int{{3, 37, 1, 7}, {3, 37, 1, 8}, {3, 37, 3, 13}, {3, 37, 1, 0}, {2, 9000, 1, 0}, {2, 9000, 2, 10007}, {1, 40000, 1, 4099}} {
		wcase{enc: EncodingI16, elems: c[0], win: c[1], extra: c[2], chunk: c[3], random: true}.check(t)
	}
}

// refusal is one input a decoder must refuse: a frame stream, the call
// that reads it, and a word its error must carry ("" for any error).
type refusal struct {
	test, name string
	in         []byte
	read       func(in []byte) error
	errPart    string
}

// malformed is a valid 8×64 f32 header with mutate applied.
func malformed(h Header, mutate func([]byte)) []byte {
	raw := make([]byte, HeaderBytes)
	h.marshal(raw)
	mutate(raw)
	return raw
}

// chunked is a 2×8 f32 header (64 payload bytes) followed by chunks.
func chunked(chunks ...[]byte) []byte {
	raw := malformed(header(EncodingF32, 2, 8, 0), func([]byte) {})
	for _, c := range chunks {
		raw = binary.LittleEndian.AppendUint32(raw, uint32(len(c)))
		raw = append(raw, c...)
	}
	return raw
}

// encoded is a 4×16 frame of enc, whole.
func encoded(enc Encoding) []byte {
	_, s := wcase{enc: enc, elems: 4, win: 16}.stream()
	return s
}

// withHeader reads the header off in and hands the rest to decode.
func withHeader(decode func(r *bytes.Reader, h Header) error) func([]byte) error {
	return func(in []byte) error {
		r := bytes.NewReader(in)
		h, err := ReadHeader(r)
		if err != nil {
			return err
		}
		return decode(r, h)
	}
}

func readHeader(in []byte) error { _, err := ReadHeader(bytes.NewReader(in)); return err }

var (
	decodeAll = withHeader(func(r *bytes.Reader, h Header) error { return DecodeF64(r, h, make([]float64, h.Samples())) })
	planeInto = func(n, stride int) func([]byte) error {
		return withHeader(func(r *bytes.Reader, h Header) error { return DecodePlaneI16(r, h, make([]int16, n), stride) })
	}
	relay = withHeader(func(r *bytes.Reader, h Header) error { return CopyFrame(io.Discard, r, h) })
	// ownPlane is a plane of one guard slot per row, as the session sizes it.
	ownPlane = withHeader(func(r *bytes.Reader, h Header) error {
		return DecodePlaneI16(r, h, make([]int16, h.Elements*(h.Window+1)), h.Window+1)
	})
)

// refusals is the refusal table: the header fields ReadHeader refuses
// before a payload byte, the chunk framing DecodeF64 and CopyFrame refuse,
// the destinations neither decoder fits, and the frames DecodePlaneI16
// alone refuses.
func refusals() []refusal {
	f32 := header(EncodingF32, 8, 64, 0)
	field := func(name string, mutate func([]byte), part string) refusal {
		return refusal{"header", name, malformed(f32, mutate), readHeader, part}
	}
	le := binary.LittleEndian
	i16 := encoded(EncodingI16)
	return []refusal{
		field("magic", func(b []byte) { b[0] = 'X' }, "magic"),
		field("version", func(b []byte) { b[4] = 9 }, "version"),
		field("encoding", func(b []byte) { b[5] = 7 }, "encoding"),
		field("lane", func(b []byte) { b[6] = 3 }, "lane"),
		field("flags", func(b []byte) { b[7] = 1 }, "flag"),
		field("zero_elements", func(b []byte) { le.PutUint32(b[8:], 0) }, "elements"),
		field("huge_elements", func(b []byte) { le.PutUint32(b[8:], MaxElements+1) }, "elements"),
		field("zero_window", func(b []byte) { le.PutUint32(b[12:], 0) }, "window"),
		field("huge_window", func(b []byte) { le.PutUint32(b[12:], MaxWindow+1) }, "window"),
		field("tx_index", func(b []byte) { le.PutUint16(b[16:], 3) }, "transmit"),
		field("zero_txcount", func(b []byte) { le.PutUint16(b[18:], 0) }, "transmit"),
		field("f32_scale", func(b []byte) { le.PutUint32(b[20:], math.Float32bits(2)) }, "scale"),
		field("payload_mismatch", func(b []byte) { le.PutUint64(b[24:], 12345) }, "payload"),
		{"header", "i16_needs_scale", malformed(header(EncodingI16, 8, 64, 0), func([]byte) {}), readHeader, "scale"},
		{"header", "truncated", malformed(f32, func([]byte) {})[:10], readHeader, "header"},
		{"chunk", "zero_chunk", chunked(nil, make([]byte, 64)), decodeAll, "chunk length 0"},
		{"chunk", "overrun_chunk", chunked(make([]byte, 100)), decodeAll, "overruns"},
		{"chunk", "truncated_payload", chunked(make([]byte, 32)), decodeAll, "payload"},
		{"geometry", "no guard slot", i16, planeInto(4*16, 16), "guard"},
		{"geometry", "short plane", i16, planeInto(10, 17), "plane of 10"},
		{"geometry", "short float64 destination", encoded(EncodingF32),
			withHeader(func(r *bytes.Reader, h Header) error { return DecodeF64(r, h, make([]float64, h.Samples()-1)) }), "destination"},
		{"i16", "f32 frame", encoded(EncodingF32), ownPlane, "needs an i16 frame"},
		{"i16", "f64 frame", encoded(EncodingF64), ownPlane, "needs an i16 frame"},
		{"i16", "truncated payload", i16[:HeaderBytes+40], ownPlane, "element"},
		{"relay", "zero chunk prefix", slices.Concat(i16[:HeaderBytes], []byte{0, 0, 0, 0}, i16[HeaderBytes+4:]), relay, "chunk length 0"},
		{"relay", "torn frame", i16[:len(i16)-7], relay, "unexpected EOF"},
	}
}

// refuse runs the refusal table's rows of one test, each as a subtest.
func refuse(t *testing.T, test string) {
	for _, r := range refusals() {
		if r.test != test {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			if err := r.read(r.in); err == nil || !strings.Contains(err.Error(), r.errPart) {
				t.Fatalf("error %v, want one that mentions %q", err, r.errPart)
			}
		})
	}
}

func TestReadHeaderRejectsMalformed(t *testing.T)    { refuse(t, "header") }
func TestChunkFramingRejectsMalformed(t *testing.T)  { refuse(t, "chunk") }
func TestDecodePlaneRejectsBadGeometry(t *testing.T) { refuse(t, "geometry") }
func TestDecodePlaneI16Rejects(t *testing.T)         { refuse(t, "i16") }
func TestCopyFrameMalformed(t *testing.T)            { refuse(t, "relay") }

// FuzzDecodeFrame throws arbitrary bytes at the frame decode: a stream
// ReadHeader accepts must carry a header Validate accepts, and both routes
// of each decoder its encoding takes must reach one outcome (decodeBoth).
// Its seeds are every small case of the matrix, whole and cut mid-payload,
// and every row of the refusal table.
func FuzzDecodeFrame(f *testing.F) {
	var cases []wcase
	for _, chunk := range []int{0, 16, 24} {
		for _, enc := range encodings {
			cases = append(cases, wcase{enc: enc, elems: 3, win: 11, chunk: chunk})
		}
	}
	cases = append(cases, wcase{enc: EncodingF64, elems: 3, win: 37, chunk: 13, random: true},
		wcase{enc: EncodingI16, elems: 3, win: 37, chunk: 7, random: true})
	for _, c := range cases {
		_, s := c.stream()
		f.Add(s)
		f.Add(s[:HeaderBytes+2])                                          // torn inside a chunk prefix
		f.Add(s[:HeaderBytes+4+9])                                        // torn mid-sample
		f.Add(s[:len(s)-1])                                               // one byte short
		f.Add(append(s[:len(s):len(s)], s[HeaderBytes:HeaderBytes+8]...)) // a chunk after the payload
	}
	for _, r := range refusals() {
		f.Add(r.in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		h, err := ReadHeader(r)
		if err != nil {
			return // refused before any payload byte: the contract
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("ReadHeader returned an invalid header %+v: %v", h, err)
		}
		if h.PayloadBytes() > 1<<20 { // cap what an input may allocate
			return
		}
		decodeBoth(t, "fuzz", h, data[HeaderBytes:], 1)
	})
}
