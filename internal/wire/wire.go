// Package wire defines the ADC-native binary frame format the serving
// stack moves RF data in: RF leaves a 12–16-bit ADC and, on the fixed-point
// datapath, lands in an int16 plane, so shipping it as little-endian
// float64 would spend 8 bytes per sample on it. Frames are versioned and
// self-describing:
//
//	header (32 bytes, little-endian)
//	  0  magic    "UBF1"
//	  4  version  uint8  (1)
//	  5  encoding uint8  (0 = f64, 1 = f32, 2 = i16)
//	  6  lane     uint8  (scheduling hint: 0 keep the stream's lane,
//	                      1 interactive, 2 bulk; higher is malformed)
//	  7  flags    uint8  (reserved, must be 0)
//	  8  elements uint32 (receive elements, ej·NX+ei row order)
//	 12  window   uint32 (echo samples per element)
//	 16  txindex  uint16 (this frame's transmit within the compound set)
//	 18  txcount  uint16 (compound set size; 1 = plain frame)
//	 20  scale    float32 (i16 dequantization: sample = int16·scale;
//	                       must be 0 for f32/f64)
//	 24  payload  uint64 (elements·window·sample-size bytes)
//	payload: length-prefixed chunks — uint32 n (0 < n ≤ MaxChunk), then n
//	bytes — whose lengths sum exactly to the header's payload size.
//	Samples are element-major (element d's window is contiguous),
//	little-endian.
//
// The three encodings serve three contracts. EncodingF64 is the golden
// wire: served volumes stay bit-identical to the scalar float64 reference.
// EncodingF32 halves the wire at one rounding per sample. EncodingI16 is
// the ADC-native form: 2 bytes per sample plus one per-frame scale factor,
// 4× narrower than f64, and — like the paper's fixed-point delay words —
// within the fidelity budget the PSNR gates already police.
//
// Chunked framing is what makes the format streamable: a decoder consumes
// the payload chunk by chunk as it arrives — DecodePlaneI16 copies straight
// into a guarded int16 echo plane, DecodeF64 into float64 buffers — so
// ingest never buffers a whole frame and decode overlaps the transfer.
//
// The volume reply message (WriteVolume/ReadVolume) and the stream
// handshake (WriteHello/ReadHello/...) round out the persistent-connection
// cine transport serve.Server.ServeStream speaks.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"ultrabeam/internal/faultpoint"
	"ultrabeam/internal/fixed"
)

// Encoding selects the sample representation of a frame payload.
type Encoding uint8

const (
	// EncodingF64 ships little-endian float64 samples, bit-exact: a served
	// volume from an f64 wire frame on a float64 session is bit-identical
	// to the scalar reference.
	EncodingF64 Encoding = 0
	// EncodingF32 ships little-endian float32 samples: half the wire of
	// f64 at one rounding per sample (lossless for samples that began as
	// float32).
	EncodingF32 Encoding = 1
	// EncodingI16 ships little-endian int16 samples with a per-frame scale
	// factor: the ADC-native form, a quarter of the f64 wire. Encoders
	// saturate at ±32767 (QuantizeI16); non-finite samples quantize to the
	// saturated extremes (±Inf) or zero (NaN).
	EncodingI16 Encoding = 2
)

func (e Encoding) String() string {
	switch e {
	case EncodingF64:
		return "f64"
	case EncodingF32:
		return "f32"
	case EncodingI16:
		return "i16"
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

// ParseEncoding parses an encoding name — the parser behind the fmt= /
// -wire flags.
func ParseEncoding(name string) (Encoding, error) {
	switch name {
	case "f64", "float64":
		return EncodingF64, nil
	case "f32", "float32":
		return EncodingF32, nil
	case "i16", "int16":
		return EncodingI16, nil
	}
	return EncodingF64, fmt.Errorf("wire: unknown encoding %q (want i16|f32|f64)", name)
}

// SampleBytes returns the wire width of one sample.
func (e Encoding) SampleBytes() int {
	switch e {
	case EncodingF64:
		return 8
	case EncodingF32:
		return 4
	case EncodingI16:
		return 2
	}
	return 0
}

const (
	// Version is the frame-format version this package speaks.
	Version = 1
	// HeaderBytes is the fixed frame-header size.
	HeaderBytes = 32
	// MaxChunk caps one payload chunk: a length prefix beyond it is
	// malformed, not merely large — the cap is what keeps a corrupt prefix
	// from provoking a giant allocation before any payload byte arrives.
	MaxChunk = 1 << 24
	// DefaultChunk is the chunk size WriteFrame emits: large enough that
	// framing overhead vanishes (4 B per 256 KiB), small enough that a
	// decoder makes progress long before the frame completes.
	DefaultChunk = 256 << 10
	// MaxElements and MaxWindow bound the header geometry fields; both are
	// far above any Table I scale and exist so a corrupt header is rejected
	// by shape before its payload size is even computed.
	MaxElements = 1 << 20
	MaxWindow   = 1 << 24

	frameMagic = "UBF1"
	volMagic   = "UBV1"
	helloMagic = "UBS1"

	// ContentType is the HTTP media type of a wire-framed request body.
	ContentType = "application/x-ultrabeam-frame"
)

// Header describes one wire frame.
type Header struct {
	Encoding Encoding
	Lane     uint8   // scheduling hint: 0 keeps the stream's lane, 1 interactive, 2 bulk
	Elements int     // receive elements
	Window   int     // echo samples per element
	TxIndex  int     // transmit index within the compound set
	TxCount  int     // compound set size (≥1)
	Scale    float32 // i16 dequantization factor; 0 for f32/f64
}

// PayloadBytes returns the payload size the header implies.
func (h Header) PayloadBytes() int64 {
	return int64(h.Elements) * int64(h.Window) * int64(h.Encoding.SampleBytes())
}

// Samples returns the per-frame sample count.
func (h Header) Samples() int { return h.Elements * h.Window }

// Validate rejects malformed headers — the early-validation contract: a
// reader can refuse a frame after 32 bytes, before any payload arrives.
func (h Header) Validate() error {
	if h.Encoding.SampleBytes() == 0 {
		return fmt.Errorf("wire: unknown encoding %d", h.Encoding)
	}
	if h.Lane > 2 {
		return fmt.Errorf("wire: lane %d outside [0, 2]", h.Lane)
	}
	if h.Elements <= 0 || h.Elements > MaxElements {
		return fmt.Errorf("wire: %d elements outside (0, %d]", h.Elements, MaxElements)
	}
	if h.Window <= 0 || h.Window > MaxWindow {
		return fmt.Errorf("wire: window %d outside (0, %d]", h.Window, MaxWindow)
	}
	if h.TxCount < 1 || h.TxCount > math.MaxUint16 {
		return fmt.Errorf("wire: transmit count %d outside [1, %d]", h.TxCount, math.MaxUint16)
	}
	if h.TxIndex < 0 || h.TxIndex >= h.TxCount {
		return fmt.Errorf("wire: transmit index %d outside [0, %d)", h.TxIndex, h.TxCount)
	}
	if h.Encoding == EncodingI16 {
		if !(h.Scale > 0) || math.IsInf(float64(h.Scale), 0) {
			return fmt.Errorf("wire: i16 scale %v is not a positive finite factor", h.Scale)
		}
	} else if h.Scale != 0 {
		return fmt.Errorf("wire: scale %v must be 0 for %s frames", h.Scale, h.Encoding)
	}
	return nil
}

// marshal encodes the header into dst (HeaderBytes long).
func (h Header) marshal(dst []byte) {
	copy(dst[0:4], frameMagic)
	dst[4] = Version
	dst[5] = byte(h.Encoding)
	dst[6] = h.Lane
	dst[7] = 0
	binary.LittleEndian.PutUint32(dst[8:], uint32(h.Elements))
	binary.LittleEndian.PutUint32(dst[12:], uint32(h.Window))
	binary.LittleEndian.PutUint16(dst[16:], uint16(h.TxIndex))
	binary.LittleEndian.PutUint16(dst[18:], uint16(h.TxCount))
	binary.LittleEndian.PutUint32(dst[20:], math.Float32bits(h.Scale))
	binary.LittleEndian.PutUint64(dst[24:], uint64(h.PayloadBytes()))
}

// ReadHeader reads and validates one frame header. A malformed magic,
// version, lane or flag byte, geometry, scale or payload size is rejected
// here — before a single payload byte is read.
func ReadHeader(r io.Reader) (Header, error) {
	var raw [HeaderBytes]byte
	if _, err := io.ReadFull(r, raw[:]); err != nil {
		return Header{}, fmt.Errorf("wire: reading frame header: %w", err)
	}
	if string(raw[0:4]) != frameMagic {
		return Header{}, fmt.Errorf("wire: bad frame magic %q", raw[0:4])
	}
	if raw[4] != Version {
		return Header{}, fmt.Errorf("wire: unsupported frame version %d (have %d)", raw[4], Version)
	}
	if raw[7] != 0 {
		return Header{}, fmt.Errorf("wire: reserved flag byte %#x is not 0", raw[7])
	}
	h := Header{
		Encoding: Encoding(raw[5]),
		Lane:     raw[6],
		Elements: int(binary.LittleEndian.Uint32(raw[8:])),
		Window:   int(binary.LittleEndian.Uint32(raw[12:])),
		TxIndex:  int(binary.LittleEndian.Uint16(raw[16:])),
		TxCount:  int(binary.LittleEndian.Uint16(raw[18:])),
		Scale:    math.Float32frombits(binary.LittleEndian.Uint32(raw[20:])),
	}
	if err := h.Validate(); err != nil {
		return Header{}, err
	}
	if got := binary.LittleEndian.Uint64(raw[24:]); got != uint64(h.PayloadBytes()) {
		return Header{}, fmt.Errorf("wire: declared payload %d bytes; %d elements × %d samples × %d B/sample needs %d",
			got, h.Elements, h.Window, h.Encoding.SampleBytes(), h.PayloadBytes())
	}
	return h, nil
}

// chunkReader de-frames the length-prefixed payload chunks of one frame
// into a plain byte stream of exactly h.PayloadBytes() bytes. Chunk
// prefixes of zero, beyond MaxChunk, or overrunning the declared payload
// are malformed.
type chunkReader struct {
	r         io.Reader
	remaining int64 // payload bytes still owed
	chunkLeft int   // bytes left in the current chunk
}

func newChunkReader(r io.Reader, h Header) *chunkReader {
	return &chunkReader{r: r, remaining: h.PayloadBytes()}
}

// decodeFault simulates a transfer dying mid-payload — the torn-frame
// case every ingest path must survive without corrupting a volume. Inert
// unless a faultpoint schedule arms it.
var decodeFault = faultpoint.New("wire.decode")

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.remaining == 0 {
		return 0, io.EOF
	}
	if err := decodeFault.Err(); err != nil {
		return 0, err
	}
	if c.chunkLeft == 0 {
		var pre [4]byte
		if _, err := io.ReadFull(c.r, pre[:]); err != nil {
			return 0, fmt.Errorf("wire: reading chunk prefix: %w", err)
		}
		n := binary.LittleEndian.Uint32(pre[:])
		if n == 0 || n > MaxChunk {
			return 0, fmt.Errorf("wire: chunk length %d outside (0, %d]", n, MaxChunk)
		}
		if int64(n) > c.remaining {
			return 0, fmt.Errorf("wire: chunk of %d bytes overruns the %d payload bytes still expected", n, c.remaining)
		}
		c.chunkLeft = int(n)
	}
	if len(p) > c.chunkLeft {
		p = p[:c.chunkLeft]
	}
	n, err := c.r.Read(p)
	c.chunkLeft -= n
	c.remaining -= int64(n)
	if err == io.EOF && (c.chunkLeft > 0 || c.remaining > 0) {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// decodeScratch is the per-call streaming buffer: big enough to amortize
// Read calls, small enough that a decode makes progress chunk by chunk
// instead of buffering a frame.
const decodeScratch = 64 << 10

// DecodePlaneI16 streams an i16 frame payload directly into a guarded
// int16 echo plane — the ADC-native ingest fast path: when the target
// session's kernel is fixed-point (beamform.PrecisionInt16), the upload is
// a near-memcpy — little-endian int16 words off the wire into the plane
// the kernel gathers from, no float conversion anywhere — with the frame's
// quantization scale riding alongside in the header for the caller to
// hand the kernel. Element d's samples land at
// plane[d·stride : d·stride+window] with the guard slots (positions
// window..stride-1 of each row) untouched; plane must hold
// h.Elements·stride int16s with stride > h.Window. Only EncodingI16 frames
// qualify (other encodings carry no scale and would need a server-side
// quantization pass; callers route them through DecodeF64 instead).
//
// On a little-endian host each element row is read through the chunk
// reader straight into the plane's bytes, as DecodeF64 reads f64: the wire
// words are already the plane's int16s. Big-endian hosts take the portable
// scratch-and-convert loop. Both read in the same pieces, so a short or
// malformed stream fails with the same error on either.
func DecodePlaneI16(r io.Reader, h Header, plane []int16, stride int) error {
	if h.Encoding != EncodingI16 {
		return fmt.Errorf("wire: DecodePlaneI16 needs an i16 frame (have %s)", h.Encoding)
	}
	if stride <= h.Window {
		return fmt.Errorf("wire: plane stride %d must exceed the %d-sample window (guard slot)", stride, h.Window)
	}
	if need := h.Elements * stride; len(plane) < need {
		return fmt.Errorf("wire: plane of %d int16s for %d elements × stride %d (need %d)", len(plane), h.Elements, stride, need)
	}
	return decodePlaneI16(newChunkReader(r, h), h, plane, stride, hostLittleEndian)
}

// decodePlaneI16 is DecodePlaneI16 past its checks. direct (little-endian
// hosts only) reads each piece into the plane's own bytes; otherwise a
// piece passes through scratch and converts word by word. The pieces are
// the same either way: at most decodeScratch bytes, never across a row.
func decodePlaneI16(cr *chunkReader, h Header, plane []int16, stride int, direct bool) error {
	// A scratch array would escape through io.ReadFull's reader anyway,
	// so only the portable route pays for one.
	var scratch []byte
	if !direct {
		scratch = make([]byte, decodeScratch)
	}
	for d := 0; d < h.Elements; d++ {
		row := plane[d*stride : d*stride+h.Window]
		for off := 0; off < h.Window; {
			n := min((h.Window-off)*2, decodeScratch)
			out := row[off : off+n/2]
			var buf []byte
			if direct {
				buf = unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(out))), n)
			} else {
				buf = scratch[:n]
			}
			if _, err := io.ReadFull(cr, buf); err != nil {
				return fmt.Errorf("wire: frame payload (element %d): %w", d, err)
			}
			if !direct {
				for i := range out {
					out[i] = int16(binary.LittleEndian.Uint16(scratch[2*i:]))
				}
			}
			off += n / 2
		}
	}
	return drainFrame(cr)
}

// hostLittleEndian reports whether a []float64's bytes are already in wire
// order, which is what lets DecodeF64 read an f64 payload in place.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// DecodeF64 streams the frame payload into contiguous element-major
// float64 samples (element d at dst[d·window : (d+1)·window]) — the
// decode target of sessions whose kernel consumes float64 echoes. For
// EncodingF64 the samples are bit-exact; i16/f32 widen exactly (every
// int16·scale and float32 value is representable in float64). dst must
// hold h.Samples() float64s.
//
// An f64 payload on a little-endian host is read through the chunk reader
// straight into dst's bytes: a large body goes from the socket to the
// samples with no scratch pass. Big-endian hosts and the widening encodings
// take the portable loop.
func DecodeF64(r io.Reader, h Header, dst []float64) error {
	if len(dst) < h.Samples() {
		return fmt.Errorf("wire: destination of %d float64s for %d samples", len(dst), h.Samples())
	}
	cr := newChunkReader(r, h)
	if h.Encoding == EncodingF64 && hostLittleEndian {
		raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*h.Samples())
		if _, err := io.ReadFull(cr, raw); err != nil {
			return fmt.Errorf("wire: frame payload: %w", err)
		}
		return drainFrame(cr)
	}
	return decodeF64Portable(cr, h, dst)
}

// decodeF64Portable is DecodeF64 for any host and encoding: payload bytes
// pass through a scratch buffer and convert sample by sample.
func decodeF64Portable(cr *chunkReader, h Header, dst []float64) error {
	size := h.Encoding.SampleBytes()
	var scratch [decodeScratch]byte
	for off := 0; off < h.Samples(); {
		n := (h.Samples() - off) * size
		if n > len(scratch) {
			n = len(scratch) / size * size
		}
		if _, err := io.ReadFull(cr, scratch[:n]); err != nil {
			return fmt.Errorf("wire: frame payload: %w", err)
		}
		out := dst[off : off+n/size]
		switch h.Encoding {
		case EncodingI16:
			s := float64(h.Scale)
			for i := range out {
				out[i] = float64(int16(binary.LittleEndian.Uint16(scratch[2*i:]))) * s
			}
		case EncodingF32:
			for i := range out {
				out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(scratch[4*i:])))
			}
		default:
			for i := range out {
				out[i] = math.Float64frombits(binary.LittleEndian.Uint64(scratch[8*i:]))
			}
		}
		off += n / size
	}
	return drainFrame(cr)
}

// drainFrame confirms the chunk stream ended exactly at the payload size.
func drainFrame(cr *chunkReader) error {
	if cr.remaining != 0 || cr.chunkLeft != 0 {
		return fmt.Errorf("wire: frame payload short by %d bytes", cr.remaining)
	}
	return nil
}

// Frame is an assembled wire frame: the header plus its samples in exactly
// one of the three representations (the one matching Header.Encoding),
// element-major.
type Frame struct {
	Header
	F64 []float64
	F32 []float32
	I16 []int16
}

// NewFrame assembles a frame from float64 echo samples (element-major,
// elements·window long) in the requested encoding: i16 quantizes via
// QuantizeI16 (the scale lands in the header), f32 narrows, f64 aliases
// the samples. This is the client SDK's framing half; WriteFrame puts it
// on the wire.
func NewFrame(enc Encoding, elements, window, txIndex, txCount int, samples []float64) (*Frame, error) {
	if len(samples) != elements*window {
		return nil, fmt.Errorf("wire: %d samples for %d elements × %d window", len(samples), elements, window)
	}
	f := &Frame{Header: Header{
		Encoding: enc, Elements: elements, Window: window,
		TxIndex: txIndex, TxCount: txCount,
	}}
	switch enc {
	case EncodingI16:
		f.I16, f.Scale = QuantizeI16(samples)
	case EncodingF32:
		f.F32 = make([]float32, len(samples))
		for i, v := range samples {
			f.F32[i] = float32(v)
		}
	default:
		f.F64 = samples
	}
	if err := f.Header.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// QuantizeI16 builds an i16 frame payload from float64 samples by the
// int16 echo-sample rule of package fixed, the one rf.QuantizePlaneI16
// runs too: scale is max|v|/32767 so the loudest sample spans the full
// int16 range, values round half to even and saturate at ±32767,
// +Inf/−Inf saturate, NaN quantizes to 0. An all-zero (or
// all-non-finite) frame gets scale 1.
func QuantizeI16(samples []float64) (q []int16, scale float32) {
	scale = fixed.ScaleI16(fixed.PeakI16(0, samples))
	q = make([]int16, len(samples))
	fixed.QuantizeRowI16(q, samples, scale)
	return q, scale
}

// WriteFrame emits one frame — header then chunked payload — with
// chunkBytes-sized chunks (≤0 selects DefaultChunk). This is the client
// SDK's encode half; ReadVolume is the decode half of the reply.
func WriteFrame(w io.Writer, f *Frame, chunkBytes int) error {
	if err := f.Header.Validate(); err != nil {
		return err
	}
	var payload []byte
	n := f.Samples()
	switch f.Encoding {
	case EncodingI16:
		if len(f.I16) != n {
			return fmt.Errorf("wire: %d i16 samples for %d elements × %d window", len(f.I16), f.Elements, f.Window)
		}
		payload = make([]byte, 2*n)
		for i, v := range f.I16 {
			binary.LittleEndian.PutUint16(payload[2*i:], uint16(v))
		}
	case EncodingF32:
		if len(f.F32) != n {
			return fmt.Errorf("wire: %d f32 samples for %d elements × %d window", len(f.F32), f.Elements, f.Window)
		}
		payload = make([]byte, 4*n)
		for i, v := range f.F32 {
			binary.LittleEndian.PutUint32(payload[4*i:], math.Float32bits(v))
		}
	default:
		if len(f.F64) != n {
			return fmt.Errorf("wire: %d f64 samples for %d elements × %d window", len(f.F64), f.Elements, f.Window)
		}
		payload = make([]byte, 8*n)
		for i, v := range f.F64 {
			binary.LittleEndian.PutUint64(payload[8*i:], math.Float64bits(v))
		}
	}
	var hdr [HeaderBytes]byte
	f.Header.marshal(hdr[:])
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunk
	}
	if chunkBytes > MaxChunk {
		chunkBytes = MaxChunk
	}
	var pre [4]byte
	for off := 0; off < len(payload); off += chunkBytes {
		end := off + chunkBytes
		if end > len(payload) {
			end = len(payload)
		}
		binary.LittleEndian.PutUint32(pre[:], uint32(end-off))
		if _, err := w.Write(pre[:]); err != nil {
			return err
		}
		if _, err := w.Write(payload[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one whole frame (header plus payload) into memory — the
// convenience form for tests, fuzzing and small clients; servers use
// ReadHeader + DecodePlaneI16/DecodeF64 to stream. maxPayload rejects frames
// whose declared payload exceeds it (≤0 means no cap beyond the header
// field bounds).
func ReadFrame(r io.Reader, maxPayload int64) (*Frame, error) {
	h, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	if maxPayload > 0 && h.PayloadBytes() > maxPayload {
		return nil, fmt.Errorf("wire: frame payload %d bytes exceeds cap %d", h.PayloadBytes(), maxPayload)
	}
	f := &Frame{Header: h}
	cr := newChunkReader(r, h)
	raw := make([]byte, h.PayloadBytes())
	if _, err := io.ReadFull(cr, raw); err != nil {
		return nil, fmt.Errorf("wire: frame payload: %w", err)
	}
	n := h.Samples()
	switch h.Encoding {
	case EncodingI16:
		f.I16 = make([]int16, n)
		for i := range f.I16 {
			f.I16[i] = int16(binary.LittleEndian.Uint16(raw[2*i:]))
		}
	case EncodingF32:
		f.F32 = make([]float32, n)
		for i := range f.F32 {
			f.F32[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	default:
		f.F64 = make([]float64, n)
		for i := range f.F64 {
			f.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	return f, nil
}
