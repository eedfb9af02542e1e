package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// This file defines the two message types the persistent cine stream
// speaks besides frames: the per-connection hello (client → server, one
// query string naming the geometry/session parameters) and the volume
// reply (server → client, one beamformed volume or a typed error).
//
//	hello ("UBS1"): magic(4) + qlen uint16 + query string
//	hello reply:    status uint8 (0 = ok) + mlen uint16 + message
//	volume ("UBV1"): magic(4) + status uint8 + encoding uint8 +
//	    reserved(2, must be 0) + theta/phi/depth uint32×3 +
//	    payload uint64 + payload bytes
//	    status ≠ 0 → the payload is a UTF-8 error message (dims 0)
//	    status = 0 → the payload is theta·phi·depth little-endian
//	    samples in the named encoding (f64 or f32)

// MaxHelloQuery bounds the hello query string (the uint16 length field is
// the hard cap anyway; this just names it).
const MaxHelloQuery = math.MaxUint16

// Volume reply status values. Status 0 means success; everything else
// rides the error payload (a UTF-8 message) back as a *RemoteError, and
// the well-known non-zero values below let clients tell a retryable
// condition from a fatal one without parsing the message.
const (
	// StatusOK: the payload is volume samples.
	StatusOK uint8 = 0
	// StatusError: generic frame failure (bad frame, internal error).
	StatusError uint8 = 1
	// StatusOverloaded: the frame was refused by backpressure; resend it
	// after backing off. The connection stays usable.
	StatusOverloaded uint8 = 2
	// Value 3 is unassigned: it once marked a frame shed under overload,
	// and it is not reused, so an older peer never misreads a new status.
	//
	// StatusGoAway: the server is draining; no more frames will be
	// accepted on this connection. Sent in-band at a compound boundary so
	// the client can reconnect elsewhere without losing a frame.
	StatusGoAway uint8 = 4
)

// RemoteError is a non-zero status carried back over a stream or volume
// message — the transport-level analogue of an HTTP error response.
type RemoteError struct {
	Status uint8
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote error (status %d): %s", e.Status, e.Msg)
}

// WriteGoAway emits the in-band drain notice: a volume-framed message
// with StatusGoAway. Existing clients (pre-dating the status) see it as a
// remote error and reconnect; aware clients treat it as a clean handoff.
func WriteGoAway(w io.Writer, msg string) error {
	return WriteVolumeError(w, StatusGoAway, msg)
}

// IsGoAway reports whether err is a server drain notice.
func IsGoAway(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Status == StatusGoAway
}

// WriteHello sends the stream handshake: the same query-string parameters
// /beamform accepts (spec, precision, budget, out, theta, phi, ...).
func WriteHello(w io.Writer, query string) error {
	if len(query) > MaxHelloQuery {
		return fmt.Errorf("wire: hello query of %d bytes exceeds %d", len(query), MaxHelloQuery)
	}
	buf := make([]byte, 6+len(query))
	copy(buf, helloMagic)
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(query)))
	copy(buf[6:], query)
	_, err := w.Write(buf)
	return err
}

// ReadHello reads the stream handshake and returns the query string.
func ReadHello(r io.Reader) (string, error) {
	var pre [6]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return "", fmt.Errorf("wire: reading hello: %w", err)
	}
	if string(pre[0:4]) != helloMagic {
		return "", fmt.Errorf("wire: bad hello magic %q", pre[0:4])
	}
	n := binary.LittleEndian.Uint16(pre[4:])
	q := make([]byte, n)
	if _, err := io.ReadFull(r, q); err != nil {
		return "", fmt.Errorf("wire: reading hello query: %w", err)
	}
	return string(q), nil
}

// WriteHelloReply acknowledges (status 0) or rejects (status ≠ 0, with a
// message) a stream handshake.
func WriteHelloReply(w io.Writer, status uint8, msg string) error {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	buf := make([]byte, 3+len(msg))
	buf[0] = status
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(msg)))
	copy(buf[3:], msg)
	_, err := w.Write(buf)
	return err
}

// ReadHelloReply reads the handshake acknowledgement; a non-zero status
// returns a *RemoteError.
func ReadHelloReply(r io.Reader) error {
	var pre [3]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return fmt.Errorf("wire: reading hello reply: %w", err)
	}
	msg := make([]byte, binary.LittleEndian.Uint16(pre[1:]))
	if _, err := io.ReadFull(r, msg); err != nil {
		return fmt.Errorf("wire: reading hello reply message: %w", err)
	}
	if pre[0] != 0 {
		return &RemoteError{Status: pre[0], Msg: string(msg)}
	}
	return nil
}

// Volume is one decoded volume reply. Data is always float64 regardless of
// the wire encoding (f32 widens exactly); Encoding records what was on the
// wire.
type Volume struct {
	Encoding Encoding
	Theta    int
	Phi      int
	Depth    int
	Data     []float64
}

const volHeaderBytes = 4 + 1 + 1 + 2 + 12 + 8

// WriteVolume emits one volume reply with the samples in the requested
// encoding (EncodingF64 or EncodingF32; i16 volumes are not part of the
// reply contract — the fidelity knob on output is the Precision of the
// session, not a wire quantizer).
func WriteVolume(w io.Writer, enc Encoding, theta, phi, depth int, data []float64) error {
	if enc != EncodingF64 && enc != EncodingF32 {
		return fmt.Errorf("wire: volume encoding %s not supported (want f64|f32)", enc)
	}
	n := theta * phi * depth
	if theta <= 0 || phi <= 0 || depth <= 0 || len(data) != n {
		return fmt.Errorf("wire: %d voxels for a %d×%d×%d volume", len(data), theta, phi, depth)
	}
	size := enc.SampleBytes()
	buf := make([]byte, volHeaderBytes+n*size)
	writeVolumeHeader(buf, 0, enc, theta, phi, depth, uint64(n*size))
	PutVolumeSamples(buf[volHeaderBytes:], enc, data)
	_, err := w.Write(buf)
	return err
}

// PutVolumeSamples encodes data into dst as a volume payload, the bytes
// both reply transports carry: little-endian float32 samples for
// EncodingF32, float64 for EncodingF64 (the only two reply encodings; the
// caller has checked enc). dst must hold len(data)·enc.SampleBytes() bytes.
func PutVolumeSamples(dst []byte, enc Encoding, data []float64) {
	if enc == EncodingF32 {
		for i, v := range data {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(v)))
		}
		return
	}
	for i, v := range data {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// WriteVolumeError emits a volume reply carrying an error instead of
// samples; the client's ReadVolume surfaces it as a *RemoteError.
func WriteVolumeError(w io.Writer, status uint8, msg string) error {
	if status == 0 {
		return fmt.Errorf("wire: volume error status must be non-zero")
	}
	if len(msg) > math.MaxUint16 { // plenty for an error string; keeps replies bounded
		msg = msg[:math.MaxUint16]
	}
	buf := make([]byte, volHeaderBytes+len(msg))
	writeVolumeHeader(buf, status, EncodingF64, 0, 0, 0, uint64(len(msg)))
	copy(buf[volHeaderBytes:], msg)
	_, err := w.Write(buf)
	return err
}

func writeVolumeHeader(dst []byte, status uint8, enc Encoding, theta, phi, depth int, payload uint64) {
	copy(dst[0:4], volMagic)
	dst[4] = status
	dst[5] = byte(enc)
	dst[6], dst[7] = 0, 0
	binary.LittleEndian.PutUint32(dst[8:], uint32(theta))
	binary.LittleEndian.PutUint32(dst[12:], uint32(phi))
	binary.LittleEndian.PutUint32(dst[16:], uint32(depth))
	binary.LittleEndian.PutUint64(dst[20:], payload)
}

// readVolumeHeader reads one volume header and checks what every reader
// of it needs: the magic, zero reserved bytes, and a payload within
// maxPayload (≤0 = 1 GiB).
func readVolumeHeader(r io.Reader, maxPayload int64) (raw [volHeaderBytes]byte, payload uint64, err error) {
	if _, err = io.ReadFull(r, raw[:]); err != nil {
		return raw, 0, fmt.Errorf("wire: reading volume header: %w", err)
	}
	if string(raw[0:4]) != volMagic {
		return raw, 0, fmt.Errorf("wire: bad volume magic %q", raw[0:4])
	}
	if raw[6] != 0 || raw[7] != 0 {
		return raw, 0, fmt.Errorf("wire: reserved volume bytes not 0")
	}
	if maxPayload <= 0 {
		maxPayload = 1 << 30
	}
	if payload = binary.LittleEndian.Uint64(raw[20:]); payload > uint64(maxPayload) {
		return raw, 0, fmt.Errorf("wire: volume payload %d bytes exceeds cap %d", payload, maxPayload)
	}
	return raw, payload, nil
}

// ReadVolume reads one volume reply. A non-zero status returns
// (*RemoteError); maxPayload caps the accepted payload (≤0 = 1 GiB).
func ReadVolume(r io.Reader, maxPayload int64) (*Volume, error) {
	raw, payload, err := readVolumeHeader(r, maxPayload)
	if err != nil {
		return nil, err
	}
	status := raw[4]
	enc := Encoding(raw[5])
	theta := int(binary.LittleEndian.Uint32(raw[8:]))
	phi := int(binary.LittleEndian.Uint32(raw[12:]))
	depth := int(binary.LittleEndian.Uint32(raw[16:]))
	if status != 0 {
		msg := make([]byte, payload)
		if _, err := io.ReadFull(r, msg); err != nil {
			return nil, fmt.Errorf("wire: reading volume error: %w", err)
		}
		return nil, &RemoteError{Status: status, Msg: string(msg)}
	}
	if enc != EncodingF64 && enc != EncodingF32 {
		return nil, fmt.Errorf("wire: volume encoding %s not supported", enc)
	}
	n := theta * phi * depth
	if theta <= 0 || phi <= 0 || depth <= 0 || uint64(n)*uint64(enc.SampleBytes()) != payload {
		return nil, fmt.Errorf("wire: volume payload %d bytes for %d×%d×%d %s voxels", payload, theta, phi, depth, enc)
	}
	raw2 := make([]byte, payload)
	if _, err := io.ReadFull(r, raw2); err != nil {
		return nil, fmt.Errorf("wire: reading volume payload: %w", err)
	}
	v := &Volume{Encoding: enc, Theta: theta, Phi: phi, Depth: depth, Data: make([]float64, n)}
	if enc == EncodingF32 {
		for i := range v.Data {
			v.Data[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw2[4*i:])))
		}
	} else {
		for i := range v.Data {
			v.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw2[8*i:]))
		}
	}
	return v, nil
}
