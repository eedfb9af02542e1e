package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// This file is the relay half of the wire format: verbatim forwarding for
// a proxy that sits between a cine client and a backend. A relay must
// never re-encode — an i16 frame that were decoded and re-quantized would
// pick a new scale factor and change sample values, breaking the
// bit-identical contract the cluster router guarantees. So frames and
// volumes cross the proxy as raw bytes: the relay parses only what it
// needs to route (the already-read frame header, the volume status byte)
// and copies everything else untouched.

// CopyFrame forwards one frame whose header h the caller has already read
// (and validated) from src: it re-marshals the header to dst byte for byte
// and relays the chunked payload verbatim — chunk prefixes included, no
// decode, no re-quantization. The copy is incremental (chunk by chunk), so
// a relay makes progress before the frame completes and never buffers a
// whole payload. Chunk framing is validated exactly as a decoder would:
// a zero, oversized or payload-overrunning prefix is malformed.
func CopyFrame(dst io.Writer, src io.Reader, h Header) error {
	if err := h.Validate(); err != nil {
		return err
	}
	var hdr [HeaderBytes]byte
	h.marshal(hdr[:])
	if _, err := dst.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: relaying frame header: %w", err)
	}
	remaining := h.PayloadBytes()
	var pre [4]byte
	for remaining > 0 {
		if _, err := io.ReadFull(src, pre[:]); err != nil {
			return fmt.Errorf("wire: reading chunk prefix: %w", err)
		}
		n := binary.LittleEndian.Uint32(pre[:])
		if n == 0 || n > MaxChunk {
			return fmt.Errorf("wire: chunk length %d outside (0, %d]", n, MaxChunk)
		}
		if int64(n) > remaining {
			return fmt.Errorf("wire: chunk of %d bytes overruns the %d payload bytes still expected", n, remaining)
		}
		if _, err := dst.Write(pre[:]); err != nil {
			return fmt.Errorf("wire: relaying chunk prefix: %w", err)
		}
		if _, err := io.CopyN(dst, src, int64(n)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("wire: relaying frame payload: %w", err)
		}
		remaining -= int64(n)
	}
	return nil
}

// CopyVolume relays one volume reply from src to dst verbatim and returns
// its status byte. The one exception is StatusGoAway: a drain notice is
// hop-by-hop — it tells the peer that sent frames on *this connection* to
// go elsewhere, and a relay that forwarded it would tear down a client
// whose router is about to re-home the stream transparently. A GOAWAY is
// therefore consumed (its message read and discarded) and reported via the
// returned status with nothing written to dst; every other status — OK
// volumes, per-compound errors, overload pushback — is end-to-end and
// crosses unmodified. maxPayload caps the accepted payload (≤0 = 1 GiB).
//
// Unlike CopyFrame, the payload is buffered before anything reaches dst:
// volumes are small next to frames, and a backend that dies mid-volume
// must leave the client stream untouched — the relay sees the read error,
// writes nothing, and the unanswered compound re-homes whole.
func CopyVolume(dst io.Writer, src io.Reader, maxPayload int64) (uint8, error) {
	raw, payload, err := readVolumeHeader(src, maxPayload)
	if err != nil {
		return 0, err
	}
	status := raw[4]
	body := make([]byte, int(payload))
	if _, err := io.ReadFull(src, body); err != nil {
		return 0, fmt.Errorf("wire: reading volume payload: %w", err)
	}
	if status == StatusGoAway {
		return status, nil // consumed, never forwarded
	}
	if _, err := dst.Write(raw[:]); err != nil {
		return 0, fmt.Errorf("wire: relaying volume header: %w", err)
	}
	if _, err := dst.Write(body); err != nil {
		return 0, fmt.Errorf("wire: relaying volume payload: %w", err)
	}
	return status, nil
}
