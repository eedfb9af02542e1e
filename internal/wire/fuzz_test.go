package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"testing"
)

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
