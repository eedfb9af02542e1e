package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestCopyVolumePassthrough(t *testing.T) {
	data := make([]float64, 2*3*5)
	for i := range data {
		data[i] = float64(i) * 0.25
	}
	var msgs bytes.Buffer
	if err := WriteVolume(&msgs, EncodingF32, 2, 3, 5, data); err != nil {
		t.Fatal(err)
	}
	if err := WriteVolume(&msgs, EncodingF64, 2, 3, 5, data); err != nil {
		t.Fatal(err)
	}
	if err := WriteVolumeError(&msgs, StatusOverloaded, "queue full"); err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), msgs.Bytes()...)

	// Three messages relay in sequence, each verbatim, statuses reported.
	var dst bytes.Buffer
	for i, want := range []uint8{StatusOK, StatusOK, StatusOverloaded} {
		status, err := CopyVolume(&dst, &msgs, 0)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if status != want {
			t.Errorf("message %d: status %d, want %d", i, status, want)
		}
	}
	if !bytes.Equal(dst.Bytes(), orig) {
		t.Error("relayed volume stream differs from original")
	}

	// The forwarded bytes still decode: the overload error comes back as
	// the same RemoteError the backend sent.
	r := bytes.NewReader(dst.Bytes())
	if _, err := ReadVolume(r, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadVolume(r, 0); err != nil {
		t.Fatal(err)
	}
	_, err := ReadVolume(r, 0)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != StatusOverloaded || re.Msg != "queue full" {
		t.Errorf("relayed error decoded as %v", err)
	}
}

// TestCopyVolumeGoAwayConsumed: a drain notice is hop-by-hop — the relay
// eats it (so the client never sees the backend drain) and keeps the byte
// stream in sync for whatever follows.
func TestCopyVolumeGoAwayConsumed(t *testing.T) {
	var msgs bytes.Buffer
	if err := WriteGoAway(&msgs, "draining: reconnect elsewhere"); err != nil {
		t.Fatal(err)
	}
	data := []float64{1, 2, 3, 4}
	if err := WriteVolume(&msgs, EncodingF64, 1, 1, 4, data); err != nil {
		t.Fatal(err)
	}

	var dst bytes.Buffer
	status, err := CopyVolume(&dst, &msgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusGoAway {
		t.Fatalf("status %d, want GOAWAY", status)
	}
	if dst.Len() != 0 {
		t.Errorf("GOAWAY leaked %d bytes toward the client", dst.Len())
	}
	// The stream stayed in sync: the next message relays normally.
	if status, err = CopyVolume(&dst, &msgs, 0); err != nil || status != StatusOK {
		t.Fatalf("message after GOAWAY: status %d, err %v", status, err)
	}
	v, err := ReadVolume(bytes.NewReader(dst.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Data) != 4 || v.Data[3] != 4 {
		t.Errorf("relayed volume decoded wrong: %v", v.Data)
	}
}

// TestCopyVolumeTornSourceWritesNothing: a backend that dies mid-volume
// must not leak a torn volume toward the client — the relay buffers the
// payload, so a short read errors out with dst untouched and the compound
// stays pending for the re-homed leg.
func TestCopyVolumeTornSourceWritesNothing(t *testing.T) {
	var msg bytes.Buffer
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := WriteVolume(&msg, EncodingF64, 2, 2, 2, data); err != nil {
		t.Fatal(err)
	}
	torn := msg.Bytes()[:msg.Len()-5] // connection cut mid-payload

	var dst bytes.Buffer
	if _, err := CopyVolume(&dst, bytes.NewReader(torn), 0); err == nil {
		t.Fatal("torn volume relayed without error")
	}
	if dst.Len() != 0 {
		t.Errorf("torn volume leaked %d bytes toward the client", dst.Len())
	}
}
