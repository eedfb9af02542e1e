// Wire metrics: the serving-side counters behind the B7 bandwidth claim.
// Every ingest path (legacy raw float64 POST, wire-framed i16/f32/f64 over
// HTTP or the cine stream) records what actually crossed the network and
// how long decode took, and every reply records its encoded bytes — so
// /stats shows the protocol win live, not just the bench record.
package serve

import (
	"sync/atomic"
	"time"

	"ultrabeam/internal/wire"
)

// wireRecorder accumulates transport counters. All fields are atomic: the
// HTTP handlers and stream connections record concurrently with /stats
// scrapes.
type wireRecorder struct {
	framesIn  atomic.Int64 // ingested frames (one per transmit)
	bytesIn   atomic.Int64 // request payload bytes received
	decodeNs  atomic.Int64 // time spent decoding payloads into echo form
	framesI16 atomic.Int64
	framesF32 atomic.Int64
	framesF64 atomic.Int64 // wire-framed f64
	framesRaw atomic.Int64 // legacy headerless float64 bodies
	planes    atomic.Int64 // frames decoded straight into guarded planes (any precision)
	planesF32 atomic.Int64 // … of which float32 planes (narrow float kernel)
	planesI16 atomic.Int64 // … of which int16 planes (fixed-point kernel, zero-conversion)
	bytesOut  atomic.Int64 // response payload bytes sent
	streams   atomic.Int64 // cine stream connections accepted

	// Per-cause stream close counters: a fleet of flapping clients, a
	// misbehaving encoder and a draining server look identical as raw
	// close counts but demand different responses — so each cause counts
	// apart.
	closesClean      atomic.Int64 // EOF at a compound boundary
	closesClientGone atomic.Int64 // connection died mid-frame or mid-reply
	closesDesync     atomic.Int64 // protocol violation desynced the byte stream
	closesDrain      atomic.Int64 // server drain: GOAWAY sent
	closesInternal   atomic.Int64 // server-side failure (incl. injected faults)
	closesOverloaded atomic.Int64 // hello refused at the MaxStreams cap
}

// streamCloseCause labels why a cine connection ended.
type streamCloseCause int

const (
	streamCloseClean streamCloseCause = iota
	streamCloseClientGone
	streamCloseDesync
	streamCloseDrain
	streamCloseInternal
	streamCloseOverloaded
)

func (r *wireRecorder) recordStreamClose(cause streamCloseCause) {
	switch cause {
	case streamCloseClientGone:
		r.closesClientGone.Add(1)
	case streamCloseDesync:
		r.closesDesync.Add(1)
	case streamCloseDrain:
		r.closesDrain.Add(1)
	case streamCloseInternal:
		r.closesInternal.Add(1)
	case streamCloseOverloaded:
		r.closesOverloaded.Add(1)
	default:
		r.closesClean.Add(1)
	}
}

// planeKind labels which guarded-plane form (if any) an ingested frame
// decoded into — the plane-decode counters split by target precision.
type planeKind int

const (
	planeNone planeKind = iota
	planeF32
	planeI16
)

// recordIngest counts one ingested transmit frame. enc < 0 marks the
// legacy raw float64 body.
func (r *wireRecorder) recordIngest(enc wire.Encoding, raw bool, bytes int64, decode time.Duration, plane planeKind) {
	r.framesIn.Add(1)
	r.bytesIn.Add(bytes)
	r.decodeNs.Add(int64(decode))
	switch {
	case raw:
		r.framesRaw.Add(1)
	case enc == wire.EncodingI16:
		r.framesI16.Add(1)
	case enc == wire.EncodingF32:
		r.framesF32.Add(1)
	default:
		r.framesF64.Add(1)
	}
	switch plane {
	case planeF32:
		r.planes.Add(1)
		r.planesF32.Add(1)
	case planeI16:
		r.planes.Add(1)
		r.planesI16.Add(1)
	}
}

func (r *wireRecorder) recordReply(bytes int64) { r.bytesOut.Add(bytes) }
func (r *wireRecorder) recordStream()           { r.streams.Add(1) }

// WireStats is the JSON row of transport counters in SchedulerStats and
// PoolStats.
type WireStats struct {
	FramesIn     int64   `json:"frames_in"`
	BytesIn      int64   `json:"bytes_in"`
	DecodeMs     float64 `json:"decode_ms"`
	FramesI16    int64   `json:"frames_i16"`
	FramesF32    int64   `json:"frames_f32"`
	FramesF64    int64   `json:"frames_f64"`
	FramesRaw    int64   `json:"frames_raw"`
	PlaneDecodes int64   `json:"plane_decodes"`
	// PlaneDecodes split by target precision: f32 planes feed the narrow
	// float kernel, i16 planes the fixed-point kernel (the zero-conversion
	// ingest). The two sum to PlaneDecodes.
	PlaneDecodesF32 int64 `json:"plane_decodes_f32"`
	PlaneDecodesI16 int64 `json:"plane_decodes_i16"`
	BytesOut        int64 `json:"bytes_out"`
	Streams         int64 `json:"streams"`

	StreamClosesClean      int64 `json:"stream_closes_clean"`
	StreamClosesClientGone int64 `json:"stream_closes_client_gone"`
	StreamClosesDesync     int64 `json:"stream_closes_desync"`
	StreamClosesDrain      int64 `json:"stream_closes_drain"`
	StreamClosesInternal   int64 `json:"stream_closes_internal"`
	StreamClosesOverloaded int64 `json:"stream_closes_overloaded"`
}

func (r *wireRecorder) stats() WireStats {
	return WireStats{
		FramesIn:        r.framesIn.Load(),
		BytesIn:         r.bytesIn.Load(),
		DecodeMs:        float64(r.decodeNs.Load()) / 1e6,
		FramesI16:       r.framesI16.Load(),
		FramesF32:       r.framesF32.Load(),
		FramesF64:       r.framesF64.Load(),
		FramesRaw:       r.framesRaw.Load(),
		PlaneDecodes:    r.planes.Load(),
		PlaneDecodesF32: r.planesF32.Load(),
		PlaneDecodesI16: r.planesI16.Load(),
		BytesOut:        r.bytesOut.Load(),
		Streams:         r.streams.Load(),

		StreamClosesClean:      r.closesClean.Load(),
		StreamClosesClientGone: r.closesClientGone.Load(),
		StreamClosesDesync:     r.closesDesync.Load(),
		StreamClosesDrain:      r.closesDrain.Load(),
		StreamClosesInternal:   r.closesInternal.Load(),
		StreamClosesOverloaded: r.closesOverloaded.Load(),
	}
}
