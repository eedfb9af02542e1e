// Package ultrabeam reproduces "Tackling the Bottleneck of Delay Tables in
// 3D Ultrasound Imaging" (Ibrahim et al., DATE 2015): two delay-generation
// architectures for realtime 3-D receive beamforming — TABLEFREE, which
// computes every delay on the fly with a piecewise-linear square root, and
// TABLESTEER, which steers a compact reference delay table with precomputed
// tilted-plane corrections — together with the substrates they need (exact
// delay law, fixed-point arithmetic, transducer and volume geometry, RF
// echo simulation, delay-and-sum beamforming, BRAM/DRAM streaming, and an
// FPGA resource model that regenerates the paper's Table II).
//
// Start from a SystemSpec:
//
//	spec := ultrabeam.PaperSpec()          // Table I configuration
//	exact := spec.NewExact()               // float64 golden model
//	tf := spec.NewTableFree()              // §IV architecture
//	ts := spec.NewTableSteer(18)           // §V architecture, 18-bit
//	d := ts.DelaySamples(it, ip, id, ei, ej)
//
// Every provider also implements the block-granular BlockProvider
// interface: FillNappe16 materializes all θ×φ×element delays of one depth
// nappe, as int16 selection indices, into a contiguous buffer in a single
// call — the one delay datapath the streaming beamformer and the paper's
// nappe-order hardware both consume.
//
// Multi-frame imaging goes through a Session — a persistent worker pool
// whose steady-state Run is allocation-free — optionally fed by a budgeted
// DelayCache that retains filled nappe blocks across frames (the §V-B
// BRAM-as-cache design point in software). SystemSpec.NewSessionConfig
// builds one and Run beamforms each Frame:
//
//	sess, cache, err := spec.NewSessionConfig(ultrabeam.SessionConfig{
//		Window: ultrabeam.Hann, Cached: true, CacheBudget: -1,
//	}, tf)
//	defer sess.Close()
//	vol := sess.NewVolume()
//	for _, bufs := range frames {
//		err = sess.Run(vol, ultrabeam.Frame{Bufs: [][]ultrabeam.EchoBuffer{bufs}}) // frame 0 fills the cache
//	}
//	fmt.Println(cache.Stats()) // hits, misses, resident bytes
//
// Serving is the long-lived form of all of this (see internal/serve and
// cmd/usbeamd): a Scheduler keeps one hot Session per geometry fingerprint
// with one SharedDelayCache per geometry — N concurrent cine streams of one
// probe pay one delay budget — and feeds it every frame of that geometry
// one frame per dispatch, with priority lanes, bounded-queue backpressure
// (ErrOverloaded → 503) and TTL eviction of idle geometries; a Server
// beamforms UBF1 wire frames POSTed to /v1/beamform through it:
//
//	sched := ultrabeam.NewScheduler(ultrabeam.SchedulerConfig{IdleTTL: 5 * time.Minute})
//	defer sched.Close()
//	srv, err := ultrabeam.NewServer(ultrabeam.ServerConfig{Scheduler: sched})
//	http.ListenAndServe(":8642", srv)
//
// The cmd/ tools regenerate every table and figure; see DESIGN.md for the
// experiment index and EXPERIMENTS.md for paper-vs-measured results.
package ultrabeam

import (
	"ultrabeam/internal/beamform"
	"ultrabeam/internal/core"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/memmodel"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/serve"
	"ultrabeam/internal/xdcr"
)

// SystemSpec is the Table I system description; see core.SystemSpec.
type SystemSpec = core.SystemSpec

// Provider generates two-way beamforming delays in sample units.
type Provider = delay.Provider

// BlockProvider generates delays one depth nappe at a time into a
// caller-owned contiguous buffer of quantized int16 selection indices; see
// delay.BlockProvider.
type BlockProvider = delay.BlockProvider

// Block16 is a nappe delay block of int16 selection indices — the delay
// datapath's one representation, 2 bytes per delay; see delay.Block16.
type Block16 = delay.Block16

// MaxEchoWindow is the largest echo-buffer length in which every int16
// selection index, saturated ones included, is exact; see
// delay.MaxEchoWindow.
const MaxEchoWindow = delay.MaxEchoWindow

// Layout describes the stride order of a nappe delay block.
type Layout = delay.Layout

// ScalarAdapter lifts a scalar Provider onto the block interface.
type ScalarAdapter = delay.ScalarAdapter

// Converter maps between seconds, meters and echo-sample units.
type Converter = delay.Converter

// Engine is the single-frame delay-and-sum beamformer; see beamform.Engine.
type Engine = beamform.Engine

// Volume is a beamformed output volume; see beamform.Volume.
type Volume = beamform.Volume

// Session is a persistent multi-frame beamformer: worker pool and nappe
// buffers live across frames, Run is allocation-free in steady state, and a
// delay cache attachment amortizes delay generation across the cine
// sequence. Build one with SystemSpec.NewSessionConfig; with
// SessionConfig.Transmits set, Run sums N insonifications coherently,
// bit-identical to the sequential per-transmit sum on the float64 path.
type Session = beamform.Session

// Frame is one frame as Session.Run takes it: per-transmit float64 echo
// buffers, or guarded int16 planes with their scales; see beamform.Frame.
type Frame = beamform.Frame

// Transmit describes one insonification of the volume: the emission
// reference O of the transmit leg. The zero value emits from the array
// center; see delay.Transmit.
type Transmit = delay.Transmit

// TransmitProvider is implemented by delay providers that can derive a
// variant of themselves for another transmit; every provider in this module
// implements it (TABLESTEER requires on-axis origins).
type TransmitProvider = delay.TransmitProvider

// SteeredTransmits returns n diverging-wave insonifications from virtual
// sources behind the aperture, laterally spread along x; see
// delay.SteeredTransmits.
func SteeredTransmits(n int, depthBehind, span float64) []Transmit {
	return delay.SteeredTransmits(n, depthBehind, span)
}

// AxialTransmits returns n on-axis virtual-source insonifications —
// representable by every architecture including TABLESTEER; see
// delay.AxialTransmits.
func AxialTransmits(n int, zmin, zmax float64) []Transmit {
	return delay.AxialTransmits(n, zmin, zmax)
}

// DelayCache retains filled nappe delay blocks across frames under a byte
// budget — the §V-B "on-FPGA table as a cache" design point in software. It
// is one consumer's attachment to a SharedDelayCache block store (a private
// store when built through NewSessionConfig): a Session asks it for the
// resident block of each (transmit, nappe) and runs the transmit's delay
// generator itself when the store holds none.
type DelayCache = delaycache.Cache

// SharedDelayCache is the geometry-keyed block store any number of
// concurrent Sessions can attach to: the delay working set belongs to the
// geometry, not the connection. Build one with SystemSpec.NewSharedCache
// and give each session an Attach view through
// Engine.NewSession(store.Generators(), view); see delaycache.Shared.
type SharedDelayCache = delaycache.Shared

// CacheStats snapshots delay-cache effectiveness (hits, misses, residency,
// attachments, evictions).
type CacheStats = delaycache.Stats

// EchoBuffer holds one element's sampled receive signal; see rf.EchoBuffer.
type EchoBuffer = rf.EchoBuffer

// Precision selects the session kernel width; see beamform.Precision.
type Precision = beamform.Precision

// The session kernels: PrecisionFloat64 is the bit-identical golden model
// over int16 delay blocks (the default), PrecisionInt16 the ADC-native
// fixed-point kernel (int16 echo plane, int32 accumulate, PSNR-gated).
const (
	PrecisionFloat64 = beamform.PrecisionFloat64
	PrecisionInt16   = beamform.PrecisionInt16
)

// SessionConfig selects the datapath of a session built by
// SystemSpec.NewSessionConfig; see core.SessionConfig.
type SessionConfig = core.SessionConfig

// Window selects the receive apodization; see xdcr.Window.
type Window = xdcr.Window

// Rect and Hann are the built-in apodization windows.
const (
	Rect = xdcr.Rect
	Hann = xdcr.Hann
)

// Order selects the Algorithm 1 sweep order; see scan.Order.
type Order = scan.Order

// ScanlineOrder and NappeOrder are the two Algorithm 1 sweep flavours.
const (
	ScanlineOrder = scan.ScanlineOrder
	NappeOrder    = scan.NappeOrder
)

// BankArray models a BRAM bank set; see memmodel.BankArray. Feed it to
// BudgetFromBanks to derive a delay-cache budget from the paper's on-chip
// capacity.
type BankArray = memmodel.BankArray

// BudgetFromBanks translates BRAM capacity into a delay-cache byte budget
// holding the same number of resident delay words.
func BudgetFromBanks(a BankArray) int64 { return delaycache.BudgetFromBanks(a) }

// Scheduler keeps one hot Session per geometry/config fingerprint, sharing
// one SharedDelayCache per geometry, and dispatches queued frames one at a
// time with priority lanes, bounded-queue backpressure and TTL eviction of
// idle geometries; see serve.Scheduler.
type Scheduler = serve.Scheduler

// SchedulerConfig sizes a Scheduler (geometry cap, queue bound, idle
// TTL).
type SchedulerConfig = serve.SchedulerConfig

// SchedulerStats snapshots queue depths, dispatch counts, lane waits and
// per-geometry cache hit rates.
type SchedulerStats = serve.SchedulerStats

// SessionRequest is the scheduler key: geometry spec, session config and
// delay architecture. Equal fingerprints share a warm session and its
// delay storage.
type SessionRequest = serve.SessionRequest

// Server beamforms UBF1 wire frames POSTed over HTTP through a Scheduler;
// see serve.Server for the protocol (/v1/beamform, /v1/healthz, /v1/stats).
type Server = serve.Server

// ServerConfig assembles a Server over a Scheduler.
type ServerConfig = serve.ServerConfig

// Arch names a delay-generation architecture for serving requests.
type Arch = serve.Arch

// The serving delay architectures.
const (
	ArchTableFree  = serve.ArchTableFree
	ArchTableSteer = serve.ArchTableSteer
	ArchExact      = serve.ArchExact
)

// ErrOverloaded is the scheduler's typed backpressure signal (HTTP 503).
var ErrOverloaded = serve.ErrOverloaded

// NewScheduler builds a frame scheduler; see serve.NewScheduler.
func NewScheduler(cfg SchedulerConfig) *Scheduler { return serve.NewScheduler(cfg) }

// NewServer wires the HTTP serving frontend over a scheduler; see
// serve.NewServer.
func NewServer(cfg ServerConfig) (*Server, error) { return serve.NewServer(cfg) }

// PaperSpec returns the exact Table I configuration of the paper.
func PaperSpec() SystemSpec { return core.PaperSpec() }

// ReducedSpec returns a laptop-scale configuration with identical physics.
func ReducedSpec() SystemSpec { return core.ReducedSpec() }
