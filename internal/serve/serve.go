// Package serve is the long-lived serving frontend over the beamforming
// stack: a Scheduler that keeps one hot beamform.Session per geometry,
// keyed by a canonical geometry/config fingerprint and attached to one
// delay block store, and feeds it every frame of that geometry one frame
// per dispatch — and a Server that beamforms binary UBF1 wire frames arriving
// over HTTP (/v1) or the persistent cine stream through that scheduler.
//
// This is the paper's amortization argument pushed to its serving
// conclusion: delays depend only on geometry, so the delay working set
// belongs to the geometry, not to any one frame, cine sequence or
// connection. PR 2 amortized generation across frames, PR 4 across
// transmits; the scheduler amortizes it across every connection that
// shares a probe, and evicts the working set only when the whole geometry
// has gone idle past a TTL. Eviction is safe because residency is the
// deterministic prefix — a rewarm refills exactly the same blocks with
// exactly the same bytes — so an evicted geometry costs warm-up latency,
// never correctness.
package serve

import (
	"fmt"
	"strings"
	"time"

	"ultrabeam/internal/core"
	"ultrabeam/internal/delay"
)

// Arch names the delay-generation architecture a serving session runs.
type Arch int

const (
	// ArchTableFree computes delays on the fly through the §IV fixed-point
	// PWL datapath — the compute-bound architecture the cache amortizes
	// hardest, and the serving default.
	ArchTableFree Arch = iota
	// ArchTableSteer steers the §V folded reference table (18-bit design
	// point, fixed datapath).
	ArchTableSteer
	// ArchExact runs the float64 golden delay law.
	ArchExact
)

func (a Arch) String() string {
	switch a {
	case ArchTableFree:
		return "tablefree"
	case ArchTableSteer:
		return "tablesteer"
	case ArchExact:
		return "exact"
	}
	return fmt.Sprintf("Arch(%d)", int(a))
}

// ParseArch parses an architecture name — the parser behind the server's
// arch= parameter and the CLI flags.
func ParseArch(name string) (Arch, error) {
	switch strings.ToLower(name) {
	case "", "tablefree":
		return ArchTableFree, nil
	case "tablesteer":
		return ArchTableSteer, nil
	case "exact":
		return ArchExact, nil
	}
	return ArchTableFree, fmt.Errorf("serve: unknown arch %q (want tablefree|tablesteer|exact)", name)
}

// NewProvider builds the architecture's delay provider for a spec. The
// fixed-point datapaths are selected for the approximating architectures —
// the synthesized hardware forms, matching the B-series experiments.
func (a Arch) NewProvider(spec core.SystemSpec) delay.Provider {
	switch a {
	case ArchTableSteer:
		p := spec.NewTableSteer(18)
		p.UseFixed = true
		return p
	case ArchExact:
		return spec.NewExact()
	default:
		p := spec.NewTableFree()
		p.UseFixed = true
		return p
	}
}

// Lane is a request's scheduling priority class. Lanes are a scheduler
// concept: the frame scheduler drains every interactive frame of a
// geometry before touching its bulk backlog, so a single live probe frame
// jumps ahead of a cine stream instead of queueing behind it.
type Lane int

const (
	// LaneInteractive is the default: latency-sensitive single frames
	// (live probe view, tele-ultrasound interaction) that preempt bulk
	// work at the next frame boundary.
	LaneInteractive Lane = iota
	// LaneBulk marks throughput traffic — cine sequences, reprocessing —
	// that the scheduler runs when no interactive frame is waiting.
	LaneBulk

	numLanes = 2
)

func (l Lane) String() string {
	switch l {
	case LaneInteractive:
		return "interactive"
	case LaneBulk:
		return "bulk"
	}
	return fmt.Sprintf("Lane(%d)", int(l))
}

// ParseLane parses a lane name — the parser behind the X-Ultrabeam-Lane
// header and the lane= parameter. Empty means interactive; "cine" is an
// alias for bulk.
func ParseLane(name string) (Lane, error) {
	switch strings.ToLower(name) {
	case "", "interactive":
		return LaneInteractive, nil
	case "bulk", "cine":
		return LaneBulk, nil
	}
	return LaneInteractive, fmt.Errorf("serve: unknown lane %q (want interactive|bulk)", name)
}

// SessionRequest is everything that determines whether two requests can
// share a warm session: the Table I geometry, the session datapath
// configuration and the delay architecture.
//
// Lane is a scheduling hint, not part of the geometry: it is deliberately
// excluded from Fingerprint so interactive and bulk traffic of one probe
// share the same warm session and delay store — the whole point of lanes
// is two priorities over one hot pipeline, not two pipelines. Deadline is
// likewise per-request, not per-geometry: the client's total latency
// budget (X-Ultrabeam-Deadline-Ms header, deadline_ms stream field),
// which the scheduler uses to drop a frame whose client has already given
// up before it burns a core slot. 0 means no deadline.
type SessionRequest struct {
	Spec     core.SystemSpec
	Config   core.SessionConfig
	Arch     Arch
	Lane     Lane
	Deadline time.Duration
}

// Fingerprint canonically encodes the request: two requests map to the same
// warm geometry iff their fingerprints are equal. Every field that feeds
// session construction participates — the spec's physical numbers, the
// window, precision, cache mode and budget, the architecture, and each
// transmit origin — so a fingerprint hit guarantees bit-compatible reuse.
//
// The " wide=false" token is a constant: it keyed a float64 cache mode that
// no longer exists, and it stays so every fingerprint — and with it the
// cluster's shard placement — is byte-identical to the one older nodes
// compute.
func (r SessionRequest) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec{c=%g fc=%g b=%g elem=%dx%d pitch=%g fov=%gx%g depth=%g fs=%g focal=%dx%dx%d}",
		r.Spec.C, r.Spec.Fc, r.Spec.B, r.Spec.ElemX, r.Spec.ElemY, r.Spec.PitchL,
		r.Spec.ThetaDeg, r.Spec.PhiDeg, r.Spec.DepthLambda, r.Spec.Fs,
		r.Spec.FocalTheta, r.Spec.FocalPhi, r.Spec.FocalDepth)
	fmt.Fprintf(&b, " arch=%s win=%s prec=%s cached=%t budget=%d wide=false",
		r.Arch, r.Config.Window, r.Config.Precision,
		r.Config.Cached, r.Config.CacheBudget)
	for _, t := range r.Config.Transmits {
		fmt.Fprintf(&b, " tx(%g,%g,%g)", t.Origin.X, t.Origin.Y, t.Origin.Z)
	}
	return b.String()
}

// validate rejects requests the scheduler cannot key.
func (r SessionRequest) validate() error {
	return r.Spec.Validate()
}
