// Package faultpoint is the serving stack's fault-injection harness:
// named injection points compiled into production code paths (session
// build, shared-cache fill, wire decode, stream read/write, scheduler
// dispatch) that stay inert — one atomic bool load — until a schedule
// activates them. Activation is explicit (usbeamd's -faults flag, or a
// test calling Activate) and deterministic: a
// seeded spec produces the same fire/no-fire decision sequence at every
// point on every run, so a chaos failure reproduces from its seed instead
// of vanishing when the race detector slows the schedule down.
//
// A schedule is a semicolon-separated spec:
//
//	seed=42;serve.dispatch=0.05;wire.decode=0.1;delaycache.fill=0.2:sleep=2ms
//
// Each entry arms one registered point with a fire probability in (0, 1]
// (or "every:N" for strictly periodic firing) and an optional sleep applied
// on every hit — the latency-injection form for sites like cache fills
// that have no error path to fail. "all" arms every registered point at
// one rate. The decision for the k-th call at a point is a pure function
// of (seed, point name, k): concurrency changes which caller observes a
// given decision, never the sequence itself.
package faultpoint

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel every injected fault error wraps, so callers
// (and chaos tests) can tell deliberate faults from organic failures with
// errors.Is.
var ErrInjected = errors.New("injected fault")

// active is the global fast-path switch: every Point check starts (and,
// when no schedule is armed, ends) with this single atomic load.
var active atomic.Bool

var (
	regMu  sync.Mutex
	points = map[string]*Point{}
)

// arming is one point's armed schedule, swapped atomically so hot paths
// never take a lock.
type arming struct {
	seed      uint64
	threshold uint64        // fire when splitmix64(seed+k) < threshold
	every     int64         // >0: fire every Nth call instead
	sleep     time.Duration // applied on every hit
}

// Point is one named injection site. Construct points as package-level
// variables with New; the registry is what schedules arm by name.
type Point struct {
	name  string
	armed atomic.Pointer[arming]
	calls atomic.Int64 // calls while armed (the deterministic sequence index)
	fired atomic.Int64
}

// New registers (or returns the existing) point under name.
func New(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	if p, ok := points[name]; ok {
		return p
	}
	p := &Point{name: name}
	points[name] = p
	// A point constructed after Activate still joins the live schedule:
	// package init order must not decide which sites a spec can reach.
	if spec := currentSpec; spec != nil {
		if a := spec.armFor(name); a != nil {
			p.armed.Store(a)
		}
	}
	return p
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

// Fire decides whether the fault fires at this call, applying the armed
// sleep on a hit. When no schedule is active this is a single atomic load
// and a nil check — the zero-overhead contract that lets points live on
// hot paths.
func (p *Point) Fire() bool {
	if !active.Load() {
		return false
	}
	a := p.armed.Load()
	if a == nil {
		return false
	}
	k := p.calls.Add(1)
	var hit bool
	if a.every > 0 {
		hit = k%a.every == 0
	} else {
		hit = splitmix64(a.seed+uint64(k)) < a.threshold
	}
	if hit {
		p.fired.Add(1)
		if a.sleep > 0 {
			time.Sleep(a.sleep)
		}
	}
	return hit
}

// Err returns an injected error (wrapping ErrInjected, naming the point)
// when the fault fires, nil otherwise.
func (p *Point) Err() error {
	if p.Fire() {
		return fmt.Errorf("faultpoint %s: %w", p.name, ErrInjected)
	}
	return nil
}

// splitmix64 is the stateless mixer behind the deterministic schedule: a
// well-distributed pure function of its input, so decision k needs no
// per-point PRNG state beyond the call counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// entry is one parsed spec clause.
type entry struct {
	prob  float64
	every int64
	sleep time.Duration
}

// parsedSpec is an activated schedule: per-point entries plus an optional
// "all" wildcard.
type parsedSpec struct {
	seed    uint64
	entries map[string]entry
	all     *entry
}

// armFor builds the arming for a named point under this spec, or nil when
// the spec does not touch it.
func (s *parsedSpec) armFor(name string) *arming {
	e, ok := s.entries[name]
	if !ok {
		if s.all == nil {
			return nil
		}
		e = *s.all
	}
	a := &arming{every: e.every, sleep: e.sleep}
	// Point-distinct seeds: the same global seed drives an independent
	// deterministic sequence at every site.
	a.seed = s.seed
	for _, c := range name {
		a.seed = splitmix64(a.seed + uint64(c))
	}
	if e.every <= 0 {
		a.threshold = uint64(e.prob * math.MaxUint64)
		if e.prob >= 1 {
			a.threshold = math.MaxUint64
			a.every = 1
		}
	}
	return a
}

// currentSpec is the live schedule (guarded by regMu); nil when inactive.
var currentSpec *parsedSpec

// Activate parses spec and arms the named points. The empty spec is a
// no-op. Activate replaces any prior schedule; Deactivate clears it.
func Activate(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	parsed := &parsedSpec{seed: 1, entries: map[string]entry{}}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, val, ok := strings.Cut(clause, "=")
		if !ok {
			return fmt.Errorf("faultpoint: clause %q is not name=value", clause)
		}
		name = strings.TrimSpace(name)
		if name == "seed" {
			seed, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return fmt.Errorf("faultpoint: bad seed %q", val)
			}
			parsed.seed = seed
			continue
		}
		var e entry
		rate := val
		if rest, sleepStr, found := strings.Cut(val, ":sleep="); found {
			rate = rest
			d, err := time.ParseDuration(strings.TrimSpace(sleepStr))
			if err != nil || d < 0 {
				return fmt.Errorf("faultpoint: bad sleep in %q", clause)
			}
			e.sleep = d
		}
		rate = strings.TrimSpace(rate)
		if n, found := strings.CutPrefix(rate, "every:"); found {
			every, err := strconv.ParseInt(n, 10, 64)
			if err != nil || every < 1 {
				return fmt.Errorf("faultpoint: bad every:N in %q", clause)
			}
			e.every = every
		} else {
			p, err := strconv.ParseFloat(rate, 64)
			if err != nil || p <= 0 || p > 1 {
				return fmt.Errorf("faultpoint: rate %q outside (0, 1]", rate)
			}
			e.prob = p
		}
		if name == "all" {
			all := e
			parsed.all = &all
		} else {
			parsed.entries[name] = e
		}
	}

	regMu.Lock()
	defer regMu.Unlock()
	currentSpec = parsed
	for name, p := range points {
		p.armed.Store(parsed.armFor(name))
		p.calls.Store(0)
		p.fired.Store(0)
	}
	active.Store(true)
	return nil
}

// Deactivate clears the schedule: every point returns to the inert
// single-load fast path. Counters are preserved for Snapshot until the
// next Activate.
func Deactivate() {
	regMu.Lock()
	defer regMu.Unlock()
	active.Store(false)
	currentSpec = nil
	for _, p := range points {
		p.armed.Store(nil)
	}
}

// Active reports whether a schedule is armed.
func Active() bool { return active.Load() }

// PointStats is one point's row of Snapshot.
type PointStats struct {
	Name  string `json:"name"`
	Armed bool   `json:"armed"`
	Calls int64  `json:"calls"`
	Fired int64  `json:"fired"`
}

// Snapshot lists every registered point with its call/fire counters,
// sorted by name — the observability a chaos run asserts its coverage on.
func Snapshot() []PointStats {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]PointStats, 0, len(points))
	for name, p := range points {
		out = append(out, PointStats{
			Name:  name,
			Armed: p.armed.Load() != nil,
			Calls: p.calls.Load(),
			Fired: p.fired.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
