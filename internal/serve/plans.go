// Warm-store handoff: the export/import half of cluster rebalancing. A
// geometry's warm state is fully described by the canonical /v1 query
// naming the session (RequestOptions.Encode): the query carries the cache
// budget, the budget fixes the resident prefix (delaycache's one residency
// rule), and block content is deterministic — so a new owner that builds
// the same session and warms serves bit-identically to the old owner.
// Rebalancing ships queries, never bytes: GET /v1/plans exports them, POST
// /v1/prewarm replays one on the new owner, and the router drives both
// when ring membership changes.
package serve

import (
	"ultrabeam/internal/delaycache"
)

// ResidencyPlan is one geometry's warm state, serialized for handoff.
type ResidencyPlan struct {
	// Query is the canonical /v1 query string reconstructing the session
	// request (ParseOptions of exactly these parameters rebuilds the same
	// fingerprint, and so the same resident prefix, on any node).
	Query string `json:"query"`
}

// PlansResponse is the GET /v1/plans payload.
type PlansResponse struct {
	Plans []ResidencyPlan `json:"plans"`
	// Skipped counts geometries whose request is not expressible in the
	// /v1 grammar (programmatic transmit sets, non-Table-I specs): they
	// serve fine locally but cannot be handed off.
	Skipped int `json:"skipped,omitempty"`
}

// ExportPlans snapshots every live geometry as a ResidencyPlan. Draining
// schedulers still export — handoff during drain is exactly the point:
// the router pulls the plans while the node empties and replays them on
// the new owners. Geometries whose requests fall outside the /v1 grammar
// are counted, not exported.
func (s *Scheduler) ExportPlans() PlansResponse {
	resp := PlansResponse{Plans: []ResidencyPlan{}}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.geoms {
		req := g.req
		req.Lane, req.Deadline = LaneInteractive, 0 // per-request fields, not geometry
		query, err := (RequestOptions{Request: req}).EncodeQuery()
		if err != nil {
			resp.Skipped++
			continue
		}
		resp.Plans = append(resp.Plans, ResidencyPlan{Query: query})
	}
	return resp
}

// Prewarm replays an exported geometry: it creates the geometry if cold
// (building the session and delay store exactly as the first live frame
// would) and fills its resident blocks in the background. Deterministic
// residency makes this a complete warm-store handoff — after the fill, the
// node serves the geometry bit-identically to the exporter, without one
// cached byte having crossed the network. Returns ErrDraining/ErrClosed
// from a node that cannot take new geometries, ErrOverloaded when every
// slot is pinned by live work. A geometry still mid-build from live
// traffic fills lazily; prewarming it again later is cheap and idempotent.
func (s *Scheduler) Prewarm(req SessionRequest) error {
	if err := req.validate(); err != nil {
		return err
	}
	fp := req.Fingerprint()
	now := s.cfg.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	g := s.geoms[fp]
	if g == nil {
		if len(s.geoms) >= s.cfg.MaxGeometries && !s.evictColdestLocked() {
			s.mu.Unlock()
			return ErrOverloaded
		}
		g = &schedGeom{fp: fp, req: req, building: true, lastUsed: now, warmOnBuild: true}
		s.geoms[fp] = g
		s.wg.Add(1)
		go s.build(g)
		s.mu.Unlock()
		return nil
	}
	g.lastUsed = now
	cache := g.cache
	if cache != nil {
		s.wg.Add(1) // under s.mu while open, so Close waits for the warm
	}
	s.mu.Unlock()
	if cache != nil {
		go s.warm(cache.Shared())
	}
	return nil
}

// warm prefills a store's resident blocks off the request path. Concurrent
// live fills are safe and never duplicated (per-block sync.Once). The
// caller takes the warm's s.wg slot under s.mu while the scheduler is open,
// the way Begin does for builds, so Close returns only after the fill.
func (s *Scheduler) warm(store *delaycache.Shared) {
	defer s.wg.Done()
	store.Warm()
}
