// Package cluster shards the serving stack by geometry: a thin router
// consistent-hashes each request's session fingerprint across usbeamd
// backends, so every node keeps the warm delay store for its own
// geometries only and a fleet of N nodes holds N disjoint warm sets
// instead of N copies of one. The fingerprint is the natural shard key —
// the delay working set belongs to the geometry (the paper's whole
// amortization argument), so routing by fingerprint is what makes the
// per-node cache budget additive across the fleet.
//
// Membership follows each backend's own /v1/healthz: a draining node (the
// PR-8 graceful-drain contract) leaves the ring immediately but keeps
// answering /v1/plans, which is exactly what rebalancing consumes — the
// router ships each displaced geometry's canonical /v1 query to its new
// owner via /v1/prewarm, never the cached bytes: the query's budget fixes
// the resident prefix and block regeneration is deterministic, so the new
// owner prefills an identical store and serves bit-identically.
//
// The router proxies both transports. HTTP requests forward to the
// owner with the backend's response — status, Retry-After, everything —
// copied through verbatim; the persistent cine stream relays raw frames
// (wire.CopyFrame/CopyVolume, no re-encode) and re-homes a live stream to
// the next owner on a backend GOAWAY or death, resending only the
// unanswered compounds so the client never notices beyond latency.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per backend. 64 points per
// node keeps the expected load imbalance across a handful of nodes
// within a few percent while the ring stays tiny (hundreds of points).
const DefaultVNodes = 64

// Ring is a consistent-hash ring over backend names. It is immutable —
// membership changes build a new ring — so lookups need no locking.
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing hashes each node onto vnodes points (≤0 = DefaultVNodes).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{points: make([]ringPoint, 0, len(nodes)*vnodes)}
	for _, n := range nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node // total order for determinism
	})
	return r
}

// Owner maps a shard key — a geometry fingerprint — to the node owning
// it: the first ring point at or after the key's hash. Returns "" on an
// empty ring. Consistency is the point: adding or removing one node
// remaps only the keys that land on its points, so a membership change
// displaces ~1/N of the warm geometries instead of re-sharding them all.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Nodes returns the distinct node names on the ring.
func (r *Ring) Nodes() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range r.points {
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	sort.Strings(out)
	return out
}

// hash64 is FNV-1a finalized with a splitmix64-style avalanche. The
// finalizer is load-bearing: raw FNV-1a of short strings that differ only
// in a trailing character ("node#0" … "node#63") changes almost linearly,
// which parks all of a node's vnode points on one consecutive arc and
// collapses the ring's balance. Full avalanche spreads them uniformly.
func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
