package serve

import (
	"fmt"
	"testing"
)

// BenchmarkEvictionRewarm quantifies the eviction policy against the
// deterministic prefix: because the resident set is a pure function of
// geometry and budget, evicting a store costs exactly one regeneration of
// the prefix on the next frame — nothing else. The benchmark measures a
// frame right after Evict (cold, pays the refill) against the warm steady
// state, at full and half residency; the warm/cold gap is the whole price
// of a TTL sweep, which is what makes aggressive idle eviction cheap to get
// wrong-side: a mistakenly evicted geometry loses one warm-up, not
// correctness.
func BenchmarkEvictionRewarm(b *testing.B) {
	req := tinyRequest()
	bufs := tinyFrame(b, req.Spec)
	blockBytes := int64(req.Spec.FocalTheta*req.Spec.FocalPhi*req.Spec.Elements()) * 2
	budgets := map[string]int64{
		"full": -1,
		"half": blockBytes * int64(req.Spec.FocalDepth) / 2,
	}
	for name, budget := range budgets {
		r := req
		r.Config.CacheBudget = budget
		for _, mode := range []string{"warm", "evict-each-frame"} {
			b.Run(fmt.Sprintf("budget=%s/%s", name, mode), func(b *testing.B) {
				sess, cache, err := r.Spec.NewSessionConfig(r.Config, r.Arch.NewProvider(r.Spec))
				if err != nil {
					b.Fatal(err)
				}
				defer destroySession(sess, cache)
				if _, err := runFrame(sess, bufs); err != nil { // warm the prefix
					b.Fatal(err)
				}
				shared := cache.Shared()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "evict-each-frame" {
						shared.Evict()
					}
					if _, err := runFrame(sess, bufs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
