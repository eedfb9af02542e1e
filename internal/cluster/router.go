package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ultrabeam/internal/serve"
)

// Backend names one usbeamd node.
type Backend struct {
	// Name is the node's stable ring identity; "" defaults to Addr.
	// Keep it stable across restarts — the ring position (and therefore
	// which geometries a node owns) derives from it.
	Name string
	// Addr is the node's HTTP host:port.
	Addr string
	// StreamAddr is the node's cine stream TCP host:port ("" = the node
	// takes no streams).
	StreamAddr string
}

func (b Backend) name() string {
	if b.Name != "" {
		return b.Name
	}
	return b.Addr
}

// Config assembles a Router.
type Config struct {
	// Backends is the static fleet. Liveness is dynamic (health-checked);
	// membership is not — restart the router to add nodes.
	Backends []Backend
	// HealthInterval is the /v1/healthz polling cadence. <=0 defaults to 1s.
	HealthInterval time.Duration
	// HealthTimeout bounds one probe. <=0 defaults to 2s.
	HealthTimeout time.Duration
	// HTTP overrides the probe client and, through its Transport, the
	// proxy's (nil = http.DefaultClient).
	HTTP *http.Client
	// VNodes per backend on the ring (<=0 = DefaultVNodes).
	VNodes int
	// MaxBodyBytes caps one proxied request body. <=0 defaults to 256 MiB
	// (the serve default).
	MaxBodyBytes int64
	// Retries bounds a relayed stream's reconnects with no answered
	// compound in between; a relay out of budget closes the client
	// connection. <=0 defaults to 5.
	Retries int
	// Logf receives routing decisions (nil = silent).
	Logf func(format string, args ...any)
}

type backendState struct {
	b        Backend
	healthy  bool
	draining bool
	lastErr  string
}

// Router is the cluster frontend: an http.Handler proxying /v1/beamform
// to geometry owners plus a stream listener (ServeStream) relaying cine
// connections, with health-driven membership and query-shipping rebalance
// behind both.
type Router struct {
	cfg Config

	mu    sync.Mutex
	state map[string]*backendState // name → liveness
	ring  *Ring                    // healthy members only

	rebalanceMu sync.Mutex // serializes rebalance sweeps

	stats struct {
		Proxied, Retried, NoBackend, Streams, Rehomes, Rebalances, PrewarmsSent atomic.Int64
	}

	// dialStream opens the connection under a backend stream leg (nil =
	// TCP); tests inject fake legs here.
	dialStream func(ctx context.Context, addr string) (net.Conn, error)

	wg     sync.WaitGroup
	closed chan struct{}
}

// New builds a Router over the configured fleet. Every backend starts
// unknown-dead; CheckNow (or the Run loop's first sweep) admits the live
// ones.
func New(cfg Config) *Router {
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 2 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 5
	}
	r := &Router{cfg: cfg, state: map[string]*backendState{}, closed: make(chan struct{})}
	for _, b := range cfg.Backends {
		r.state[b.name()] = &backendState{b: b}
	}
	r.ring = NewRing(nil, cfg.VNodes)
	return r
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

func (r *Router) httpc() *http.Client {
	if r.cfg.HTTP != nil {
		return r.cfg.HTTP
	}
	return http.DefaultClient
}

// Run polls backend health until ctx is done. Membership changes rebuild
// the ring and kick a rebalance sweep.
func (r *Router) Run(ctx context.Context) {
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	r.CheckNow(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.closed:
			return
		case <-t.C:
			r.CheckNow(ctx)
		}
	}
}

// Close stops the Run loop and waits for background rebalances.
func (r *Router) Close() {
	select {
	case <-r.closed:
	default:
		close(r.closed)
	}
	r.wg.Wait()
}

// CheckNow probes every backend once, synchronously, and applies the
// result. Tests and daemon startup use it to reach a settled view without
// waiting out the polling interval.
func (r *Router) CheckNow(ctx context.Context) {
	type verdict struct {
		name              string
		healthy, draining bool
		msg               string
	}
	r.mu.Lock()
	var names []string
	for n := range r.state {
		names = append(names, n)
	}
	r.mu.Unlock()
	verdicts := make([]verdict, len(names))
	var wg sync.WaitGroup
	for i, n := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			r.mu.Lock()
			addr := r.state[name].b.Addr
			r.mu.Unlock()
			healthy, draining, msg := r.probe(ctx, addr)
			verdicts[i] = verdict{name, healthy, draining, msg}
		}(i, n)
	}
	wg.Wait()
	changed := false
	r.mu.Lock()
	for _, v := range verdicts {
		st := r.state[v.name]
		if st.healthy != v.healthy || st.draining != v.draining {
			changed = true
			r.logf("cluster: backend %s: healthy=%v draining=%v (%s)", v.name, v.healthy, v.draining, v.msg)
		}
		st.healthy, st.draining, st.lastErr = v.healthy, v.draining, v.msg
	}
	if changed {
		r.rebuildRingLocked()
	}
	r.mu.Unlock()
	if changed {
		r.kickRebalance()
	}
}

// probe runs one /v1/healthz round trip. 200 = healthy; a 503 whose body
// carries the drain contract's status is draining (out of the ring,
// still a plan source); anything else is down.
func (r *Router) probe(ctx context.Context, addr string) (healthy, draining bool, msg string) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/healthz", nil)
	if err != nil {
		return false, false, err.Error()
	}
	resp, err := r.httpc().Do(req)
	if err != nil {
		return false, false, err.Error()
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return true, false, "ok"
	}
	var h struct {
		Status string `json:"status"`
	}
	if json.Unmarshal(body, &h) == nil && h.Status == "draining" {
		return false, true, "draining"
	}
	return false, false, fmt.Sprintf("healthz %d", resp.StatusCode)
}

func (r *Router) rebuildRingLocked() {
	var live []string
	for n, st := range r.state {
		if st.healthy {
			live = append(live, n)
		}
	}
	r.ring = NewRing(live, r.cfg.VNodes)
}

// markUnhealthy demotes a backend on direct evidence — a proxy dial
// failure, a stream GOAWAY — without waiting for the next health sweep.
func (r *Router) markUnhealthy(name, reason string) {
	r.mu.Lock()
	st, ok := r.state[name]
	if !ok || !st.healthy {
		r.mu.Unlock()
		return
	}
	st.healthy, st.lastErr = false, reason
	r.rebuildRingLocked()
	r.mu.Unlock()
	r.logf("cluster: backend %s marked unhealthy (%s)", name, reason)
	r.kickRebalance()
}

// Owner resolves a fingerprint to its current owner (routing, stats,
// tests, ops).
func (r *Router) Owner(fp string) (Backend, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := r.ring.Owner(fp)
	if name == "" {
		return Backend{}, false
	}
	return r.state[name].b, true
}

// kickRebalance runs one query-shipping sweep in the background.
func (r *Router) kickRebalance() {
	select {
	case <-r.closed:
		return
	default:
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.Rebalance(context.Background())
	}()
}

// Rebalance pulls /v1/plans from every reachable backend — healthy and
// draining alike; a draining node is precisely the one whose plans must
// move — and replays each geometry whose ring owner is a different node
// onto that owner via /v1/prewarm. Queries, not bytes: the new owner
// rebuilds the store deterministically. Sweeps are serialized; extra
// kicks queue behind the running one.
func (r *Router) Rebalance(ctx context.Context) {
	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()
	r.stats.Rebalances.Add(1)

	r.mu.Lock()
	var sources []Backend
	for _, st := range r.state {
		if st.healthy || st.draining {
			sources = append(sources, st.b)
		}
	}
	r.mu.Unlock()

	for _, src := range sources {
		plans, err := r.fetchPlans(ctx, src)
		if err != nil {
			r.logf("cluster: plans from %s: %v", src.name(), err)
			continue
		}
		for _, p := range plans {
			opts, err := parseQuery(p.Query)
			if err != nil {
				r.logf("cluster: unparseable plan from %s: %v", src.name(), err)
				continue
			}
			fp := opts.Fingerprint()
			dst, ok := r.Owner(fp)
			if !ok || dst.name() == src.name() {
				continue
			}
			if err := r.sendPrewarm(ctx, dst, p); err != nil {
				r.logf("cluster: prewarm %s on %s: %v", fp, dst.name(), err)
				continue
			}
			r.stats.PrewarmsSent.Add(1)
			r.logf("cluster: re-homed plan %s: %s → %s", fp, src.name(), dst.name())
		}
	}
}

func (r *Router) fetchPlans(ctx context.Context, b Backend) ([]serve.ResidencyPlan, error) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+b.Addr+"/v1/plans", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.httpc().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("plans: HTTP %d", resp.StatusCode)
	}
	var pr serve.PlansResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&pr); err != nil {
		return nil, err
	}
	return pr.Plans, nil
}

func (r *Router) sendPrewarm(ctx context.Context, b Backend, p serve.ResidencyPlan) error {
	body, err := json.Marshal(p)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, r.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+b.Addr+"/v1/prewarm", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.httpc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("prewarm: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// parseQuery parses a /v1 query string (a plan's, a stream hello's) with
// the same ParseOptions the backends run, so router and node can never
// disagree about a session's identity — its Fingerprint, the shard key.
func parseQuery(query string) (serve.RequestOptions, error) {
	q, err := url.ParseQuery(query)
	if err != nil {
		return serve.RequestOptions{}, fmt.Errorf("bad query: %w", err)
	}
	return serve.ParseOptions(q, nil)
}

// Handler returns the router's HTTP face: /v1/beamform proxied by shard
// key, /v1/healthz for the router itself, /v1/stats aggregating the fleet.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/beamform", r.handleBeamform)
	mux.HandleFunc("GET /v1/healthz", r.handleHealthz)
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	return mux
}

// handleBeamform proxies one request to the owner of its fingerprint
// through an httputil.ReverseProxy. The backend's response crosses
// verbatim — status, Retry-After and all, less the hop-by-hop headers: a
// 503's Retry-After is derived from that node's actual queue depth, so the
// router forwarding it unchanged is strictly better advice than anything
// it could synthesize. The router synthesizes a 503 only when no backend
// is available at all. A failed round trip demotes the backend and retries
// once on the recomputed owner, which is why the body is buffered first.
func (r *Router) handleBeamform(w http.ResponseWriter, req *http.Request) {
	opts, err := serve.ParseOptions(req.URL.Query(), req.Header)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fp := opts.Fingerprint()
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge // the node's answer to the same body
		}
		http.Error(w, fmt.Sprintf("reading body: %v", err), status)
		return
	}
	for attempt := 0; ; attempt++ {
		b, ok := r.Owner(fp)
		if !ok {
			r.noBackend(w)
			return
		}
		var failed error
		proxy := &httputil.ReverseProxy{
			Rewrite: func(pr *httputil.ProxyRequest) {
				pr.SetURL(&url.URL{Scheme: "http", Host: b.Addr})
				// GetBody lets the transport replay the body on a stale
				// keep-alive connection instead of failing the round trip.
				pr.Out.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
				pr.Out.Body, _ = pr.Out.GetBody()
				pr.Out.ContentLength, pr.Out.TransferEncoding = int64(len(body)), nil
			},
			Transport: r.httpc().Transport,
			ModifyResponse: func(resp *http.Response) error {
				resp.Header.Set("X-Ultrabeam-Backend", b.name())
				r.stats.Proxied.Add(1)
				return nil
			},
			ErrorHandler: func(_ http.ResponseWriter, _ *http.Request, err error) { failed = err },
		}
		proxy.ServeHTTP(w, req)
		if failed == nil || req.Context().Err() != nil {
			return // answered, or the client is gone and nothing is owed
		}
		r.markUnhealthy(b.name(), fmt.Sprintf("proxy: %v", failed))
		if attempt > 0 {
			http.Error(w, fmt.Sprintf("backend %s: %v", b.name(), failed), http.StatusBadGateway)
			return
		}
		r.stats.Retried.Add(1)
	}
}

// noBackend is the one 503 the router synthesizes itself: with nobody to
// forward to there is no queue-derived hint to pass through, so the
// Retry-After is the health interval — the soonest the ring can change.
func (r *Router) noBackend(w http.ResponseWriter) {
	r.stats.NoBackend.Add(1)
	secs := max(1, int(r.cfg.HealthInterval/time.Second))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, "no backend available", http.StatusServiceUnavailable)
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	live := len(r.ring.Nodes())
	total := len(r.state)
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if live == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{"status": statusWord(live), "backends_live": live, "backends": total})
}

func statusWord(live int) string {
	if live == 0 {
		return "no-backends"
	}
	return "ok"
}

// handleStats aggregates: the router's own counters and per-backend
// liveness, plus each healthy node's /v1/stats verbatim under its name.
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	type beState struct {
		Name     string `json:"name"`
		Addr     string `json:"addr"`
		Healthy  bool   `json:"healthy"`
		Draining bool   `json:"draining"`
		LastErr  string `json:"last_err,omitempty"`
	}
	r.mu.Lock()
	var bes []beState
	var healthy []Backend
	for _, st := range r.state {
		bes = append(bes, beState{st.b.name(), st.b.Addr, st.healthy, st.draining, st.lastErr})
		if st.healthy {
			healthy = append(healthy, st.b)
		}
	}
	r.mu.Unlock()
	sort.Slice(bes, func(i, j int) bool { return bes[i].Name < bes[j].Name })
	nodes := map[string]json.RawMessage{}
	for _, b := range healthy {
		ctx, cancel := context.WithTimeout(req.Context(), r.cfg.HealthTimeout)
		sreq, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+b.Addr+"/v1/stats", nil)
		if err == nil {
			if resp, err := r.httpc().Do(sreq); err == nil {
				if raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20)); err == nil && resp.StatusCode == http.StatusOK {
					nodes[b.name()] = raw
				}
				resp.Body.Close()
			}
		}
		cancel()
	}
	router := map[string]int64{
		"proxied": r.stats.Proxied.Load(), "retried": r.stats.Retried.Load(),
		"no_backend_503s": r.stats.NoBackend.Load(), "streams": r.stats.Streams.Load(),
		"stream_rehomes": r.stats.Rehomes.Load(), "rebalances": r.stats.Rebalances.Load(),
		"prewarms_sent": r.stats.PrewarmsSent.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"router": router, "backends": bes, "nodes": nodes})
}
