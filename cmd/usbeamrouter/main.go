// Command usbeamrouter fronts a cluster of usbeamd nodes with a
// consistent-hash router: each request's geometry fingerprint picks one
// owner, so every node keeps the warm delay store for its own geometries
// only and the fleet's cache budget is additive instead of replicated.
// See internal/cluster for the design.
//
// Usage:
//
//	usbeamrouter -backends host:8642+host:8643,host2:8642+host2:8643 \
//	             [-addr :8640] [-stream-addr :8641] \
//	             [-health-interval 1s] [-health-timeout 2s] \
//	             [-vnodes 64] [-retries 5] [-max-body 256MiB]
//
// Each -backends entry is an HTTP address, optionally "+stream-address"
// for the persistent cine transport. Membership follows each backend's
// own /v1/healthz: a node answering the 503 drain contract leaves the ring
// immediately (its geometries re-shard and get prewarmed on their new
// owners from their canonical queries) but keeps serving /v1/plans until
// it exits.
//
// The router exposes the same /v1 surface as a single daemon — /v1/beamform
// reverse-proxied to the owner with the response (status, Retry-After,
// body) crossing verbatim, /v1/healthz for the cluster, /v1/stats
// aggregating router counters with every node's own stats — plus the cine
// stream transport on -stream-addr, re-homed to the next owner mid-stream
// if a backend drains or dies. A stream that spends -retries reconnects
// without an answer is closed, and the client re-homes through the router.
//
// SIGTERM closes the listeners; in-flight requests and streams finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"ultrabeam/internal/cluster"
	"ultrabeam/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8640", "router HTTP listen address")
	streamAddr := flag.String("stream-addr", "", "also relay the persistent cine stream transport on this TCP address")
	backends := flag.String("backends", "", "comma-separated backend list, each http-addr[+stream-addr]")
	healthInterval := flag.Duration("health-interval", time.Second, "backend /v1/healthz probe period")
	healthTimeout := flag.Duration("health-timeout", 2*time.Second, "per-probe (and backend dial) timeout")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per backend on the hash ring")
	retries := flag.Int("retries", 5, "re-home attempts without an answered compound before a relayed stream gives up")
	maxBody := flag.Int64("max-body", 256<<20, "request body byte cap")
	flag.Parse()

	bes, err := parseBackends(*backends)
	if err != nil {
		fmt.Fprintln(os.Stderr, "usbeamrouter:", err)
		os.Exit(1)
	}
	if len(bes) == 0 {
		fmt.Fprintln(os.Stderr, "usbeamrouter: -backends is required (host:port[+stream-host:port],...)")
		os.Exit(1)
	}

	r := cluster.New(cluster.Config{
		Backends:       bes,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
		VNodes:         *vnodes,
		Retries:        *retries,
		MaxBodyBytes:   *maxBody,
		Logf:           log.Printf,
	})
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.CheckNow(ctx) // first ring before the listeners open
	go r.Run(ctx)

	hs := serve.NewHTTPServer(*addr, r.Handler())

	var streamWG sync.WaitGroup
	var streamLn net.Listener
	if *streamAddr != "" {
		streamLn, err = net.Listen("tcp", *streamAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "usbeamrouter:", err)
			os.Exit(1)
		}
		streamWG.Add(1)
		go func() {
			defer streamWG.Done()
			if err := r.ServeStream(ctx, streamLn); err != nil {
				log.Println("usbeamrouter: stream:", err)
			}
		}()
		log.Printf("usbeamrouter: cine stream relay on %s", *streamAddr)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Println("usbeamrouter: shutting down")
		if streamLn != nil {
			streamLn.Close()
		}
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Println("usbeamrouter: shutdown:", err)
		}
	}()

	for _, be := range bes {
		if be.StreamAddr != "" {
			log.Printf("usbeamrouter: backend %s (stream %s)", be.Addr, be.StreamAddr)
		} else {
			log.Printf("usbeamrouter: backend %s", be.Addr)
		}
	}
	log.Printf("usbeamrouter: routing on %s across %d backends (probe every %s)", *addr, len(bes), *healthInterval)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "usbeamrouter:", err)
		os.Exit(1)
	}
	<-done
	cancel()
	streamWG.Wait()
}

// parseBackends splits "http-addr[+stream-addr],..." into Backend entries.
func parseBackends(s string) ([]cluster.Backend, error) {
	var out []cluster.Backend
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		be := cluster.Backend{Addr: part}
		if i := strings.IndexByte(part, '+'); i >= 0 {
			be.Addr, be.StreamAddr = part[:i], part[i+1:]
			if be.Addr == "" || be.StreamAddr == "" {
				return nil, fmt.Errorf("backend %q: want http-addr+stream-addr", part)
			}
		}
		out = append(out, be)
	}
	return out, nil
}
