// Command usbeamd is the long-lived beamforming daemon. By default it runs
// the per-geometry frame scheduler: one hot session per warm probe
// geometry, incoming frames queued into priority lanes (interactive jumps
// bulk/cine) and dispatched as fused batches that amortize delay-block
// regeneration across the backlog. -checkout falls back to the PR 5
// checkout pool — a warm session leased per request. See
// internal/serve.Server for the wire protocol, /healthz for liveness and
// /stats for occupancy, lane wait percentiles and shared-cache hit rates.
//
// Usage:
//
//	usbeamd [-addr :8642] [-stream-addr :8643] [-max-geometries N]
//	        [-max-queue N] [-max-batch N] [-core-slots N] [-idle-ttl 5m]
//	        [-acquire-timeout 10s] [-max-body 256MiB] [-drain-timeout 30s]
//	usbeamd -checkout [-max-sessions N] [-max-queue N] [-private-caches] ...
//
// SIGTERM (or interrupt) triggers a graceful drain: /healthz flips to 503
// with drain progress so a router can deroute, new frames are refused with
// Retry-After hints, cine streams get an in-band GOAWAY at their next
// compound boundary, and every frame already queued finishes (bounded by
// -drain-timeout) before the listeners close.
//
// -faults (or the ULTRABEAM_FAULTS environment variable) arms the
// internal/faultpoint chaos schedule — deterministic injected failures for
// resilience testing, never for production.
//
// -stream-addr additionally listens for the persistent cine stream
// transport (scheduler mode only): one TCP connection per probe, wire
// frames in, volumes out, no per-frame HTTP overhead. See
// internal/serve.Server.ServeStream for the protocol.
//
// A quick exchange against a local daemon (see examples/serveclient for a
// programmatic client):
//
//	usbeamd -addr :8642 -stream-addr :8643 &
//	go run ./examples/serveclient -addr localhost:8642 -wire i16
//	go run ./examples/serveclient -stream localhost:8643 -wire i16 -frames 8
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
	"sync"
	"syscall"
	"time"

	"ultrabeam/internal/faultpoint"
	"ultrabeam/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8642", "listen address")
	streamAddr := flag.String("stream-addr", "", "also listen for the persistent cine stream transport on this TCP address (scheduler mode only)")
	checkout := flag.Bool("checkout", false, "serve from the checkout pool instead of the frame scheduler")
	maxGeometries := flag.Int("max-geometries", 4, "warm geometries the scheduler keeps hot")
	maxSessions := flag.Int("max-sessions", 4, "checkout mode: live warm sessions across all geometries")
	maxQueue := flag.Int("max-queue", 0, "queued frames before 503 (0 = mode default)")
	maxBatch := flag.Int("max-batch", 4, "frames fused into one scheduler dispatch")
	coreSlots := flag.Int("core-slots", 1, "geometries beamforming concurrently (scheduler turnstile width)")
	idleTTL := flag.Duration("idle-ttl", 5*time.Minute, "evict geometries idle this long (0 = never)")
	acquireTimeout := flag.Duration("acquire-timeout", 10*time.Second, "max time a request may queue for a session")
	maxBody := flag.Int64("max-body", 256<<20, "request body byte cap")
	privateCaches := flag.Bool("private-caches", false, "checkout mode: disable delay-store sharing (per-session caches; A/B baseline)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time a SIGTERM drain may spend finishing queued frames")
	faults := flag.String("faults", "", "fault-injection schedule (see internal/faultpoint); testing only")
	flag.Parse()

	if *faults != "" {
		if err := faultpoint.Activate(*faults); err != nil {
			fmt.Fprintln(os.Stderr, "usbeamd: -faults:", err)
			os.Exit(1)
		}
		log.Printf("usbeamd: fault injection ARMED (%s) — not for production", *faults)
	} else if err := faultpoint.ActivateFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "usbeamd: %s: %v\n", faultpoint.EnvVar, err)
		os.Exit(1)
	} else if faultpoint.Active() {
		log.Printf("usbeamd: fault injection ARMED via %s — not for production", faultpoint.EnvVar)
	}

	var (
		cfg   serve.ServerConfig
		stop  func()
		model string
	)
	if *checkout {
		pool := serve.NewPool(serve.PoolConfig{
			MaxSessions:   *maxSessions,
			MaxQueue:      *maxQueue,
			IdleTTL:       *idleTTL,
			PrivateCaches: *privateCaches,
		})
		cfg.Pool, stop = pool, pool.Close
		model = fmt.Sprintf("checkout pool, max %d sessions", *maxSessions)
	} else {
		sched := serve.NewScheduler(serve.SchedulerConfig{
			MaxGeometries: *maxGeometries,
			MaxQueue:      *maxQueue,
			MaxBatch:      *maxBatch,
			CoreSlots:     *coreSlots,
			IdleTTL:       *idleTTL,
		})
		cfg.Scheduler, stop = sched, sched.Close
		model = fmt.Sprintf("frame scheduler, max %d geometries, batch %d", *maxGeometries, *maxBatch)
	}
	cfg.MaxBodyBytes, cfg.AcquireTimeout = *maxBody, *acquireTimeout
	srv, err := serve.NewServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "usbeamd:", err)
		os.Exit(1)
	}
	hs := serve.NewHTTPServer(*addr, srv)

	// The stream transport shares the scheduler with HTTP: same lanes, same
	// fused batches, same /stats counters.
	streamCtx, streamCancel := context.WithCancel(context.Background())
	var streamWG sync.WaitGroup
	var streamLn net.Listener
	if *streamAddr != "" {
		if *checkout {
			fmt.Fprintln(os.Stderr, "usbeamd: -stream-addr needs scheduler mode (drop -checkout)")
			os.Exit(1)
		}
		streamLn, err = net.Listen("tcp", *streamAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "usbeamd:", err)
			os.Exit(1)
		}
		streamWG.Add(1)
		go func() {
			defer streamWG.Done()
			if err := srv.ServeStream(streamCtx, streamLn); err != nil {
				log.Println("usbeamd: stream:", err)
			}
		}()
		log.Printf("usbeamd: cine stream transport on %s", *streamAddr)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Println("usbeamd: draining (healthz now 503; queued frames finishing)")
		// Drain before anything closes: new work is refused with GOAWAY /
		// Retry-After, /healthz flips to 503 so a router deroutes, and every
		// frame already queued finishes. Stream connections observe the
		// drain at their next compound boundary and say goodbye in-band —
		// only then do the listeners come down.
		drainCtx, drainCancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Shutdown(drainCtx); err != nil {
			log.Println("usbeamd: drain:", err)
		} else {
			log.Println("usbeamd: drained clean")
		}
		drainCancel()
		if streamLn != nil {
			streamCancel()
			streamLn.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Println("usbeamd: shutdown:", err)
		}
	}()
	log.Printf("usbeamd: serving on %s (%s, idle TTL %s)", *addr, model, *idleTTL)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "usbeamd:", err)
		os.Exit(1)
	}
	<-done
	streamCancel()
	streamWG.Wait()
	stop()
}
