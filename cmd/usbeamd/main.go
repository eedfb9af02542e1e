// Command usbeamd is the long-lived beamforming daemon. It runs the
// per-geometry frame scheduler: one hot session per warm probe geometry,
// incoming frames queued into priority lanes (interactive jumps bulk/cine)
// and dispatched one frame at a time, while the geometry's shared delay
// store amortizes delay generation across frames. See
// internal/serve.Server for the wire protocol,
// /v1/healthz for liveness and /v1/stats for occupancy, lane wait
// percentiles and shared-cache hit rates.
//
// Usage:
//
//	usbeamd [-addr :8642] [-stream-addr :8643] [-max-geometries N]
//	        [-max-queue N] [-idle-ttl 5m]
//	        [-acquire-timeout 10s] [-max-body 256MiB] [-drain-timeout 30s]
//
// SIGTERM (or interrupt) triggers a graceful drain: /v1/healthz flips to 503
// with drain progress so a router can deroute, new frames are refused with
// Retry-After hints, cine streams get an in-band GOAWAY at their next
// compound boundary, and every frame already queued finishes (bounded by
// -drain-timeout) before the listeners close.
//
// -faults arms the internal/faultpoint chaos schedule — deterministic
// injected failures for resilience testing, never for production. It is
// the only way to arm one: no environment variable does.
//
// -stream-addr additionally listens for the persistent cine stream
// transport: one TCP connection per probe, wire frames in, volumes out, no
// per-frame HTTP overhead. See
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
	streamAddr := flag.String("stream-addr", "", "also listen for the persistent cine stream transport on this TCP address")
	maxGeometries := flag.Int("max-geometries", 4, "warm geometries the scheduler keeps hot")
	maxQueue := flag.Int("max-queue", 64, "queued frames per geometry and lane before 503")
	idleTTL := flag.Duration("idle-ttl", 5*time.Minute, "evict geometries idle this long (0 = never)")
	acquireTimeout := flag.Duration("acquire-timeout", 10*time.Second, "max time a request may queue for a session")
	maxBody := flag.Int64("max-body", 256<<20, "request body byte cap")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time a SIGTERM drain may spend finishing queued frames")
	faults := flag.String("faults", "", "fault-injection schedule (see internal/faultpoint); testing only")
	flag.Parse()

	if *faults != "" {
		if err := faultpoint.Activate(*faults); err != nil {
			fmt.Fprintln(os.Stderr, "usbeamd: -faults:", err)
			os.Exit(1)
		}
		log.Printf("usbeamd: fault injection ARMED (%s) — not for production", *faults)
	}

	sched := serve.NewScheduler(serve.SchedulerConfig{
		MaxGeometries: *maxGeometries,
		MaxQueue:      *maxQueue,
		IdleTTL:       *idleTTL,
	})
	srv, err := serve.NewServer(serve.ServerConfig{
		Scheduler: sched, MaxBodyBytes: *maxBody, AcquireTimeout: *acquireTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "usbeamd:", err)
		os.Exit(1)
	}
	hs := serve.NewHTTPServer(*addr, srv)

	// The stream transport shares the scheduler with HTTP: same lanes, same
	// /stats counters.
	streamCtx, streamCancel := context.WithCancel(context.Background())
	var streamWG sync.WaitGroup
	var streamLn net.Listener
	if *streamAddr != "" {
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
		log.Println("usbeamd: draining (/v1/healthz now 503; queued frames finishing)")
		// Drain before anything closes: new work is refused with GOAWAY /
		// Retry-After, /v1/healthz flips to 503 so a router deroutes, and every
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
	log.Printf("usbeamd: serving on %s (max %d geometries, idle TTL %s)", *addr, *maxGeometries, *idleTTL)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "usbeamd:", err)
		os.Exit(1)
	}
	<-done
	streamCancel()
	streamWG.Wait()
	sched.Close()
}
