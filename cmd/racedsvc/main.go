// Command racedsvc is the long-running detection service: a multi-tenant
// HTTP front end over the race-detection harness. Clients POST run
// requests to open sessions; each session executes its own System with a
// dedicated scoped telemetry recorder under admission control (a bounded
// concurrent-session pool with a bounded queue and per-session wall
// deadline). Race reports, crash/recovery milestones, and flight-recorder
// trips land in an append-only report store that clients tail live over
// SSE or long-poll. See docs/SERVICE.md.
//
// Usage:
//
//	racedsvc -addr :8321
//	racedsvc -addr :8321 -max-sessions 8 -queue 128 -session-timeout 5m
//	racedsvc -addr :8321 -data /var/lib/racedsvc        # durable report store
//	racedsvc -addr :8321 -tenant-max-active 4           # per-tenant quota
//
// Then:
//
//	curl -s localhost:8321/healthz
//	curl -s -X POST localhost:8321/sessions -d '{"app":"TSP","procs":4}'
//	curl -s localhost:8321/reports/stream?since=0
//	sweeprun -apps TSP,Water -procs 2,4 -remote localhost:8321
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lrcrace/cmd/internal/cli"
	"lrcrace/internal/service"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	maxSessions := flag.Int("max-sessions", 4, "sessions run concurrently")
	queue := flag.Int("queue", 64, "admitted sessions waiting for a slot before submissions get 503")
	sessionTimeout := flag.Duration("session-timeout", 2*time.Minute, "per-session wall deadline")
	storeCap := flag.Int("store-cap", service.DefaultStoreCap, "report-store retention (records)")
	keepDone := flag.Int("keep-done", 1024, "finished sessions kept queryable")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace for in-flight HTTP requests")
	dataDir := flag.String("data", "", "durable report-store directory: records persist to a content-addressed segment log and replay on restart (empty = in-memory only)")
	storeSync := flag.Int("store-sync", 1, "report-log durability: any value >= 0 group-commits (appends never wait on fsync; a record is visible, and a session admitted or done, only once it is durable); negative = records visible at once, fsync only on shutdown")
	tenantMaxActive := flag.Int("tenant-max-active", 0, "per-tenant cap on queued+running sessions; beyond it that tenant gets 429 (0 = unlimited)")
	flag.Parse()

	svc, replay, err := service.Open(service.Config{
		MaxSessions:     *maxSessions,
		QueueDepth:      *queue,
		SessionTimeout:  *sessionTimeout,
		StoreCap:        *storeCap,
		KeepDone:        *keepDone,
		DataDir:         *dataDir,
		StoreSyncEvery:  *storeSync,
		TenantMaxActive: *tenantMaxActive,
	})
	if err != nil {
		log.Fatalf("racedsvc: opening report store: %v", err)
	}
	if *dataDir != "" {
		fmt.Printf("report store: durable at %s (%d records replayed, resuming at seq %d)\n",
			*dataDir, replay.Records, replay.LastSeq+1)
		if replay.Truncation != "" {
			fmt.Fprintf(os.Stderr, "racedsvc: WARNING: %s\n", replay.Truncation)
		}
	}
	// WriteTimeout 0: /reports/stream subscribers hold their response open
	// for as long as they like; per-write deadlines would cut them off.
	srv, bound, err := cli.Serve(*addr, cli.Mux(svc.Handler()), 0)
	if err != nil { // svc.Close syncs the report log even on listen failure
		svc.Close()
		log.Fatal(err)
	}
	fmt.Printf("racedsvc on http://%s: POST /sessions, GET /reports[/stream], /metrics, /healthz, /version\n", bound)
	fmt.Printf("pool: %d concurrent sessions, queue depth %d, %v per-session deadline\n",
		*maxSessions, *queue, *sessionTimeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	// Shutdown order: close the service first so new submissions get a typed
	// shutting_down rejection while in-flight sessions drain, then drain the
	// HTTP side (streaming subscribers are cut when the grace expires).
	fmt.Println("racedsvc: shutting down (draining running sessions)")
	svc.Close()
	if err := cli.Shutdown(srv, *grace); err != nil {
		fmt.Fprintf(os.Stderr, "racedsvc: forced shutdown: %v\n", err)
	}
}
