// Command sweeprun drives a parameter sweep over the DSM benchmark grid:
// the cartesian product of the axis flags (or a JSON plan file) expands to
// cells, a bounded worker pool runs them concurrently — each cell in its
// own System with its own scoped telemetry recorder — and the results land
// as a summary table, a summary JSON, and a deterministic aggregated
// metrics document. See docs/SWEEP.md.
//
// Usage:
//
//	sweeprun -apps TSP,Water -procs 2,4 -workers 4
//	sweeprun -apps SOR -protocols sw,mw -sharded 0,1 -metrics-out m.json
//	sweeprun -apps Water -procs 8,16,32 -barrier-tree 0,2 # flat vs tree barrier
//	sweeprun -plan plan.json -dir sweep.ckpt        # resumable
//	sweeprun -apps Water -metrics-addr :9090        # live /metrics, /sweep
//	sweeprun -apps TSP -drop 0.05 -seeds 0,1,2      # wire-fault sweep
//	sweeprun -apps ChaosTSP -crash single,double -corrupt none,chunk -seeds 0,1
//	sweeprun -apps TSP,Water -remote host:8321      # dispatch cells to racedsvc
//	sweeprun -apps KV,Sessions -hot-skews 0,0.8 -racy 0,1 -seeds 0,1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"lrcrace/cmd/internal/cli"
	"lrcrace/internal/service"
	"lrcrace/internal/sweep"
)

func main() {
	planFile := flag.String("plan", "", "JSON plan file (overrides the axis flags)")
	apps := flag.String("apps", "", "applications axis, e.g. TSP,Water")
	scales := flag.String("scales", "", "problem-scale axis (default 1)")
	procs := flag.String("procs", "", "process-count axis (default 4)")
	protocols := flag.String("protocols", "", "protocol axis: sw,mw (default sw)")
	detect := flag.String("detect", "", "detection axis: true,false (default true)")
	sharded := flag.String("sharded", "", "sharded-check axis: true,false (default false)")
	barrierTree := flag.String("barrier-tree", "", "combining-tree barrier arity axis: 0 = flat, else arity >= 2 (default 0)")
	checkpoint := flag.String("checkpoint", "", "checkpointing axis: true,false (default true)")
	crash := flag.String("crash", "", "crash-mode axis for chaos apps: none,single,double,recovery (default none)")
	corrupt := flag.String("corrupt", "", "checkpoint-corruption axis: none,chunk,delete (default none; needs -crash)")
	seeds := flag.String("seeds", "", "fault-seed axis (default 0; needs a fault or chaos flag, or a go-frontend app such as KV)")
	hotSkews := flag.String("hot-skews", "", "go-frontend hot-key-skew axis in [0,1) (default 0)")
	racy := flag.String("racy", "", "go-frontend racy-fast-path axis: true,false (default false)")
	drop := flag.Float64("drop", 0, "fault template: per-message drop probability")
	dup := flag.Float64("dup", 0, "fault template: per-message duplication probability")
	reorder := flag.Float64("reorder", 0, "fault template: per-message reorder probability")
	jitterUS := flag.Int64("jitter-us", 0, "fault template: max extra latency jitter (µs)")

	workers := flag.Int("workers", 4, "cells run concurrently")
	cellTimeout := flag.Duration("cell-timeout", 2*time.Minute, "per-cell wall-time deadline")
	dir := flag.String("dir", "", "checkpoint directory: persist per-cell results and resume an interrupted grid")
	out := flag.String("out", "", "write the summary JSON here")
	metricsOut := flag.String("metrics-out", "", "write the aggregated metrics JSON here (deterministic)")
	metricsAddr := flag.String("metrics-addr", "", "serve live /metrics, /sweep and /flight/<cell> on this address during the run")
	remote := flag.String("remote", "", "dispatch cells to racedsvc nodes (comma-separated addresses) instead of running locally; failed nodes fail over")
	tenant := flag.String("tenant", "", "tenant identity stamped on remote sessions (quota accounting)")
	flag.Parse()

	plan, err := buildPlan(*planFile, axisFlags{
		apps: *apps, scales: *scales, procs: *procs, protocols: *protocols,
		detect: *detect, sharded: *sharded, barrierTree: *barrierTree, checkpoint: *checkpoint,
		crash: *crash, corrupt: *corrupt, seeds: *seeds,
		hotSkews: *hotSkews, racy: *racy,
		drop: *drop, dup: *dup, reorder: *reorder, jitterUS: *jitterUS,
	})
	if err != nil {
		log.Fatal(err)
	}

	s, err := sweep.New(plan, sweep.Options{
		Workers:     *workers,
		CellTimeout: *cellTimeout,
		Dir:         *dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sweep %0.12s: %d cells, %d workers\n", plan.Fingerprint(), len(s.Cells()), *workers)

	if *metricsAddr != "" {
		// The shared scaffolding adds /healthz and /version next to the
		// sweep's own endpoints and drains scrapes on exit.
		srv, addr, err := cli.Serve(*metricsAddr, cli.Mux(s.Handler()), 30*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		defer cli.Shutdown(srv, 2*time.Second)
		fmt.Printf("live endpoint: http://%s/metrics /sweep /flight/<cell-id>\n", addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// One pool runs the grid either way; -remote only swaps what runs a
	// cell: the local guarded runner, or a session on a racedsvc node.
	var exec sweep.Executor
	var dispatch *service.Dispatcher
	if *remote != "" {
		addrs := cli.Strings(*remote)
		dispatch = service.NewDispatcher(addrs, func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}).Tenant(*tenant)
		exec = dispatch.Executor()
		fmt.Printf("remote dispatch: %d pending cells -> %d node(s)\n", s.Summary().Missing, len(addrs))
	}
	summary, err := s.RunWith(ctx, exec)
	if dispatch != nil {
		for _, ns := range dispatch.Stats() {
			fmt.Printf("node %s: %d cells, %d failures, %d rejections, %d breaker trips\n",
				ns.Addr, ns.Dispatched, ns.Failures, ns.Rejections, ns.BreakerTrips)
		}
	}
	if err != nil {
		// An interrupted sweep still summarizes what finished; the
		// checkpoint directory (if any) lets the next invocation resume.
		fmt.Fprintf(os.Stderr, "sweep interrupted: %v\n", err)
	}

	if err := summary.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := cli.WriteFile(*out, summary.WriteJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("summary JSON: %s\n", *out)
	}
	if *metricsOut != "" {
		if err := cli.WriteFile(*metricsOut, s.WriteMetricsJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics JSON: %s\n", *metricsOut)
	}
	if summary.OK != summary.Total {
		os.Exit(1)
	}
}

type axisFlags struct {
	apps, scales, procs, protocols, detect, sharded string
	barrierTree, checkpoint, crash, corrupt, seeds  string
	hotSkews, racy                                  string
	drop, dup, reorder                              float64
	jitterUS                                        int64
}

func buildPlan(planFile string, a axisFlags) (*sweep.Plan, error) {
	if planFile != "" {
		f, err := os.Open(planFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		// A misspelled axis would otherwise be dropped and run at its default.
		var p sweep.Plan
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", planFile, err)
		}
		return &p, nil
	}
	p := &sweep.Plan{Apps: cli.Strings(a.apps)}
	if len(p.Apps) == 0 {
		return nil, fmt.Errorf("no applications: set -apps or -plan")
	}
	var err error
	if p.Scales, err = cli.Floats(a.scales); err != nil {
		return nil, fmt.Errorf("-scales: %w", err)
	}
	if p.Procs, err = cli.Ints(a.procs, 1); err != nil {
		return nil, fmt.Errorf("-procs: %w", err)
	}
	p.Protocols = cli.Strings(a.protocols)
	if p.Detect, err = cli.Bools(a.detect); err != nil {
		return nil, fmt.Errorf("-detect: %w", err)
	}
	if p.Sharded, err = cli.Bools(a.sharded); err != nil {
		return nil, fmt.Errorf("-sharded: %w", err)
	}
	if p.BarrierTrees, err = cli.Ints(a.barrierTree, 0); err != nil {
		return nil, fmt.Errorf("-barrier-tree: %w", err)
	}
	if p.Checkpoint, err = cli.Bools(a.checkpoint); err != nil {
		return nil, fmt.Errorf("-checkpoint: %w", err)
	}
	p.CrashModes = cli.Strings(a.crash)
	p.CorruptModes = cli.Strings(a.corrupt)
	if p.Seeds, err = cli.Int64s(a.seeds); err != nil {
		return nil, fmt.Errorf("-seeds: %w", err)
	}
	if p.HotSkews, err = cli.Floats(a.hotSkews); err != nil {
		return nil, fmt.Errorf("-hot-skews: %w", err)
	}
	if p.Racy, err = cli.Bools(a.racy); err != nil {
		return nil, fmt.Errorf("-racy: %w", err)
	}
	if a.drop > 0 || a.dup > 0 || a.reorder > 0 || a.jitterUS > 0 {
		p.Faults = &sweep.FaultAxis{Drop: a.drop, Dup: a.dup, Reorder: a.reorder, JitterUS: a.jitterUS}
	}
	return p, nil
}
