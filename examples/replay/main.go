// Command replay demonstrates the paper's §6.1 two-run reference
// identification: run 1 detects a race by address while recording the
// synchronization order; run 2 enforces that order and captures the source
// locations of every access to the conflicting address — turning "race at
// 0x40" into "read at main.worker (main.go:NN) vs write at ...".
package main

import (
	"fmt"
	"log"

	"lrcrace"
)

const (
	procs = 3
	iters = 4
)

// worker increments a locked counter and reads/writes a racy status word.
func worker(ctr, status lrcrace.Addr) func(p *lrcrace.Proc) {
	return func(p *lrcrace.Proc) {
		for i := 0; i < iters; i++ {
			p.Lock(0)
			p.Write(ctr, p.Read(ctr)+1)
			p.Unlock(0)

			_ = p.Read(status) // unsynchronized progress check: racy
			if p.ID() == 0 {
				p.Write(status, uint64(i)) // racy progress update
			}
		}
	}
}

func build(rec *lrcrace.SyncRecord, enf *lrcrace.Enforcer, watch *lrcrace.SiteCollector) (*lrcrace.System, lrcrace.Addr, lrcrace.Addr) {
	cfg := lrcrace.Config{NumProcs: procs, SharedSize: 8192, Detect: true}
	// Run 1 records and run 2 watches, each through Config.Tracer. The nil
	// checks matter: a nil pointer stored in the interface is not nil.
	if rec != nil {
		cfg.Tracer = rec
	}
	if enf != nil {
		cfg.SyncEnforcer = enf
	}
	if watch != nil {
		cfg.Tracer = watch
	}
	sys, err := lrcrace.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctr, _ := sys.AllocWords("ctr", 1)
	status, _ := sys.AllocWords("status", 1)
	return sys, ctr, status
}

func main() {
	// Run 1: detect races by address, record synchronization order.
	rec := lrcrace.NewSyncRecord()
	sys1, ctr1, status1 := build(rec, nil, nil)
	if err := sys1.Run(worker(ctr1, status1)); err != nil {
		log.Fatal(err)
	}
	races := lrcrace.DedupRaces(sys1.Races())
	if len(races) == 0 {
		log.Fatal("run 1 found no races (unexpected)")
	}
	conflicted := races[0].Addr
	sym, _ := sys1.SymbolAt(conflicted)
	fmt.Printf("run 1: race detected at address 0x%x (variable %q)\n", uint64(conflicted), sym.Name)
	fmt.Printf("run 1: recorded %d lock-0 tenures: %v\n", len(rec.Order(0)), rec.Order(0))

	// Run 2: enforce the recorded order, watch the conflicting address.
	watch := lrcrace.NewSiteCollector(conflicted)
	sys2, ctr2, status2 := build(nil, lrcrace.NewEnforcer(rec), watch)
	if err := sys2.Run(worker(ctr2, status2)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run 2 (replayed): counter = %d (want %d)\n",
		sys2.SnapshotWord(ctr2), procs*iters)

	fmt.Println("run 2: racing instructions for the conflicted address:")
	for _, s := range watch.Sites() {
		fmt.Printf("  %v\n", s)
	}
}
