// Command replay demonstrates the paper's §6.1 two-run reference
// identification: run 1 detects a race by address while recording the
// synchronization order; run 2 captures the source locations of every
// access to the conflicting address — turning "race at 0x40" into "read at
// main.worker (main.go:NN) vs write at ...". The paper's run 2 enforces run
// 1's order; here one scheduler gives each input one interleaving, so run 2
// is the same Config run again, and re-recording its order confirms that.
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

// tee fans one run's events out to several tracers.
type tee []lrcrace.Tracer

func (t tee) each(f func(lrcrace.Tracer)) {
	for _, tr := range t {
		f(tr)
	}
}

func (t tee) Read(p int, a lrcrace.Addr)  { t.each(func(tr lrcrace.Tracer) { tr.Read(p, a) }) }
func (t tee) Write(p int, a lrcrace.Addr) { t.each(func(tr lrcrace.Tracer) { tr.Write(p, a) }) }
func (t tee) Acquire(p, l int)            { t.each(func(tr lrcrace.Tracer) { tr.Acquire(p, l) }) }
func (t tee) Release(p, l int)            { t.each(func(tr lrcrace.Tracer) { tr.Release(p, l) }) }
func (t tee) BarrierArrive(p int, e int32) {
	t.each(func(tr lrcrace.Tracer) { tr.BarrierArrive(p, e) })
}
func (t tee) BarrierDepart(p int, e int32) {
	t.each(func(tr lrcrace.Tracer) { tr.BarrierDepart(p, e) })
}

// build makes one run of the program with tracer attached; both runs use
// the same Config otherwise.
func build(tracer lrcrace.Tracer) (*lrcrace.System, lrcrace.Addr, lrcrace.Addr) {
	sys, err := lrcrace.New(lrcrace.Config{NumProcs: procs, SharedSize: 8192, Detect: true, Tracer: tracer})
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
	sys1, ctr1, status1 := build(rec)
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

	// Run 2: the same Config again, watching the conflicting address and
	// re-recording the order.
	rec2 := lrcrace.NewSyncRecord()
	watch := lrcrace.NewSiteCollector(conflicted)
	sys2, ctr2, status2 := build(tee{rec2, watch})
	if err := sys2.Run(worker(ctr2, status2)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run 2 (same Config): counter = %d (want %d)\n",
		sys2.SnapshotWord(ctr2), procs*iters)
	if !rec2.Equal(rec) {
		log.Fatalf("run 2 recorded a different lock order: %v, run 1 %v", rec2.Order(0), rec.Order(0))
	}
	fmt.Println("run 2: re-recorded run 1's lock order, unforced")

	fmt.Println("run 2: racing instructions for the conflicted address:")
	for _, s := range watch.Sites() {
		fmt.Printf("  %v\n", s)
	}
}
