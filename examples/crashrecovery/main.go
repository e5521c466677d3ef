// Command crashrecovery kills a process mid-epoch and shows the system
// survive it: every process serializes its recovery state at each barrier
// departure (a checkpoint), survivors detect the death through the
// reliable layer's retry cap (or, for a death nothing is sent to, as a
// deadlock), and the run rolls all processes back to the last common
// barrier epoch, reclaims the victim's locks, and re-executes. The final
// memory — and the detector's race report — match a crash-free run. See
// docs/ROBUSTNESS.md for the failure model and recovery protocol.
package main

import (
	"fmt"
	"log"

	"lrcrace"
)

func main() {
	plan := &lrcrace.CrashPlan{
		Victim: 2,                        // process 2 dies...
		Epoch:  1,                        // ...during the second epoch...
		Point:  lrcrace.CrashHoldingLock, // ...while holding a lock
	}
	sys, err := lrcrace.New(lrcrace.Config{
		NumProcs:   4,
		SharedSize: 16 * 1024,
		Detect:     true,
		// Checkpointing is on by default: every barrier departure deposits
		// a chunk-deduplicated manifest the rollback below restores from,
		// and a crash plan brings the reliability sublayer, whose link
		// death detects the crash.
		Crashes: []*lrcrace.CrashPlan{plan},
	})
	if err != nil {
		log.Fatal(err)
	}

	counter, _ := sys.AllocWords("counter", 1)
	racy, _ := sys.AllocWords("racy", 1)

	const epochs = 3
	err = sys.RunEpochs(epochs, func() lrcrace.EpochFunc {
		return func(p *lrcrace.Proc, e int32) {
			// Lock-ordered increments: exactly-once despite the rollback.
			p.Lock(1)
			p.Write(counter, p.Read(counter)+1)
			p.Unlock(1)
			// One unsynchronized write per epoch: a genuine race, still
			// reported after recovery.
			p.Write(racy, uint64(p.ID()))
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("counter = %d (want %d: no lost or doubled increments across the rollback)\n",
		sys.SnapshotWord(counter), 4*epochs)

	rs := sys.RecoveryStats()
	fmt.Printf("crash: p%d at %v, detected via %s\n", rs.LastVictim, plan.Point, rs.LastReason)
	fmt.Printf("recovery: %d rollback to epoch %d, %d lock(s) reclaimed, %.1f ms of virtual work re-executed\n",
		rs.Recoveries, rs.LastEpoch, rs.LocksReclaimed, float64(rs.VirtualNS)/1e6)

	cs := sys.CheckpointStats()
	fmt.Printf("checkpoints: %d serialized, %d bytes total\n", cs.Count, cs.Bytes)

	for _, r := range lrcrace.DedupRaces(sys.Races()) {
		sym, _ := sys.SymbolAt(r.Addr)
		fmt.Println(r, "on variable", sym.Name)
	}
}
