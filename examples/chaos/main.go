// Command chaos runs the race detector over a deliberately bad wire: the
// simulated network drops, duplicates and reorders packets (seeded, so the
// run is reproducible), and the CVM-style reliability sublayer restores the
// exactly-once FIFO delivery the coherence protocol assumes. The detector
// reports the same races it would on a perfect network; the wire statistics
// show how hard the reliability layer had to work.
package main

import (
	"fmt"
	"log"

	"lrcrace"
)

func main() {
	sys, err := lrcrace.New(lrcrace.Config{
		NumProcs:   4,
		SharedSize: 16 * 1024,
		Detect:     true,
		Faults: &lrcrace.FaultPlan{
			Seed:    42,
			Drop:    0.10, // 10% of packets vanish
			Dup:     0.05, // 5% arrive twice
			Reorder: 0.10, // 10% are held back a few sends
		}, // a lossy plan brings the reliability sublayer with it
	})
	if err != nil {
		log.Fatal(err)
	}

	counter, _ := sys.AllocWords("counter", 1)
	racy, _ := sys.AllocWords("racy", 1)

	err = sys.Run(func(p *lrcrace.Proc) {
		// Lock-ordered increments: correct despite the lossy wire.
		for i := 0; i < 4; i++ {
			p.Lock(0)
			p.Write(counter, p.Read(counter)+1)
			p.Unlock(0)
		}
		// One unsynchronized write: a genuine race, same report every run.
		p.Write(racy, uint64(p.ID()))
		p.Barrier()
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("counter = %d (want 16: no lost updates over a 10%%-drop wire)\n",
		sys.SnapshotWord(counter))
	for _, r := range lrcrace.DedupRaces(sys.Races()) {
		sym, _ := sys.SymbolAt(r.Addr)
		fmt.Println(r, "on variable", sym.Name)
	}

	st := sys.NetStats()
	fmt.Printf("wire: dropped %d, duplicated %d, reordered %d\n",
		st.TotalDropped(), st.TotalDuplicated(), st.Reordered)
	fmt.Printf("reliability: retransmitted %d (%d bytes), deduped %d, link errors %d\n",
		st.Retransmits, st.RetransBytes, st.Deduped, st.Errors)
}
