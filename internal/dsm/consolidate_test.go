package dsm

import (
	"testing"
)

// TestConsolidateDetectsAndPrunes (§6.3): a barrier-free lock program uses
// Consolidate to bound metadata growth; races within each consolidated
// batch are found, and interval logs shrink at each consolidation.
func TestConsolidateDetectsAndPrunes(t *testing.T) {
	s := newSys(t, 3, SingleWriter, true)
	x, _ := s.AllocWords("x", 1)
	ctr, _ := s.AllocWords("ctr", 1)

	logSizes := make(chan int, 16)
	err := s.Run(func(p *Proc) {
		for batch := 0; batch < 3; batch++ {
			for i := 0; i < 5; i++ {
				p.Lock(0)
				p.Write(ctr, p.Read(ctr)+1)
				p.Unlock(0)
				p.Write(x, uint64(p.ID())) // racy in every batch
			}
			p.Consolidate()
			if p.ID() == 1 {
				logSizes <- p.log.Len()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	close(logSizes)

	// Races found in every batch (consolidation is an epoch boundary, so
	// at least one report per batch epoch).
	epochs := map[int32]bool{}
	for _, r := range s.Races() {
		if r.Addr != x {
			t.Errorf("race off the racy variable: %v", r)
		}
		epochs[r.Epoch] = true
	}
	if len(epochs) < 3 {
		t.Errorf("races found in %d epochs, want >=3 (one per batch)", len(epochs))
	}

	// Metadata bounded: the per-proc interval log stays small after each
	// consolidation instead of growing with the run.
	var max int
	for n := range logSizes {
		if n > max {
			max = n
		}
	}
	// Each batch creates ~5 lock-pair intervals per proc; without pruning
	// the log would exceed 3 batches × 3 procs × ~12 intervals.
	if max > 45 {
		t.Errorf("interval log grew to %d records; consolidation did not prune", max)
	}
	if got := s.SnapshotWord(ctr); got != 45 {
		t.Errorf("ctr = %d, want 45", got)
	}
}
