package dsm

import (
	"fmt"
	"runtime"
	"testing"

	"lrcrace/internal/mem"
)

// TestRecycledFramesShareNothing: two processes write alternate words of
// two pages (one homed at each), swapping words every round, and both read
// every word back, round after round. Each round fetched pages replace
// frames, twins are diffed (multi-writer) and checkpoint chunks are
// deposited and retired, every one of them handing its buffer back to the
// frame pool for the next round's copies. In a test binary the pool
// poisons what it recycles, so a frame, twin or chunk still referenced
// after recycling reads or diffs wrong.
func TestRecycledFramesShareNothing(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
		const rounds = 60
		s := newSys(t, 2, proto, true)
		l := s.Layout()
		pages := []mem.PageID{2, 3}
		val := func(r int, pg mem.PageID, w int) uint64 { return uint64(r)<<32 | uint64(pg)<<16 | uint64(w) + 1 }
		if err := s.Run(func(p *Proc) {
			for r := 0; r < rounds; r++ {
				for _, pg := range pages {
					for w := (p.ID() + r) % 2; w < l.WordsPerPage(); w += 2 {
						p.Write(l.PageBase(pg)+mem.Addr(w*mem.WordSize), val(r, pg, w))
					}
				}
				p.Barrier()
				for _, pg := range pages {
					for w := 0; w < l.WordsPerPage(); w++ {
						if got, want := p.Read(l.PageBase(pg)+mem.Addr(w*mem.WordSize)), val(r, pg, w); got != want {
							panic(fmt.Sprintf("round %d, proc %d: page %d word %d reads %#x, want %#x", r, p.ID(), pg, w, got, want))
						}
					}
				}
				p.Barrier()
			}
		}); err != nil {
			t.Fatal(err)
		}
		if st := s.procs[1].Stats(); st.ReadFaults+st.WriteFaults < rounds {
			t.Errorf("process 1 took %d faults in %d rounds; the pages did not move", st.ReadFaults+st.WriteFaults, rounds)
		}
		if cs := s.ChunkStats(); cs.FreedBytes == 0 {
			t.Error("no checkpoint chunk was freed")
		}
		if len(s.Races()) != 0 {
			t.Errorf("%d races reported; the processes write disjoint words between barriers", len(s.Races()))
		}
	})
}

// TestRefetchAllocatesNoPage: in the steady state of a loop where one
// process rewrites a page and another's copy is invalidated and fetched
// again, the fetched bytes land in the frame the previous fetch left
// behind, so a round allocates less than one page.
func TestRefetchAllocatesNoPage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
		const pageSize, warm, rounds = 64 << 10, 20, 100
		s, err := New(Config{NumProcs: 2, SharedSize: 4 * pageSize, PageSize: pageSize, Protocol: proto, NoCheckpoint: true})
		if err != nil {
			t.Fatal(err)
		}
		a := s.Layout().PageBase(2) + 8 // homed at process 0
		var before, after runtime.MemStats
		var faults int64
		if err := s.Run(func(p *Proc) {
			for r := 0; r < warm+rounds; r++ {
				if p.ID() == 0 {
					p.Write(a, uint64(r))
				}
				p.Barrier()
				if p.ID() == 1 {
					switch r {
					case warm:
						faults = p.Stats().ReadFaults
						runtime.ReadMemStats(&before)
					case warm + rounds - 1:
						runtime.ReadMemStats(&after)
						faults = p.Stats().ReadFaults - faults
					}
					if v := p.Read(a); v != uint64(r) {
						panic(fmt.Sprintf("round %d reads %d", r, v))
					}
				}
				p.Barrier()
			}
		}); err != nil {
			t.Fatal(err)
		}
		if faults < rounds-2 {
			t.Fatalf("%d fetches in %d rounds; the loop does not refetch", faults, rounds)
		}
		perFetch := float64(after.TotalAlloc-before.TotalAlloc) / float64(faults)
		t.Logf("%d fetches, %.0f bytes allocated per fetch", faults, perFetch)
		if perFetch >= pageSize {
			t.Errorf("%.0f bytes allocated per fetch of a %d-byte page, want less than a page", perFetch, pageSize)
		}
	})
}
