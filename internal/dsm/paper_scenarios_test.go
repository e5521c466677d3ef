package dsm

import (
	"math"
	"testing"

	"lrcrace/internal/mem"
	"lrcrace/internal/race"
)

// TestPaperFigure2EndToEnd drives the paper's Figure 2 execution through
// the full DSM: P1 writes x and releases; P2 acquires (so σ1^1 ≺ σ2^2) and
// writes; P1 then writes again without synchronization. Same-page different
// words ⇒ false sharing (no report); same word ⇒ data race.
func TestPaperFigure2EndToEnd(t *testing.T) {
	run := func(p1SecondWrite, p2Write int) []race.Report {
		s := newSys(t, 2, SingleWriter, true)
		page0, _ := s.Alloc("page0", 1024) // one full page
		addr := func(word int) mem.Addr { return page0 + mem.Addr(word*8) }
		// Real-time gates pin the figure's ordering: P1's release precedes
		// P2's acquire, and P1's second write follows P2's critical section
		// (so it cannot learn of it through any chain).
		p1Released := &Gate{}
		p2Acquired := &Gate{}
		err := s.Run(func(p *Proc) {
			if p.ID() == 0 { // P1
				p.Lock(0)
				p.Write(addr(0), 1) // w1(x)
				p.Unlock(0)
				p1Released.Open()
				p.Wait(p2Acquired)
				p.Write(addr(p1SecondWrite), 2) // the unsynchronized second write
			} else { // P2
				p.Wait(p1Released)
				p.Lock(0) // acquire corresponding to P1's release
				p.Write(addr(p2Write), 3)
				p.Unlock(0)
				p2Acquired.Open()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return race.DedupByAddr(s.Races())
	}

	// P1's second write to y (word 8), P2 writes y too: true sharing.
	if races := run(8, 8); len(races) != 1 || !races[0].WriteWrite() {
		t.Errorf("same-word case: races = %v, want one WW", races)
	}
	// P1's second write to y, P2 writes z (word 9): false sharing only.
	if races := run(8, 9); len(races) != 0 {
		t.Errorf("false-sharing case reported races: %v", races)
	}
	// P2 writes x itself: ordered by the lock (w1 ≺ acquire), no race with
	// w1; but P1's second unsynchronized write of x races with P2's.
	if races := run(0, 0); len(races) != 1 {
		t.Errorf("ordered-then-racy case: races = %v, want one", races)
	}
}

// TestPaperFigure5Scenario reproduces Adve's missing-synchronization queue
// example (the paper's Figure 5): P1 fills a queue and "forgets" the
// release/acquire pairing with P2; both the intended races (qPtr, qEmpty)
// and the consequent buffer races are reported — our system, like the
// paper's, reports all races, not only the sequentially-consistent ones.
func TestPaperFigure5Scenario(t *testing.T) {
	s := newSys(t, 3, SingleWriter, true)
	qPtr, _ := s.AllocWords("qPtr", 1)
	qEmpty, _ := s.AllocWords("qEmpty", 1)
	buf, _ := s.AllocWords("buf", 64)

	p1Done := &Gate{}
	err := s.Run(func(p *Proc) {
		switch p.ID() {
		case 0: // P1: publishes the queue WITHOUT a release pairing
			p.Write(qPtr, 32)
			p.Write(qEmpty, 0)
			p1Done.Open()
		case 1: // P2: consumes WITHOUT an acquire pairing
			p.Wait(p1Done) // real-time ordering only — invisible to the DSM
			if p.Read(qEmpty) == 0 {
				ptr := p.Read(qPtr)
				// On this weak-memory system the read may see the old
				// pointer value (0) — exactly Adve's point.
				p.Write(buf+mem.Addr(ptr%40)*8, 1)
				p.Write(buf+mem.Addr(ptr%40+1)*8, 2)
			}
		case 2: // P3: concurrent writer into the same buffer region
			p.Wait(p1Done)
			for w := 0; w < 42; w++ {
				p.Write(buf+mem.Addr(w%64)*8, 9)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	racy := map[string]bool{}
	for _, r := range race.DedupByAddr(s.Races()) {
		sym, ok := s.SymbolAt(r.Addr)
		if !ok {
			t.Errorf("race at unmapped address %#x", r.Addr)
			continue
		}
		racy[sym.Name] = true
	}
	for _, want := range []string{"qPtr", "qEmpty", "buf"} {
		if !racy[want] {
			t.Errorf("missing race on %q (got %v)", want, racy)
		}
	}
}

// TestTypedAccessors covers the F64/I64 wrappers.
func TestTypedAccessors(t *testing.T) {
	s := newSys(t, 1, SingleWriter, false)
	a, _ := s.AllocWords("a", 2)
	err := s.Run(func(p *Proc) {
		p.WriteF64(a, -3.25)
		if got := p.ReadF64(a); got != -3.25 {
			t.Errorf("ReadF64 = %v", got)
		}
		p.WriteI64(a+8, -42)
		if got := p.ReadI64(a + 8); got != -42 {
			t.Errorf("ReadI64 = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SnapshotF64(a); got != -3.25 {
		t.Errorf("SnapshotF64 = %v", got)
	}
	if got := int64(s.SnapshotWord(a + 8)); got != -42 {
		t.Errorf("SnapshotWord = %v", got)
	}
	if math.IsNaN(s.SnapshotF64(a)) {
		t.Error("NaN")
	}
}

// TestSnapshotWordBothProtocols: authoritative post-run reads.
func TestSnapshotWordBothProtocols(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
		s := newSys(t, 3, proto, false)
		arr, _ := s.AllocWords("arr", 12)
		err := s.Run(func(p *Proc) {
			for k := 0; k < 4; k++ {
				p.Write(arr+mem.Addr((p.ID()*4+k)*8), uint64(p.ID()*100+k))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 3; q++ {
			for k := 0; k < 4; k++ {
				want := uint64(q*100 + k)
				if got := s.SnapshotWord(arr + mem.Addr((q*4+k)*8)); got != want {
					t.Errorf("SnapshotWord[%d,%d] = %d, want %d", q, k, got, want)
				}
			}
		}
	})
}

// TestStatsCounters: Compute/PrivateAccess bookkeeping and net stats.
func TestStatsCounters(t *testing.T) {
	s := newSys(t, 2, SingleWriter, true)
	x, _ := s.AllocWords("x", 1)
	err := s.Run(func(p *Proc) {
		p.Compute(123)
		p.PrivateAccess(7)
		if p.ID() == 0 {
			p.Write(x, 1)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range s.Procs() {
		st := p.Stats()
		if st.ComputeOps != 123 || st.PrivateAccesses != 7 {
			t.Errorf("proc %d counters: %+v", i, st)
		}
		if st.Barriers != 2 { // explicit + implicit final
			t.Errorf("proc %d barriers = %d", i, st.Barriers)
		}
		if p.VirtualTime() <= 0 {
			t.Errorf("proc %d virtual time not advanced", i)
		}
	}
	if s.NetStats().TotalMessages() == 0 {
		t.Error("no messages recorded")
	}
	if s.VirtualTime() <= 0 {
		t.Error("system virtual time not advanced")
	}
}
