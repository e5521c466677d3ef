package dsm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lrcrace/internal/mem"
	"lrcrace/internal/race"
)

// smallConfig describes the small system most tests run on.
func smallConfig(nproc int, proto ProtocolKind, detect bool) Config {
	return Config{
		NumProcs:   nproc,
		SharedSize: 16 * 1024,
		PageSize:   1024,
		Protocol:   proto,
		Detect:     detect,
	}
}

// newSys builds a small system for tests.
func newSys(t *testing.T, nproc int, proto ProtocolKind, detect bool) *System {
	t.Helper()
	s, err := New(smallConfig(nproc, proto, detect))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func bothProtocols(t *testing.T, f func(t *testing.T, proto ProtocolKind)) {
	t.Run("single-writer", func(t *testing.T) { f(t, SingleWriter) })
	t.Run("multi-writer", func(t *testing.T) { f(t, MultiWriter) })
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{NumProcs: 0, SharedSize: 1024}); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := New(Config{NumProcs: 1, SharedSize: 0}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(Config{NumProcs: 1, SharedSize: 1024, WritesFromDiffs: true}); err == nil {
		t.Error("WritesFromDiffs without multi-writer accepted")
	}
}

func TestParseProtocol(t *testing.T) {
	for in, want := range map[string]ProtocolKind{"sw": SingleWriter, "mw": MultiWriter} {
		if got, err := ParseProtocol(in); err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"bogus", "", "MW", "multi-writer"} {
		if got, err := ParseProtocol(in); err == nil {
			t.Errorf("ParseProtocol(%q) = %v, want an error", in, got)
		}
	}
}

func TestAlloc(t *testing.T) {
	s := newSys(t, 2, SingleWriter, false)
	a, err := s.Alloc("x", 10) // rounds to 16
	if err != nil || a != 0 {
		t.Fatalf("Alloc x: %v %v", a, err)
	}
	b, err := s.AllocWords("y", 2)
	if err != nil || b != 16 {
		t.Fatalf("Alloc y: %v %v", b, err)
	}
	if _, err := s.Alloc("neg", -1); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := s.Alloc("huge", 1<<20); err == nil {
		t.Error("over-segment allocation accepted")
	}
	sym, ok := s.SymbolAt(20)
	if !ok || sym.Name != "y" {
		t.Errorf("SymbolAt(20) = %+v %v", sym, ok)
	}
	if _, ok := s.SymbolAt(4096); ok {
		t.Error("SymbolAt past allocations succeeded")
	}
	if s.AllocBytes() != 32 {
		t.Errorf("AllocBytes = %d", s.AllocBytes())
	}
}

func TestSingleProcRun(t *testing.T) {
	s := newSys(t, 1, SingleWriter, true)
	x, _ := s.AllocWords("x", 4)
	err := s.Run(func(p *Proc) {
		p.Write(x, 42)
		p.Barrier()
		if got := p.Read(x); got != 42 {
			t.Errorf("Read = %d", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Races()) != 0 {
		t.Errorf("single proc reported races: %v", s.Races())
	}
	if s.VirtualTime() == 0 {
		t.Error("virtual clock did not advance")
	}
}

// TestBarrierPropagation: data written by one process before a barrier is
// visible to all after it.
func TestBarrierPropagation(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
		s := newSys(t, 4, proto, false)
		arr, _ := s.AllocWords("arr", 256) // spans two 1 KB pages
		err := s.Run(func(p *Proc) {
			if p.ID() == 0 {
				for i := 0; i < 256; i++ {
					p.Write(arr+mem.Addr(i*8), uint64(1000+i))
				}
			}
			p.Barrier()
			for i := 0; i < 256; i++ {
				if got := p.Read(arr + mem.Addr(i*8)); got != uint64(1000+i) {
					t.Errorf("proc %d: arr[%d] = %d", p.ID(), i, got)
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestLockCriticalSection: a shared counter incremented under a lock by
// every process reaches exactly N*K.
func TestLockCriticalSection(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
		s := newSys(t, 4, proto, false)
		ctr, _ := s.AllocWords("ctr", 1)
		const K = 25
		err := s.Run(func(p *Proc) {
			for i := 0; i < K; i++ {
				p.Lock(3)
				v := p.Read(ctr)
				p.Write(ctr, v+1)
				p.Unlock(3)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// Check final value from any proc after the implicit final barrier.
		s2 := s.procs[1]
		if s2.state[s.layout.Page(ctr)] == pageInvalid {
			// Fetch through the API is no longer possible (run over); read
			// master copy instead.
			got := s.procs[0].seg.Word(ctr)
			if got != 4*K && proto == SingleWriter {
				// Master may not own the page; find the owner's copy.
				var best uint64
				for _, q := range s.procs {
					if q.owned[s.layout.Page(ctr)] {
						best = q.seg.Word(ctr)
					}
				}
				got = best
			}
			if got != 4*K {
				t.Errorf("ctr = %d, want %d", got, 4*K)
			}
			return
		}
		got := s2.seg.Word(ctr)
		if got != 4*K {
			t.Errorf("ctr = %d, want %d", got, 4*K)
		}
	})
}

// TestLRCStaleness: a process that does not synchronize keeps reading its
// stale copy (the lazy part of LRC); synchronizing brings the new value.
func TestLRCStaleness(t *testing.T) {
	s := newSys(t, 2, SingleWriter, false)
	x, _ := s.AllocWords("x", 1)
	stale := make(chan uint64, 1)
	fresh := make(chan uint64, 1)
	err := s.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Lock(0)
			p.Write(x, 1)
			p.Unlock(0)
			p.Barrier() // everyone sees x=1
			p.Lock(0)
			p.Write(x, 2)
			p.Unlock(0)
			p.Barrier() // sync point A (no acquire of lock 0 by p1 yet)
		} else {
			p.Barrier()
			// LRC is a consistency floor: the fetch may return 1 (required
			// minimum) or 2 (the owner's current copy, if p0 ran ahead).
			if v0 := p.Read(x); v0 != 1 && v0 != 2 {
				t.Errorf("initial read = %d, want 1 or 2", v0)
			}
			p.Barrier() // sync point A
			// NOTE: the barrier is itself an acquire, so write notices for
			// x=2 arrive here and the next read faults and sees 2. True
			// staleness without any sync is exercised in the race tests.
			stale <- p.Read(x)
			p.Lock(0)
			p.Unlock(0)
			fresh <- p.Read(x)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := <-stale; v != 2 {
		t.Errorf("post-barrier read = %d, want 2 (barrier carries notices)", v)
	}
	if v := <-fresh; v != 2 {
		t.Errorf("post-acquire read = %d, want 2", v)
	}
}

// TestWriteWriteRaceDetected: two processes write the same word in the same
// epoch without synchronization → one write-write race at the right address.
func TestWriteWriteRaceDetected(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
		s := newSys(t, 2, proto, true)
		x, _ := s.AllocWords("x", 1)
		err := s.Run(func(p *Proc) {
			p.Write(x, uint64(p.ID()+1))
			p.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		races := race.DedupByAddr(s.Races())
		if len(races) != 1 {
			t.Fatalf("races = %v, want exactly one", s.Races())
		}
		r := races[0]
		if !r.WriteWrite() || r.Addr != x {
			t.Errorf("race = %+v, want WW at %#x", r, x)
		}
	})
}

// TestReadWriteRaceDetected: unsynchronized read vs locked write.
func TestReadWriteRaceDetected(t *testing.T) {
	s := newSys(t, 2, SingleWriter, true)
	bound, _ := s.AllocWords("bound", 1)
	err := s.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Lock(1)
			p.Write(bound, 7)
			p.Unlock(1)
		} else {
			_ = p.Read(bound) // unsynchronized read — the TSP pattern
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	races := race.DedupByAddr(s.Races())
	if len(races) != 1 || races[0].WriteWrite() || races[0].Addr != bound {
		t.Fatalf("races = %v, want one RW at %#x", s.Races(), bound)
	}
}

// TestFalseSharingNotReported: writes to different words of one page.
func TestFalseSharingNotReported(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
		s := newSys(t, 2, proto, true)
		arr, _ := s.AllocWords("arr", 8)
		err := s.Run(func(p *Proc) {
			p.Write(arr+mem.Addr(p.ID()*8), uint64(p.ID()))
			p.Barrier()
			// Both values must survive (multi-writer merges diffs;
			// single-writer serializes via ownership migration).
			for q := 0; q < 2; q++ {
				if got := p.Read(arr + mem.Addr(q*8)); got != uint64(q) {
					t.Errorf("proc %d: arr[%d] = %d", p.ID(), q, got)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Races()) != 0 {
			t.Errorf("false sharing reported as race: %v", s.Races())
		}
	})
}

// TestSynchronizedProgramNoRaces: all conflicting accesses under one lock.
func TestSynchronizedProgramNoRaces(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
		s := newSys(t, 4, proto, true)
		x, _ := s.AllocWords("x", 1)
		err := s.Run(func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Lock(0)
				p.Write(x, p.Read(x)+1)
				p.Unlock(0)
			}
			p.Barrier()
			_ = p.Read(x)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Races()) != 0 {
			t.Errorf("synchronized program reported races: %v", s.Races())
		}
	})
}

// TestRaceAcrossLockedAndUnlocked: same address, one side locked — still a
// race (lock does not order against a non-acquiring access).
func TestRaceAcrossLockedAndUnlocked(t *testing.T) {
	s := newSys(t, 3, SingleWriter, true)
	x, _ := s.AllocWords("x", 1)
	err := s.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Lock(0)
			p.Write(x, 1)
			p.Unlock(0)
		case 1:
			p.Lock(0)
			p.Write(x, 2)
			p.Unlock(0)
		case 2:
			p.Write(x, 3) // no lock: races with both
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	races := s.Races()
	if len(races) < 2 {
		t.Fatalf("races = %v, want proc 2 racing with both lockers", races)
	}
	for _, r := range races {
		if r.A.Interval.Proc != 2 && r.B.Interval.Proc != 2 {
			t.Errorf("race not involving proc 2: %v (lockers are ordered)", r)
		}
	}
}

// TestDetectionOffNoRaces: same racy program, detection disabled.
func TestDetectionOffNoRaces(t *testing.T) {
	s := newSys(t, 2, SingleWriter, false)
	x, _ := s.AllocWords("x", 1)
	err := s.Run(func(p *Proc) {
		p.Write(x, uint64(p.ID()))
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Races()) != 0 {
		t.Errorf("races reported with detection off: %v", s.Races())
	}
}

// TestFirstOnlySuppressesLaterEpochs at the full-system level (§6.4).
func TestFirstOnlySuppressesLaterEpochs(t *testing.T) {
	mk := func(firstOnly bool) int {
		s, err := New(Config{NumProcs: 2, SharedSize: 16 * 1024, PageSize: 1024,
			Detect: true, FirstOnly: firstOnly})
		if err != nil {
			t.Fatal(err)
		}
		x, _ := s.AllocWords("x", 1)
		y, _ := s.Alloc("y", 8)
		if err := s.Run(func(p *Proc) {
			p.Write(x, uint64(p.ID())) // race in epoch 0
			p.Barrier()
			p.Write(y, uint64(p.ID())) // race in epoch 1
			p.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		return len(race.DedupByAddr(s.Races()))
	}
	if n := mk(false); n != 2 {
		t.Errorf("without FirstOnly: %d distinct races, want 2", n)
	}
	if n := mk(true); n != 1 {
		t.Errorf("with FirstOnly: %d distinct races, want 1", n)
	}
}

// TestOwnershipMigration: alternating locked writers on one page keep data
// intact while ownership migrates.
func TestOwnershipMigration(t *testing.T) {
	s := newSys(t, 4, SingleWriter, false)
	slots, _ := s.AllocWords("slots", 4)
	sum, _ := s.AllocWords("sum", 1)
	err := s.Run(func(p *Proc) {
		for round := 0; round < 8; round++ {
			p.Lock(0)
			p.Write(slots+mem.Addr(p.ID()*8), uint64((round+1)*100+p.ID()))
			p.Write(sum, p.Read(sum)+1)
			p.Unlock(0)
		}
		p.Barrier()
		p.Lock(0)
		if got := p.Read(sum); got != 32 {
			t.Errorf("proc %d: sum = %d, want 32", p.ID(), got)
		}
		for q := 0; q < 4; q++ {
			if got := p.Read(slots + mem.Addr(q*8)); got != uint64(8*100+q) {
				t.Errorf("proc %d: slot %d = %d", p.ID(), q, got)
			}
		}
		p.Unlock(0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultiWriterConcurrentFalseSharing: many writers to distinct words of
// the same page in the same epoch; diffs must merge at the home.
func TestMultiWriterConcurrentFalseSharing(t *testing.T) {
	s := newSys(t, 4, MultiWriter, false)
	arr, _ := s.AllocWords("arr", 16)
	err := s.Run(func(p *Proc) {
		for k := 0; k < 4; k++ {
			p.Write(arr+mem.Addr((p.ID()*4+k)*8), uint64(p.ID()*4+k+1))
		}
		p.Barrier()
		for i := 0; i < 16; i++ {
			if got := p.Read(arr + mem.Addr(i*8)); got != uint64(i+1) {
				t.Errorf("proc %d: arr[%d] = %d, want %d", p.ID(), i, got, i+1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWritesFromDiffs (§6.5): with diff-derived write detection, a
// same-value overwrite escapes detection, while a changed value is caught.
func TestWritesFromDiffs(t *testing.T) {
	run := func(writeVal uint64) int {
		s, err := New(Config{NumProcs: 2, SharedSize: 16 * 1024, PageSize: 1024,
			Protocol: MultiWriter, Detect: true, WritesFromDiffs: true})
		if err != nil {
			t.Fatal(err)
		}
		x, _ := s.AllocWords("x", 1)
		if err := s.Run(func(p *Proc) {
			if p.ID() == 0 {
				p.Write(x, 5)
			}
			p.Barrier()
			if p.ID() == 1 {
				p.Write(x, writeVal) // 5 → no diff entry → invisible
			}
			if p.ID() == 0 {
				_ = p.Read(x)
			}
			p.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		return len(race.DedupByAddr(s.Races()))
	}
	if n := run(6); n == 0 {
		t.Error("changed value not detected under WritesFromDiffs")
	}
	if n := run(5); n != 0 {
		t.Error("same-value overwrite detected — diffs should miss it (weaker guarantee)")
	}
}

// TestBarrierIntervalCount: barrier-only programs create two interval
// structures per process per barrier, as in the paper's Table 1.
func TestBarrierIntervalCount(t *testing.T) {
	s := newSys(t, 4, SingleWriter, true)
	x, _ := s.AllocWords("x", 4)
	const barriers = 5
	err := s.Run(func(p *Proc) {
		for b := 0; b < barriers; b++ {
			p.Write(x+mem.Addr(p.ID()%4)*8, uint64(b)) // false sharing only
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := s.DetectorStats()
	// barriers + 1 implicit final barrier epochs; 2 records per proc each.
	wantPerEpoch := 2 * 4
	if got := ds.IntervalsTotal / ds.Epochs; got != wantPerEpoch {
		t.Errorf("intervals per epoch = %d, want %d", got, wantPerEpoch)
	}
}

// TestPanicPropagates: an app panic surfaces as an error, not a hang.
func TestPanicPropagates(t *testing.T) {
	s := newSys(t, 2, SingleWriter, false)
	_, _ = s.AllocWords("x", 1)
	err := s.Run(func(p *Proc) {
		if p.ID() == 1 {
			panic("boom")
		}
		p.Barrier() // would deadlock without panic propagation
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want panic propagation", err)
	}
}

// TestAllocAfterRunFails.
func TestAllocAfterRunFails(t *testing.T) {
	s := newSys(t, 1, SingleWriter, false)
	x, _ := s.AllocWords("x", 1)
	if err := s.Run(func(p *Proc) { p.Write(x, 1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc("late", 8); err == nil {
		t.Error("Alloc after Run accepted")
	}
}

// TestDetectionSlowsVirtualTime: same program, detection on vs off — the
// detected run must be slower in virtual time, and stats populated.
func TestDetectionSlowsVirtualTime(t *testing.T) {
	run := func(detect bool) (*System, int64) {
		s := newSys(t, 4, SingleWriter, detect)
		// One full page per process: no ownership thrashing, so virtual
		// time is deterministic up to lock-free protocol noise.
		arr, _ := s.Alloc("arr", 4*1024)
		err := s.Run(func(p *Proc) {
			for i := 0; i < 200; i++ {
				a := arr + mem.Addr(p.ID()*1024+(i%16)*8)
				p.Write(a, uint64(i))
				_ = p.Read(a)
				p.PrivateAccess(3)
				p.Compute(10)
			}
			p.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, s.VirtualTime()
	}
	_, base := run(false)
	sd, det := run(true)
	if det <= base {
		t.Errorf("virtual time with detection (%d) not above baseline (%d)", det, base)
	}
	st := sd.procs[1].Stats()
	if st.TProcCall == 0 || st.TAccessCheck == 0 || st.TCVMMods == 0 {
		t.Errorf("overhead counters empty: %+v", st)
	}
	if st.SharedReads != 200 || st.SharedWrites != 200 || st.PrivateAccesses != 600 {
		t.Errorf("access counters wrong: %+v", st)
	}
	if sd.procs[0].Stats().ReadNoticeBytes == 0 {
		t.Error("no read-notice bytes accounted")
	}
}

// TestMutualExclusionInvariant verifies at the Go level (independent of DSM
// memory) that the distributed lock admits one holder at a time, across
// many iterations and both protocols.
func TestMutualExclusionInvariant(t *testing.T) {
	bothProtocols(t, func(t *testing.T, proto ProtocolKind) {
		for iter := 0; iter < 8; iter++ {
			s := newSys(t, 4, proto, false)
			ctr, _ := s.AllocWords("ctr", 1)
			var holder int32 = -1
			var breaches int32
			err := s.Run(func(p *Proc) {
				for i := 0; i < 8; i++ {
					p.Lock(1)
					if !atomic.CompareAndSwapInt32(&holder, -1, int32(p.ID())) {
						atomic.AddInt32(&breaches, 1)
					}
					v := p.Read(ctr)
					p.Write(ctr, v+1)
					if !atomic.CompareAndSwapInt32(&holder, int32(p.ID()), -1) {
						atomic.AddInt32(&breaches, 1)
					}
					p.Unlock(1)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if breaches != 0 {
				t.Fatalf("iter %d: %d mutual-exclusion breaches", iter, breaches)
			}
			if got := s.SnapshotWord(ctr); got != 32 {
				t.Fatalf("iter %d: ctr = %d, want 32 (exclusion held, so this is a staleness bug)", iter, got)
			}
		}
	})
}

// TestLostUpdateDiagnosis reproduces the rare lost-update failure with a
// value trace: every critical section logs the value it read and wrote, in
// global order. A lost update shows as two sections reading the same value.
func TestLostUpdateDiagnosis(t *testing.T) {
	for iter := 0; iter < 300; iter++ {
		s := newSys(t, 4, SingleWriter, false)
		slots, _ := s.AllocWords("slots", 4)
		sum, _ := s.AllocWords("sum", 1)
		var mu sync.Mutex
		var trace []string
		err := s.Run(func(p *Proc) {
			for round := 0; round < 8; round++ {
				p.Lock(0)
				p.Write(slots+mem.Addr(p.ID()*8), uint64((round+1)*100+p.ID()))
				v := p.Read(sum)
				p.Write(sum, v+1)
				mu.Lock()
				trace = append(trace, fmt.Sprintf("p%d r%d: %d -> %d", p.ID(), round, v, v+1))
				mu.Unlock()
				p.Unlock(0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.SnapshotWord(sum); got != 32 {
			for _, l := range trace {
				t.Log(l)
			}
			t.Fatalf("iter %d: sum = %d, want 32", iter, got)
		}
	}
}

// TestManyLocksManyProcs: stress the 3-hop protocol with several locks and
// processes, including manager self-acquisition and re-acquisition.
func TestManyLocksManyProcs(t *testing.T) {
	s := newSys(t, 5, SingleWriter, false)
	ctrs, _ := s.AllocWords("ctrs", 3)
	const K = 12
	err := s.Run(func(p *Proc) {
		for i := 0; i < K; i++ {
			l := (p.ID() + i) % 3
			p.Lock(l)
			a := ctrs + mem.Addr(l*8)
			p.Write(a, p.Read(a)+1)
			p.Unlock(l)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sum the three counters via the owners' copies.
	var total uint64
	for l := 0; l < 3; l++ {
		a := ctrs + mem.Addr(l*8)
		pg := s.layout.Page(a)
		for _, q := range s.procs {
			if q.owned[pg] {
				total += q.seg.Word(a)
			}
		}
	}
	if total != 5*K {
		t.Errorf("total = %d, want %d", total, 5*K)
	}
}

// TestRecursiveLockPanics and unlock-without-hold.
func TestLockMisusePanics(t *testing.T) {
	s := newSys(t, 1, SingleWriter, false)
	_, _ = s.AllocWords("x", 1)
	err := s.Run(func(p *Proc) {
		p.Lock(0)
		p.Lock(0)
	})
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("recursive lock: err = %v", err)
	}

	s2 := newSys(t, 1, SingleWriter, false)
	err = s2.Run(func(p *Proc) { p.Unlock(0) })
	if err == nil || !strings.Contains(err.Error(), "not holding") {
		t.Errorf("unlock without hold: err = %v", err)
	}
}

// TestRunTwiceFails.
func TestRunTwice(t *testing.T) {
	s := newSys(t, 1, SingleWriter, false)
	if err := s.Run(func(p *Proc) {}); err != nil {
		t.Fatal(err)
	}
	// Second Run is a no-op returning the first result.
	if err := s.Run(func(p *Proc) { t.Error("second Run executed app") }); err != nil {
		t.Fatal(err)
	}
}
